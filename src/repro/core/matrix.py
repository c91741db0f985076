"""Matrix engine: closed-form exact counts for small (p, q) shapes.

The hottest production shapes — butterflies (2, 2) and generally
p, q <= 3 — have closed forms as a handful of sparse products over the
CSR buffers, so they never need the EPivoter enumeration tree.  With
``A`` the biadjacency matrix and ``M = A @ A.T`` the left-side pair
matrix (``M[u, u'] = |N(u) ∩ N(u')|``, ``M[u, u] = d(u)``):

* ``min(p, q) == 1`` — stars: ``sum(C(d, q))`` over the anchoring side's
  degree sequence (no matrix needed);
* ``p == 2`` — every left pair with ``m`` common neighbors closes
  ``C(m, q)`` bicliques, so the count is ``sum(count * C(m, q))`` over
  the off-diagonal overlap histogram of ``M``'s stored entries
  (:func:`repro.graph.sparse.overlap_histogram`: strip the diagonal,
  halve the symmetric double count).  The fold reads ``M``'s values
  only, so the product is used as scipy emits it, rows unsorted;
* ``q == 2`` — the transpose-side twin over ``A.T @ A``;
* ``(3, 3)`` — an anchored pass in a few array passes.  The anchor of a
  triple is its largest left vertex ``u``; its candidates are the
  ``u' < u`` with ``M[u, u'] >= 3``, taken straight from ``M``'s stored
  (row, column, value) triples, and only anchors with two or more
  candidates count.  One elementwise product ``A[c] ∘ A[u]`` over all
  (anchor, candidate) rows finds each candidate's neighbors inside its
  anchor's ``N(u)``; keyed by the anchor's edge ids, those hits fill a
  0/1 membership matrix ``B`` that is block diagonal (two anchors own
  disjoint edge ids).  ``P = B @ B.T`` then holds
  ``P[c, c'] = |N(c) ∩ N(c') ∩ N(u)|`` for candidates of one anchor and
  nothing across anchors, and the count is ``sum_{c < c'} C(P[c, c'], 3)``
  over its strict upper triangle.  Anchors are taken in chunks whose
  ``sum(candidates**2)`` (the blocks' cell count) stays within
  ``_CHUNK_CELLS``, which bounds the product's memory.

Exactness: matrix entries are int64 intersection sizes (bounded by max
degree), and binomial folds promote to Python integers per distinct
value (:func:`repro.graph.sparse.binomial_sum`); no product runs in
floating point.  Every cell is bit-identical to EPivoter; the
golden-counts suite pins this.

Shape support is :func:`matrix_supported`.  The service planner prices
this engine from :func:`repro.graph.sparse.pair_work` before routing to
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.core.counts import BicliqueCounts
from repro.graph.bigraph import LEFT, RIGHT, BipartiteGraph
from repro.graph.intersect import as_int64, exclusive_cumsum
from repro.graph.sparse import (
    biadjacency,
    binomial_sum,
    histogram_binomial_fold,
    overlap_histogram,
    pair_matrix,
    pair_work,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACE
from repro.utils.combinatorics import stars_side_counts

if TYPE_CHECKING:
    from repro.obs.trace import Trace

__all__ = [
    "matrix_supported",
    "matrix_count_single",
    "matrix_count_all",
    "MATRIX_MAX_P",
    "MATRIX_MAX_Q",
]

#: Largest all-pairs extent the engine can fill (every cell with
#: ``p, q <= 3`` has a closed form; beyond that EPivoter takes over).
MATRIX_MAX_P = 3
MATRIX_MAX_Q = 3

#: Chunk bound of the (3, 3) pass, in cells of its block-diagonal
#: ``B @ B.T``: a chunk takes anchors while the sum of their squared
#: candidate counts stays within it, so the product's size is bounded
#: however many anchors the graph has.  An anchor whose own block is
#: larger forms a chunk alone.
_CHUNK_CELLS = 1 << 19


def matrix_supported(p: int, q: int) -> bool:
    """True iff cell ``(p, q)`` has a closed form in this engine."""
    if p < 1 or q < 1:
        return False
    return min(p, q) <= 2 or (p == 3 and q == 3)


def _require(p: int, q: int) -> None:
    if not matrix_supported(p, q):
        raise ValueError(
            f"matrix engine has no closed form for ({p}, {q}); "
            "supported shapes are min(p, q) <= 2 and (3, 3)"
        )


def _pair_side_count(graph: BipartiteGraph, side: int, k: int) -> int:
    """Bicliques with exactly two vertices on ``side`` and ``k`` opposite.

    ``sum_{pairs on side} C(common_neighbors, k)`` — a binomial fold
    over the off-diagonal overlap histogram.  The histogram is the same
    summary :class:`repro.service.mutation.DeltaTotals` maintains per
    edge, so the from-scratch and incremental answers share one code
    path (and are bit-identical by construction).
    """
    return histogram_binomial_fold(overlap_histogram(graph, side), k)


def _anchor_pairs(graph: BipartiteGraph):
    """The (3, 3) pass's ``(anchor, candidate)`` pairs, grouped by anchor.

    The anchor is the largest left vertex of its triple, and any triple
    member shares >= 3 right vertices with the anchor, so the pairs are
    the pair matrix's entries with ``candidate < anchor`` and overlap
    ``>= 3``, kept for anchors with at least two candidates.  The pair
    matrix's rows come out in order, which groups the pairs by anchor.
    Returns ``(anchor, candidate, sizes)`` with ``sizes`` the candidate
    count of each distinct anchor, in order.
    """
    pairs = pair_matrix(graph, LEFT)
    rows = np.repeat(
        np.arange(graph.n_left, dtype=np.int64), np.diff(pairs.indptr)
    )
    columns = as_int64(pairs.indices)
    keep = (columns < rows) & (pairs.data >= 3)
    anchor, candidate = rows[keep], columns[keep]
    per_anchor = np.bincount(anchor, minlength=graph.n_left)
    keep = per_anchor[anchor] >= 2
    return anchor[keep], candidate[keep], per_anchor[per_anchor >= 2]


def _count_33(graph: BipartiteGraph, obs: MetricsRegistry = NULL_REGISTRY) -> int:
    """Exact (3, 3)-biclique count via the chunked block-diagonal pass."""
    # Anchor on whichever side has the cheaper pair matrix; (3, 3) is
    # symmetric, so counting over the swapped view is the same number.
    if pair_work(graph, LEFT) > pair_work(graph, RIGHT):
        graph = graph.swap_sides()
    anchor, candidate, sizes = _anchor_pairs(graph)
    obs.incr("matrix.anchors_33", int(sizes.size))
    if not sizes.size:
        return 0

    adjacency = biadjacency(graph)
    # A again, each entry valued with its edge id + 1 (a stored zero
    # would be dropped by the elementwise product).
    edge_ids = sp.csr_matrix(
        (
            np.arange(1, graph.num_edges + 1, dtype=np.int64),
            adjacency.indices,
            adjacency.indptr,
        ),
        shape=adjacency.shape,
    )
    pair_offsets = exclusive_cumsum(sizes)
    cell_offsets = exclusive_cumsum(sizes * sizes)
    total = 0
    start = 0
    while start < sizes.size:
        stop = int(
            np.searchsorted(
                cell_offsets[1:], cell_offsets[start] + _CHUNK_CELLS, side="right"
            )
        )
        stop = max(stop, start + 1)
        chunk = slice(pair_offsets[start], pair_offsets[stop])
        total += _fold_anchor_block(
            adjacency, edge_ids, anchor[chunk], candidate[chunk]
        )
        start = stop
    return total


def _fold_anchor_block(adjacency, edge_ids, anchor, candidate) -> int:
    """``sum C(|N(c) ∩ N(c') ∩ N(a)|, 3)`` over one chunk's anchors.

    ``(anchor[i], candidate[i])`` are the chunk's pairs, and the sum
    runs over the unordered candidate pairs ``c, c'`` of each anchor
    ``a``.  Row ``i`` of the elementwise product ``A[c_i] ∘ ids[a_i]``
    is ``N(c_i) ∩ N(a_i)``, each hit valued with the id of the anchor's
    edge to it.  Those edge ids are the columns of the 0/1 membership
    matrix ``B``; two anchors own disjoint edge ids, so ``B @ B.T`` is
    block diagonal, and entry ``(i, j)`` inside a block is the triple
    overlap of two candidates of one anchor.
    """
    hits = adjacency[candidate].multiply(edge_ids[anchor]).tocsr()
    membership = sp.csr_matrix(
        (np.ones(hits.nnz, dtype=np.int64), hits.data - 1, hits.indptr),
        shape=(candidate.size, edge_ids.nnz),
    )
    # The strictly upper triangle, read as (all - diagonal) / 2: the
    # stored diagonal is each candidate's overlap with its anchor.
    overlaps = membership @ membership.T
    diagonal = np.diff(hits.indptr)
    return (binomial_sum(overlaps.data, 3) - binomial_sum(diagonal, 3)) // 2


def matrix_count_single(
    graph: BipartiteGraph,
    p: int,
    q: int,
    obs: MetricsRegistry = NULL_REGISTRY,
    trace: "Trace" = NULL_TRACE,
) -> int:
    """Exact number of (p, q)-bicliques for a supported shape.

    Raises ``ValueError`` for shapes outside :func:`matrix_supported`.
    Always returns an
    exact Python integer, bit-identical to EPivoter.
    """
    _require(p, q)
    obs.incr("matrix.runs")
    with obs.phase("matrix.count"), trace.span("closed_form", shape=f"{p}x{q}"):
        if p == 1 and q == 1:
            return graph.num_edges
        if p == 1:
            return stars_side_counts(graph.degrees_left(), q)
        if q == 1:
            return stars_side_counts(graph.degrees_right(), p)
        if p == 3 and q == 3:
            return _count_33(graph, obs=obs)
        if p == 2 and q == 2:
            # Both formulations are valid; take the cheaper pair matrix.
            side = (
                LEFT
                if pair_work(graph, LEFT) <= pair_work(graph, RIGHT)
                else RIGHT
            )
            return _pair_side_count(graph, side, 2)
        if p == 2:
            return _pair_side_count(graph, LEFT, q)
        return _pair_side_count(graph, RIGHT, p)


def matrix_count_all(
    graph: BipartiteGraph,
    max_p: int = MATRIX_MAX_P,
    max_q: int = MATRIX_MAX_Q,
    obs: MetricsRegistry = NULL_REGISTRY,
) -> BicliqueCounts:
    """Exact counts for every cell ``p <= max_p, q <= max_q``.

    Only extents where every cell has a closed form are accepted
    (``max_p, max_q <= 3``); each side's overlap histogram is built once
    and folded for all the cells that read it.
    """
    if max_p > MATRIX_MAX_P or max_q > MATRIX_MAX_Q:
        raise ValueError(
            f"matrix engine fills at most ({MATRIX_MAX_P}, {MATRIX_MAX_Q}); "
            f"requested ({max_p}, {max_q})"
        )
    _require(min(max_p, 2), min(max_q, 2))
    obs.incr("matrix.runs")
    with obs.phase("matrix.count"):
        counts = BicliqueCounts(max_p, max_q)
        degrees_left = graph.degrees_left()
        degrees_right = graph.degrees_right()
        for q in range(1, max_q + 1):
            counts.set(1, q, stars_side_counts(degrees_left, q))
        for p in range(2, max_p + 1):
            counts.set(p, 1, stars_side_counts(degrees_right, p))
        if max_p >= 2 and max_q >= 2:
            overlaps_left = overlap_histogram(graph, LEFT)
            for q in range(2, max_q + 1):
                counts.set(2, q, histogram_binomial_fold(overlaps_left, q))
        if max_p >= 3 and max_q >= 2:
            overlaps_right = overlap_histogram(graph, RIGHT)
            for p in range(3, max_p + 1):
                counts.set(p, 2, histogram_binomial_fold(overlaps_right, p))
        if max_p >= 3 and max_q >= 3:
            counts.set(3, 3, _count_33(graph, obs=obs))
        return counts
