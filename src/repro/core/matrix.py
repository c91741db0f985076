"""Matrix engine: closed-form exact counts for small (p, q) shapes.

The hottest production shapes — butterflies (2, 2) and generally
p, q <= 3 — have closed forms as a handful of sparse products over the
CSR buffers, so they never need the EPivoter enumeration tree.  With
``A`` the biadjacency matrix and ``M = A @ A.T`` the left-side pair
matrix (``M[u, u'] = |N(u) ∩ N(u')|``, ``M[u, u] = d(u)``):

* ``min(p, q) == 1`` — stars: ``sum(C(d, q))`` over the anchoring side's
  degree sequence (no matrix needed);
* ``p == 2`` — every left pair with ``m`` common neighbors closes
  ``C(m, q)`` bicliques, so the count is
  ``(sum_over_stored_entries C(M, q) - sum_u C(d(u), q)) / 2``
  (strip the diagonal, halve the symmetric double count);
* ``q == 2`` — the transpose-side twin over ``A.T @ A``;
* ``(3, 3)`` — an anchored pass: for each left vertex ``u`` (the
  largest of its triple), candidates are ``u' < u`` with
  ``M[u, u'] >= 3``; a 0/1 membership matrix ``B`` of candidates against
  ``N(u)`` gives ``P = B @ B.T`` with
  ``P[c, c'] = |N(c) ∩ N(c') ∩ N(u)|``, and the anchor contributes
  ``sum_{c < c'} C(P[c, c'], 3)``.

Exactness: matrix entries are int64 intersection sizes (bounded by max
degree); binomial folds promote to Python integers per distinct value
(:func:`repro.graph.sparse.binomial_sum`), and the dense ``(3, 3)``
matmul runs in float64, exact for integers below ``2**53`` — far above
any reachable overlap count.  Every cell is bit-identical to EPivoter;
the golden-counts suite pins this.

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
from repro.graph.intersect import as_int64
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
from repro.utils.combinatorics import binomial, stars_side_counts

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

#: Dense membership matrices in the (3, 3) anchored pass are capped at
#: this many cells per anchor; larger anchors fall back to a sparse
#: product at the same exactness.
_DENSE_CELL_CAP = 16_000_000


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


def _count_33(graph: BipartiteGraph, obs: MetricsRegistry = NULL_REGISTRY) -> int:
    """Exact (3, 3)-biclique count via the anchored per-vertex pass."""
    # Anchor on whichever side has the cheaper pair matrix; (3, 3) is
    # symmetric, so counting over the swapped view is the same number.
    if pair_work(graph, LEFT) > pair_work(graph, RIGHT):
        graph = graph.swap_sides()
    pairs = pair_matrix(graph, LEFT)
    indptr_l, indices_l, _, _ = graph.csr_buffers()
    indptr = as_int64(indptr_l)
    indices = as_int64(indices_l)
    pair_indptr, pair_indices, pair_data = pairs.indptr, pairs.indices, pairs.data

    adjacency = None  # built lazily, only if an anchor needs the sparse path
    total = 0
    anchors = 0
    for u in range(graph.n_left):
        cols_u = indices[indptr[u] : indptr[u + 1]]
        if cols_u.size < 3:
            continue
        row = slice(pair_indptr[u], pair_indptr[u + 1])
        row_ids = pair_indices[row]
        row_vals = pair_data[row]
        # The anchor is the largest left vertex of its triple, and any
        # triple member shares >= 3 right vertices with the anchor.
        candidates = row_ids[(row_ids < u) & (row_vals >= 3)]
        if candidates.size < 2:
            continue
        anchors += 1
        if candidates.size * cols_u.size <= _DENSE_CELL_CAP:
            starts = indptr[candidates]
            lengths = indptr[candidates + 1] - starts
            flat_rows = np.repeat(np.arange(candidates.size), lengths)
            within = np.arange(int(lengths.sum())) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            flat = indices[np.repeat(starts, lengths) + within]
            # Membership of each candidate neighbor in N(u): searchsorted
            # against the sorted cols_u, then verify the hit.
            position = np.searchsorted(cols_u, flat)
            clipped = np.minimum(position, cols_u.size - 1)
            hit = cols_u[clipped] == flat
            membership = np.zeros(
                (candidates.size, cols_u.size), dtype=np.float64
            )
            membership[flat_rows[hit], position[hit]] = 1.0
            # float64 matmul is exact here: overlaps are bounded by the
            # max degree, nowhere near 2**53.
            overlaps = (membership @ membership.T).astype(np.int64)
            fold_all = binomial_sum(overlaps.ravel(), 3)
            fold_diag = binomial_sum(np.ascontiguousarray(np.diagonal(overlaps)), 3)
            total += (fold_all - fold_diag) // 2
        else:  # pragma: no cover - exercised only by huge dense anchors
            if adjacency is None:
                adjacency = biadjacency(graph)
            restricted = adjacency[candidates][:, cols_u]
            upper = sp.triu(restricted @ restricted.T, k=1).tocoo()
            total += binomial_sum(upper.data, 3)
    obs.incr("matrix.anchors_33", anchors)
    return total


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
    (``max_p, max_q <= 3``); each pair matrix is built once and folded
    for all the cells that read it.
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
            pairs_left = pair_matrix(graph, LEFT)
            diag = {q: sum(binomial(d, q) for d in degrees_left) for q in range(2, max_q + 1)}
            for q in range(2, max_q + 1):
                counts.set(
                    2, q, (binomial_sum(pairs_left.data, q) - diag[q]) // 2
                )
        if max_p >= 3 and max_q >= 2:
            pairs_right = pair_matrix(graph, RIGHT)
            for p in range(3, max_p + 1):
                diagonal = sum(binomial(d, p) for d in degrees_right)
                counts.set(
                    p, 2, (binomial_sum(pairs_right.data, p) - diagonal) // 2
                )
        if max_p >= 3 and max_q >= 3:
            counts.set(3, 3, _count_33(graph, obs=obs))
        return counts
