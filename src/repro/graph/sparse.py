"""Sparse-matrix views of the CSR graph core (the scipy bridge).

The :class:`~repro.graph.bigraph.BipartiteGraph` already *is* a pair of
CSR matrices — four flat int64 buffers.  This module wraps those buffers
as :mod:`scipy.sparse` matrices **without iterating edges**: the
biadjacency matrix ``A`` is built straight from ``csr_buffers()`` via
``np.frombuffer`` (zero-copy into numpy), and the co-neighborhood *pair
matrix* ``M = A @ A.T`` (``M[u, u'] = |N(u) ∩ N(u')|``) falls out of one
sparse product.  Closed-form small-(p, q) counts are binomial sums over
``M``'s entries — see :mod:`repro.core.matrix` and
:mod:`repro.graph.butterflies` for the formulas.

Exactness contract: matrix products stay in int64 (entries are bounded
by max degree, far from overflow), and :func:`binomial_sum` folds the
entries through a ``bincount`` histogram so each binomial coefficient is
evaluated once per *distinct* value as an exact Python integer — the
result is always an exact ``int``, never a float.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.graph.bigraph import LEFT, RIGHT
from repro.graph.intersect import as_int64
from repro.utils.combinatorics import binomial

if TYPE_CHECKING:
    from repro.graph.bigraph import BipartiteGraph

__all__ = [
    "biadjacency",
    "pair_matrix",
    "pair_work",
    "binomial_sum",
    "overlap_histogram",
    "histogram_binomial_fold",
]


def biadjacency(graph: "BipartiteGraph") -> "sp.csr_matrix":
    """The ``n_left x n_right`` biadjacency matrix ``A`` with int64 ones.

    Built directly from the graph's left CSR buffers — no edge
    iteration, no re-sorting, no validation.  Row ``u`` of ``A`` is
    ``N(u)`` and the nonzero order coincides with the edge-id space, so
    ``A.data[k]`` corresponds to ``graph.edge_at(k)`` whenever the data
    array is aligned with ``A.indices`` (it is, by construction).
    """
    indptr_l, indices_l, _, _ = graph.csr_buffers()
    return sp.csr_matrix(
        (
            np.ones(graph.num_edges, dtype=np.int64),
            as_int64(indices_l),
            as_int64(indptr_l),
        ),
        shape=(graph.n_left, graph.n_right),
    )


def pair_matrix(graph: "BipartiteGraph", side: int = LEFT) -> "sp.csr_matrix":
    """The co-neighborhood pair matrix of one side, diagonal included.

    ``side=LEFT`` returns ``M = A @ A.T`` (``n_left x n_left``) with
    ``M[u, u'] = |N(u) ∩ N(u')|`` and ``M[u, u] = d(u)``; ``side=RIGHT``
    returns the transpose-side twin ``A.T @ A`` over right-vertex pairs.
    Entries are int64 intersection sizes — exact by construction.
    """
    if side == LEFT:
        adjacency = biadjacency(graph)
        result = adjacency @ adjacency.T
    elif side == RIGHT:
        adjacency = biadjacency(graph.swap_sides())
        result = adjacency @ adjacency.T
    else:
        raise ValueError("side must be LEFT (0) or RIGHT (1)")
    result.sort_indices()
    return result


def pair_work(graph: "BipartiteGraph", side: int = LEFT) -> int:
    """Multiply-add cost of building :func:`pair_matrix` for ``side``.

    ``M = A @ A.T`` touches each right vertex's neighbor list once per
    neighbor, so the work (and an upper bound on ``M``'s stored entry
    count) is ``sum_v d(v)^2`` over the *opposite* side's degrees.  Pure
    Python over the cached degree lists — no matrix is built, which is
    what lets the service planner price the fast path from a
    :class:`~repro.service.planner.GraphProfile`.
    """
    if side == LEFT:
        degrees = graph.degrees_right()
    elif side == RIGHT:
        degrees = graph.degrees_left()
    else:
        raise ValueError("side must be LEFT (0) or RIGHT (1)")
    return sum(d * d for d in degrees)


def binomial_sum(values: "np.ndarray", k: int) -> int:
    """Exact ``sum(C(v, k) for v in values)`` as a Python integer.

    ``values`` is an int64 array of small non-negative integers (pair
    matrix entries, bounded by max degree).  The sum runs over a
    ``bincount`` histogram: one exact :func:`math.comb` per *distinct*
    value, multiplied by its multiplicity as Python ints — no int64
    overflow is possible no matter how large the binomials get.
    """
    if values.size == 0:
        return 0
    relevant = values[values >= k]
    if relevant.size == 0:
        return 0
    histogram = np.bincount(relevant)
    return sum(
        int(multiplicity) * binomial(value, k)
        for value, multiplicity in enumerate(histogram)
        if multiplicity
    )


def overlap_histogram(graph: "BipartiteGraph", side: int = LEFT) -> dict[int, int]:
    """Histogram ``{m: #unordered same-side pairs with |N ∩ N| == m}``.

    Only pairs with a non-empty overlap appear (``m >= 1``); the
    diagonal (a vertex with itself) is excluded.  This is the summary
    the incremental mutation totals maintain per edge — every ``p == 2``
    closed form is ``sum(count * C(m, q))`` over this histogram, so the
    incremental and from-scratch paths share one data shape.

    The histogram is a ``bincount`` over the pair matrix's stored
    entries minus the diagonal.
    """
    if side == LEFT:
        degrees = graph.degrees_left
    elif side == RIGHT:
        degrees = graph.degrees_right
    else:
        raise ValueError("side must be LEFT (0) or RIGHT (1)")
    pairs = pair_matrix(graph, side)
    counts = np.bincount(pairs.data) if pairs.data.size else np.zeros(1, np.int64)
    histogram = {
        int(m): int(c) for m, c in enumerate(counts) if c and m >= 1
    }
    # Stored diagonal entries are the degrees (only d >= 1 vertices
    # have a stored entry); strip them, then halve the symmetry.
    for d in degrees():
        if d >= 1:
            histogram[d] -= 1
            if not histogram[d]:
                del histogram[d]
    return {m: c // 2 for m, c in histogram.items()}


def histogram_binomial_fold(histogram: dict[int, int], k: int) -> int:
    """Exact ``sum(count * C(m, k))`` over an overlap/degree histogram."""
    return sum(
        count * binomial(m, k) for m, count in histogram.items() if m >= k
    )
