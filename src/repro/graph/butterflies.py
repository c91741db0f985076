"""Butterfly ((2,2)-biclique) counting.

Butterflies are the smallest non-trivial bicliques and appear throughout
the paper: they weight PSA's priority sampling, and Table 5 reports
per-region butterfly counts to evaluate the partition strategy.

Two implementations live side by side:

* The **matrix kernels** (the implementation) compute everything
  as a handful of sparse products over the CSR buffers, the cache-aware
  formulation of "Efficient Butterfly Counting for Large Bipartite
  Networks":

  - total: with ``M = A @ A.T`` the butterfly count is
    ``sum_{u < u'} C(M[u, u'], 2)`` — evaluated on whichever side has
    the cheaper pair matrix, as exact integers via a histogram fold;
  - per edge: with ``W = (A @ A.T) @ A`` restricted to ``A``'s nonzero
    pattern, edge ``(u, v)`` sits in ``W[u, v] - d(u) - d(v) + 1``
    butterflies (the ``d(u)`` term removes the ``u' = u`` diagonal
    contribution, the ``d(v) - 1`` term removes the shared wedge through
    ``v`` itself).

* The **reference implementations** (``*_reference``) keep the original
  pure-Python wedge loop as the equality oracle the test suite and
  benchmark pin the kernels against.

Both paths return exact Python integers; ``butterflies_per_edge`` is
bit-identical between them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.graph.bigraph import LEFT, RIGHT, BipartiteGraph
from repro.graph.intersect import intersect_size
from repro.graph.sparse import (
    biadjacency,
    histogram_binomial_fold,
    overlap_histogram,
    pair_work,
)
from repro.utils.combinatorics import binomial

__all__ = [
    "butterfly_count",
    "butterfly_count_from_histogram",
    "butterflies_per_edge",
    "butterflies_per_edge_array",
    "butterfly_count_reference",
    "butterflies_per_edge_reference",
]


def butterfly_count_from_histogram(histogram: dict[int, int]) -> int:
    """Butterflies from an off-diagonal overlap histogram.

    ``sum(count * C(m, 2))`` over ``{overlap m: #pairs}`` — the fold the
    mutation subsystem applies to its incrementally maintained totals
    (:class:`repro.service.mutation.DeltaTotals`) and the benchmark uses
    to compare maintained vs recounted butterflies.
    """
    return histogram_binomial_fold(histogram, 2)


def butterfly_count(graph: BipartiteGraph) -> int:
    """Exact number of (2,2)-bicliques in ``graph``.

    One sparse ``A @ A.T`` product on the cheaper side plus a
    histogram fold, exact in integers.
    """
    side = LEFT if pair_work(graph, LEFT) <= pair_work(graph, RIGHT) else RIGHT
    return butterfly_count_from_histogram(overlap_histogram(graph, side))


def butterfly_count_reference(graph: BipartiteGraph) -> int:
    """Pure-Python butterfly count (the retained reference path).

    The standard wedge-counting algorithm in ``O(sum_v d(v)^2)``: every
    pair of vertices with ``c`` common neighbors contributes ``C(c, 2)``
    butterflies.  Wedges are aggregated from the sparser side to keep
    the quadratic factor on the smaller degree sequence.
    """
    sum_sq_left = sum(d * d for d in graph.degrees_left())
    sum_sq_right = sum(d * d for d in graph.degrees_right())
    # Count wedges centered on the side whose degree squares are smaller.
    if sum_sq_right <= sum_sq_left:
        center_range = range(graph.n_right)
        neighbors = graph.neighbors_right
    else:
        center_range = range(graph.n_left)
        neighbors = graph.neighbors_left
    pair_counts: Counter[tuple[int, int]] = Counter()
    for center in center_range:
        adj = neighbors(center)
        for i in range(len(adj)):
            for j in range(i + 1, len(adj)):
                pair_counts[(adj[i], adj[j])] += 1
    return sum(binomial(c, 2) for c in pair_counts.values())


def butterflies_per_edge_array(graph: BipartiteGraph):
    """Per-edge butterfly counts as an int64 array indexed by edge id.

    ``result[k]`` is the butterfly count of ``graph.edge_at(k)`` — the
    natural shape for PSA's vectorised edge weighting.  Matrix path:
    ``W = (A @ A.T) @ A`` masked to ``A``'s nonzero pattern; because
    ``W[u, v] >= d(u) >= 1`` on every edge, the masked matrix has
    exactly ``A``'s pattern and its CSR data aligns with the edge-id
    space after an index sort.
    """
    if graph.num_edges == 0:
        return np.empty(0, dtype=np.int64)
    adjacency = biadjacency(graph)
    wedge_sums = (adjacency @ adjacency.T) @ adjacency
    on_edges = wedge_sums.multiply(adjacency).tocsr()
    on_edges.sort_indices()
    # W[u, v] counts, over u' in N(v), the overlaps |N(u) ∩ N(u')|; the
    # u' = u term contributes d(u) and every other u' counts the shared
    # v itself once (d(v) - 1 in total) — neither is a butterfly.
    indptr_l, indices_l, _, _ = graph.csr_buffers()
    row_lengths = np.diff(np.frombuffer(indptr_l, dtype=np.int64))
    degree_u = np.repeat(
        np.asarray(graph.degrees_left(), dtype=np.int64), row_lengths
    )
    degree_v = np.asarray(graph.degrees_right(), dtype=np.int64)[
        np.frombuffer(indices_l, dtype=np.int64)
    ]
    return np.asarray(on_edges.data, dtype=np.int64) - degree_u - degree_v + 1


def butterflies_per_edge(graph: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Number of butterflies containing each edge ``(u, v)``.

    The butterfly count of edge ``(u, v)`` is the number of pairs
    ``(u', v')`` with ``u' != u``, ``v' != v`` and all four edges present.
    Used as the PSA edge weight.  Thin dict view over
    :func:`butterflies_per_edge_array` (``graph.edges()`` iterates in
    edge-id order, so the zip is the id map).
    """
    values = butterflies_per_edge_array(graph)
    return {edge: int(values[k]) for k, edge in enumerate(graph.edges())}


def butterflies_per_edge_reference(
    graph: BipartiteGraph,
) -> dict[tuple[int, int], int]:
    """Pure-Python per-edge butterfly counts (the retained reference).

    ``sum over u' in N(v)\\{u} of |N(u') ∩ N(u)| - [v in N(u')]`` per
    edge, via the galloping intersection kernel.
    """
    result: dict[tuple[int, int], int] = {}
    # CSR rows are already sorted; hoist them once and let the galloping
    # kernel count overlaps without materialising per-vertex sets.
    rows = [graph.row_left(u) for u in range(graph.n_left)]
    for u, v in graph.edges():
        count = 0
        row_u = rows[u]
        for u_other in graph.neighbors_right(v):
            if u_other == u:
                continue
            # (u, u') share v itself; butterflies need a second shared v'.
            count += intersect_size(row_u, rows[u_other]) - 1
        result[(u, v)] = count
    return result
