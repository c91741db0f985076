"""Brute-force reference implementations.

These are the test oracle: exponential-time but obviously-correct counters
built directly from the definitions.  Every production algorithm in the
library is validated against them on small random graphs.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.counts import BicliqueCounts
from repro.graph.bigraph import BipartiteGraph
from repro.utils.combinatorics import binomial

__all__ = [
    "count_bicliques_brute",
    "count_all_bicliques_brute",
    "enumerate_maximal_bicliques_brute",
    "count_zigzags_brute",
    "local_counts_brute",
    "butterflies_per_edge_brute",
]


def count_bicliques_brute(graph: BipartiteGraph, p: int, q: int) -> int:
    """Count (p, q)-bicliques by enumerating left ``p``-subsets.

    For every ``p``-subset of left vertices with common neighborhood of
    size ``c``, there are ``C(c, q)`` bicliques.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive; use closed forms for 0")
    total = 0
    for left in combinations(range(graph.n_left), p):
        common = graph.common_neighbors_of_left(left)
        total += binomial(len(common), q)
    return total


def count_all_bicliques_brute(graph: BipartiteGraph, max_p: int, max_q: int) -> BicliqueCounts:
    """All-pairs counts for ``1 <= p <= max_p``, ``1 <= q <= max_q``."""
    counts = BicliqueCounts(max_p, max_q)
    for p in range(1, max_p + 1):
        for left in combinations(range(graph.n_left), p):
            common = graph.common_neighbors_of_left(left)
            c = len(common)
            for q in range(1, min(max_q, c) + 1):
                counts.add(p, q, binomial(c, q))
    return counts


def enumerate_maximal_bicliques_brute(
    graph: BipartiteGraph,
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All maximal bicliques with both sides non-empty.

    A biclique ``(X, Y)`` is maximal iff ``Y = N(X)`` and ``X = N(Y)``.
    Enumerate every non-empty left subset, close it, and keep the closed
    pairs.  Exponential; use only on tiny graphs.
    """
    result: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for size in range(1, graph.n_left + 1):
        for left in combinations(range(graph.n_left), size):
            right = graph.common_neighbors_of_left(left)
            if not right:
                continue
            closed_left = graph.common_neighbors_of_right(right)
            result.add((tuple(sorted(closed_left)), tuple(sorted(right))))
    return result


def count_zigzags_brute(graph: BipartiteGraph, h: int) -> int:
    """Count h-zigzags (Definition 4.1) by explicit DFS over paths.

    The graph must be degree-ordered (integer order == degree order);
    zigzags are ordered simple paths ``u1, v1, ..., uh, vh`` with strictly
    increasing ids on each side and edges ``(u_i, v_i)`` and
    ``(v_i, u_{i+1})``.
    """
    if h < 1:
        raise ValueError("h must be positive")

    def extend(u: int, v: int, remaining: int) -> int:
        # The path currently ends with edge (u, v); `remaining` more
        # (u', v') level pairs must be appended.
        if remaining == 0:
            return 1
        total = 0
        for u_next in graph.higher_neighbors_of_right(v, u):
            for v_next in graph.higher_neighbors_of_left(u_next, v):
                total += extend(u_next, v_next, remaining - 1)
        return total

    return sum(extend(u, v, h - 1) for u, v in graph.edges())


def local_counts_brute(graph: BipartiteGraph, p: int, q: int) -> tuple[list[int], list[int]]:
    """Per-vertex (p, q)-biclique counts, brute force.

    Returns ``(left_counts, right_counts)`` where ``left_counts[u]`` is the
    number of (p, q)-bicliques containing left vertex ``u``.
    """
    left_counts = [0] * graph.n_left
    right_counts = [0] * graph.n_right
    for left in combinations(range(graph.n_left), p):
        common = sorted(graph.common_neighbors_of_left(left))
        for right in combinations(common, q):
            for u in left:
                left_counts[u] += 1
            for v in right:
                right_counts[v] += 1
    return left_counts, right_counts


def butterflies_per_edge_brute(graph: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Butterflies containing each edge, brute force.

    Edge ``(u, v)`` counts the pairs ``(u', v')`` with ``u' != u`` and
    ``v' != v`` that close all four edges.  Every left pair and right
    pair is tried, and each closed square credits its four edges.
    """
    counts = {edge: 0 for edge in graph.edges()}
    for u, u_other in combinations(range(graph.n_left), 2):
        for v, v_other in combinations(range(graph.n_right), 2):
            square = ((u, v), (u, v_other), (u_other, v), (u_other, v_other))
            if all(graph.has_edge(a, b) for a, b in square):
                for edge in square:
                    counts[edge] += 1
    return counts
