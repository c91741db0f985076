"""Neighborhood subgraph constructions used by the sampling algorithms.

Two locality structures from Section 4 of the paper:

* the **edge neighborhood graph** ``G'_e`` of an edge ``e(u, v)``: the
  subgraph induced by the ordering neighbors ``N^{>u}(v)`` (left) and
  ``N^{>v}(u)`` (right).  Every biclique whose lexicographically smallest
  edge is ``e`` equals ``({u}, {v})`` plus a biclique of ``G'_e``
  (ZigZag, Algorithm 7);
* the **2-hop subgraph** ``G_w`` of a left vertex ``w`` (Definition 4.8):
  right side ``N(w)``, left side ``{w} ∪ N^{>w}(v) for v in N(w)``.  Every
  biclique whose smallest left vertex is ``w`` lives in ``G_w``
  (ZigZag++, Algorithm 8).

Both builders work directly on the parent's CSR layout, many units at
a time (:func:`edge_neighborhood_graphs`, :func:`two_hop_graphs`; the
one-unit functions are their single-unit case): the local vertex sets
are CSR row slices (already sorted; the 2-hop left sides come from one
``np.unique`` over ``(unit, u)`` keys), and
:func:`~repro.graph.bigraph.csr_induce_many` assembles every unit's
local CSR in one pass — no edge-list detour, no re-sort, no
duplicate-check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.bigraph import BipartiteGraph, csr_induce_many
from repro.graph.intersect import as_int64, exclusive_cumsum, gather_slices

__all__ = [
    "LocalSubgraph",
    "edge_neighborhood_graph",
    "edge_neighborhood_graphs",
    "two_hop_graph",
    "two_hop_graphs",
]


@dataclass(frozen=True)
class LocalSubgraph:
    """A compact local subgraph plus the id maps back to the parent graph.

    ``left_ids[new] = old`` and ``right_ids[new] = old``; relative vertex
    order is preserved, so the parent's degree ordering induces the same
    ordering on local ids (what the zigzag DP requires).
    """

    graph: BipartiteGraph
    left_ids: tuple[int, ...]
    right_ids: tuple[int, ...]

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


def edge_neighborhood_graph(graph: BipartiteGraph, u: int, v: int) -> LocalSubgraph:
    """Build ``G'_e`` for the edge ``e(u, v)`` of a degree-ordered graph.

    The subgraph is induced by ``N^{>u}(v)`` on the left and ``N^{>v}(u)``
    on the right; its edges are exactly the ordering neighbors
    ``\\vec{N}(e(u, v))`` of the paper.  Both sides are single CSR row
    slices of the parent.  The one-edge case of
    :func:`edge_neighborhood_graphs`.
    """
    return edge_neighborhood_graphs(graph, [(u, v)])[0]


def edge_neighborhood_graphs(
    graph: BipartiteGraph, edges: "Sequence[tuple[int, int]]"
) -> "list[LocalSubgraph]":
    """:func:`edge_neighborhood_graph` of every ``(u, v)`` in ``edges``,
    induced together by one :func:`~repro.graph.bigraph.csr_induce_many`."""
    indptr_l, indices_l, indptr_r, indices_r = graph.csr_buffers()
    left_lo, left_hi, right_lo, right_hi = [], [], [], []
    for u, v in edges:
        hi = indptr_r[v + 1]
        left_lo.append(bisect_right(indices_r, u, indptr_r[v], hi))
        left_hi.append(hi)
        hi = indptr_l[u + 1]
        right_lo.append(bisect_right(indices_l, v, indptr_l[u], hi))
        right_hi.append(hi)
    return _induce_units(
        graph,
        _row_slices(indices_r, left_lo, left_hi),
        _row_slices(indices_l, right_lo, right_hi),
    )


def two_hop_graph(graph: BipartiteGraph, w: int) -> LocalSubgraph:
    """Build the 2-hop subgraph ``G_w`` of left vertex ``w`` (Def. 4.8).

    Left side: ``{w}`` plus every ``u > w`` adjacent to some ``v`` in
    ``N(w)``; right side: ``N(w)``; edges: all parent edges between the two
    sides.  ``w`` keeps the smallest local left id, so zigzags *starting at
    w* are exactly the local zigzags whose head edge leaves local vertex 0.
    The one-vertex case of :func:`two_hop_graphs`.
    """
    return two_hop_graphs(graph, [w])[0]


def two_hop_graphs(graph: BipartiteGraph, vertices) -> "list[LocalSubgraph]":
    """:func:`two_hop_graph` of every left vertex in ``vertices``.

    Every ``N(w)`` comes from one gather, every 2-hop reach from a second
    one, and every left side from one ``np.unique`` over ``(unit, u)``
    keys; the subgraphs are induced together by
    :func:`~repro.graph.bigraph.csr_induce_many`.
    """
    ws = as_int64(vertices)
    indptr_l, indices_l, indptr_r, indices_r = (
        as_int64(buf) for buf in graph.csr_buffers()
    )
    starts = indptr_l[ws]
    degrees = indptr_l[ws + 1] - starts
    right, right_off = gather_slices(indices_l, starts, degrees)
    starts = indptr_r[right]
    reach = indptr_r[right + 1] - starts
    reached, _ = gather_slices(indices_r, starts, reach)
    owner = np.repeat(np.repeat(np.arange(ws.size, dtype=np.int64), degrees), reach)
    keep = reached >= ws[owner]
    # Keying by unit makes one unique sort every left side at once; w is
    # keyed explicitly so an isolated w still has itself.
    stride = graph.n_left + 1
    keys = np.unique(np.concatenate((
        owner[keep] * stride + reached[keep],
        np.arange(ws.size, dtype=np.int64) * stride + ws,
    )))
    left_unit, left = np.divmod(keys, stride)
    left_off = exclusive_cumsum(np.bincount(left_unit, minlength=ws.size))
    return _induce_units(graph, (left, left_off), (right, right_off))


def _row_slices(indices, starts: list, stops: list) -> "tuple[np.ndarray, np.ndarray]":
    """``indices[starts[k]:stops[k]]`` for every k, as ``(arena, offsets)``."""
    starts = np.asarray(starts, dtype=np.int64)
    return gather_slices(
        as_int64(indices), starts, np.asarray(stops, dtype=np.int64) - starts
    )


def _induce_units(graph: BipartiteGraph, lefts, rights) -> "list[LocalSubgraph]":
    """One :class:`LocalSubgraph` per unit of the ``(arena, offsets)``
    left and right id sets."""
    (left, left_off), (right, right_off) = lefts, rights
    locals_ = csr_induce_many(graph, left, left_off, right, right_off)
    left_ids, right_ids = left.tolist(), right.tolist()
    cuts_l, cuts_r = left_off.tolist(), right_off.tolist()
    return [
        LocalSubgraph(
            local,
            tuple(left_ids[cuts_l[k] : cuts_l[k + 1]]),
            tuple(right_ids[cuts_r[k] : cuts_r[k + 1]]),
        )
        for k, local in enumerate(locals_)
    ]
