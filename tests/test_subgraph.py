"""Tests for the neighborhood subgraph constructions (Section 4 locality)."""

from __future__ import annotations

import numpy as np

from repro.graph.bigraph import BipartiteGraph, csr_induce_many
from repro.graph.subgraph import (
    edge_neighborhood_graph,
    edge_neighborhood_graphs,
    two_hop_graph,
    two_hop_graphs,
)

from .conftest import complete_bigraph, random_bigraph


def ordered(g: BipartiteGraph) -> BipartiteGraph:
    return g.degree_ordered()[0]


class TestEdgeNeighborhoodGraph:
    def test_complete_graph_first_edge(self):
        g = ordered(complete_bigraph(3, 3))
        local = edge_neighborhood_graph(g, 0, 0)
        # Ordering neighbors of (0, 0): left {1, 2}, right {1, 2}, complete.
        assert local.graph.shape == (2, 2, 4)
        assert local.left_ids == (1, 2)
        assert local.right_ids == (1, 2)

    def test_last_edge_has_empty_neighborhood(self):
        g = ordered(complete_bigraph(3, 3))
        local = edge_neighborhood_graph(g, 2, 2)
        assert local.graph.shape == (0, 0, 0)

    def test_only_ordering_neighbor_edges_included(self):
        # Edges to lower-ranked vertices must not appear.
        g = BipartiteGraph(3, 3, [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2), (0, 1)])
        g = ordered(g)
        u, v = 0, g.neighbors_left(0)[0]
        local = edge_neighborhood_graph(g, u, v)
        for new_u, old_u in enumerate(local.left_ids):
            assert old_u > u
        for old_v in local.right_ids:
            assert old_v > v

    def test_edges_match_parent(self, rng):
        for _ in range(20):
            g = ordered(random_bigraph(rng))
            for u, v in list(g.edges())[:5]:
                local = edge_neighborhood_graph(g, u, v)
                for lu, lv in local.graph.edges():
                    assert g.has_edge(local.left_ids[lu], local.right_ids[lv])
                # Count edges directly to confirm nothing is missing.
                expected = sum(
                    1
                    for ou in local.left_ids
                    for ov in g.neighbors_left(ou)
                    if ov in set(local.right_ids)
                )
                assert local.num_edges == expected

    def test_biclique_decomposition_identity(self, rng):
        """sum over edges of local (1,1) bicliques == global (2,2) count."""
        from repro.baselines.brute import count_bicliques_brute

        for _ in range(10):
            g = ordered(random_bigraph(rng, 6, 6))
            total = 0
            for u, v in g.edges():
                local = edge_neighborhood_graph(g, u, v)
                total += local.num_edges  # (1,1)-bicliques of the local graph
            assert total == count_bicliques_brute(g, 2, 2) if g.num_edges else True


class TestTwoHopGraph:
    def test_owner_is_local_zero(self, rng):
        for _ in range(20):
            g = ordered(random_bigraph(rng))
            for w in range(g.n_left):
                if not g.degree_left(w):
                    continue
                local = two_hop_graph(g, w)
                assert local.left_ids[0] == w

    def test_right_side_is_neighborhood(self):
        g = ordered(complete_bigraph(3, 4))
        local = two_hop_graph(g, 0)
        assert local.right_ids == g.neighbors_left(0)

    def test_left_side_only_higher_vertices(self, rng):
        for _ in range(20):
            g = ordered(random_bigraph(rng))
            for w in range(g.n_left):
                if not g.degree_left(w):
                    continue
                local = two_hop_graph(g, w)
                assert all(x >= w for x in local.left_ids)

    def test_contains_all_min_rooted_bicliques(self):
        # Every (2,2)-biclique whose min left vertex is w must appear in G_w.
        g = ordered(complete_bigraph(4, 4))
        local = two_hop_graph(g, 0)
        # K44's two-hop graph of vertex 0 is the whole graph.
        assert local.graph.shape == (4, 4, 16)

    def test_isolated_vertex(self):
        g = BipartiteGraph(2, 2, [(1, 0), (1, 1)])
        local = two_hop_graph(g, 0)
        assert local.graph.num_edges == 0


def induced_oracle(g: BipartiteGraph, left_ids, right_ids) -> set:
    """Local edge set of the subgraph induced by two sorted id lists."""
    right_pos = {v: j for j, v in enumerate(right_ids)}
    return {
        (i, right_pos[v])
        for i, u in enumerate(left_ids)
        for v in g.neighbors_left(u)
        if v in right_pos
    }


def assert_consistent_csr(local: BipartiteGraph) -> None:
    """Sorted rows on both sides, and the right CSR mirrors the left."""
    for u in range(local.n_left):
        row = local.neighbors_left(u)
        assert list(row) == sorted(set(row))
    mirrored = {(u, v) for v in range(local.n_right) for u in local.neighbors_right(v)}
    for v in range(local.n_right):
        row = local.neighbors_right(v)
        assert list(row) == sorted(set(row))
    assert mirrored == set(local.edges())


class TestBatchedInduction:
    """Every unit of one batched call equals its set-based oracle,
    whatever the other units in the batch are (empty ones included)."""

    def test_csr_induce_many_matches_oracle(self, rng):
        for _ in range(20):
            g = random_bigraph(rng, 9, 8)
            units = []
            for _ in range(rng.randint(1, 6)):
                left = sorted(rng.sample(range(g.n_left), rng.randint(0, g.n_left)))
                right = sorted(rng.sample(range(g.n_right), rng.randint(0, g.n_right)))
                units.append((left, right))
            left_off = np.cumsum([0] + [len(left) for left, _ in units])
            right_off = np.cumsum([0] + [len(right) for _, right in units])
            locals_ = csr_induce_many(
                g,
                [u for left, _ in units for u in left], left_off,
                [v for _, right in units for v in right], right_off,
            )
            assert len(locals_) == len(units)
            for (left, right), local in zip(units, locals_):
                assert local.shape[:2] == (len(left), len(right))
                assert set(local.edges()) == induced_oracle(g, left, right)
                assert_consistent_csr(local)

    def test_empty_batch(self):
        g = complete_bigraph(2, 2)
        assert csr_induce_many(g, [], [0], [], [0]) == []

    def test_two_hop_graphs_match_oracle(self, rng):
        for _ in range(20):
            g = ordered(random_bigraph(rng, 9, 8, density=0.3))
            ws = sorted(rng.sample(range(g.n_left), rng.randint(1, g.n_left)))
            for w, local in zip(ws, two_hop_graphs(g, ws)):
                right = g.neighbors_left(w)
                left = sorted({w} | {u for v in right for u in g.neighbors_right(v) if u > w})
                assert local.left_ids == tuple(left)
                assert local.right_ids == right
                assert set(local.graph.edges()) == induced_oracle(g, left, right)
                assert_consistent_csr(local.graph)

    def test_edge_neighborhood_graphs_match_oracle(self, rng):
        for _ in range(20):
            g = ordered(random_bigraph(rng, 8, 8))
            edges = list(g.edges())
            if not edges:
                continue
            chosen = rng.sample(edges, min(len(edges), 7))
            for (u, v), local in zip(chosen, edge_neighborhood_graphs(g, chosen)):
                left = [x for x in g.neighbors_right(v) if x > u]
                right = [y for y in g.neighbors_left(u) if y > v]
                assert local.left_ids == tuple(left)
                assert local.right_ids == tuple(right)
                assert set(local.graph.edges()) == induced_oracle(g, left, right)
                assert_consistent_csr(local.graph)
