"""Tests for butterfly counting."""

from __future__ import annotations

from repro.baselines.brute import butterflies_per_edge_brute, count_bicliques_brute
from repro.graph.bigraph import BipartiteGraph
from repro.graph.butterflies import (
    butterflies_per_edge,
    butterflies_per_edge_array,
    butterfly_count,
)

from .conftest import complete_bigraph, random_bigraph


class TestButterflyCount:
    def test_single_butterfly(self):
        g = complete_bigraph(2, 2)
        assert butterfly_count(g) == 1

    def test_complete_graph(self):
        # C(4,2) * C(3,2) = 6 * 3 = 18
        g = complete_bigraph(4, 3)
        assert butterfly_count(g) == 18

    def test_path_has_no_butterflies(self):
        g = BipartiteGraph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
        assert butterfly_count(g) == 0

    def test_empty_graph(self):
        assert butterfly_count(BipartiteGraph(3, 3, [])) == 0

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            g = random_bigraph(rng)
            assert butterfly_count(g) == count_bicliques_brute(g, 2, 2)

    def test_side_symmetry(self, rng):
        for _ in range(20):
            g = random_bigraph(rng)
            assert butterfly_count(g) == butterfly_count(g.swap_sides())


class TestButterfliesPerEdge:
    def test_single_butterfly_edges(self):
        g = complete_bigraph(2, 2)
        per_edge = butterflies_per_edge(g)
        assert per_edge == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_sum_identity(self, rng):
        # Each butterfly contains exactly 4 edges.
        for _ in range(30):
            g = random_bigraph(rng)
            per_edge = butterflies_per_edge(g)
            assert sum(per_edge.values()) == 4 * butterfly_count(g)

    def test_all_edges_present(self, rng):
        for _ in range(10):
            g = random_bigraph(rng)
            per_edge = butterflies_per_edge(g)
            assert set(per_edge) == set(g.edges())

    def test_pendant_edge_zero(self):
        g = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        assert butterflies_per_edge(g)[(2, 2)] == 0


class TestMatrixVsReference:
    """The sparse-matrix per-edge kernels are pinned to the definitional
    counter in :mod:`repro.baselines.brute` (the total is pinned to
    ``count_bicliques_brute`` by ``test_matches_brute_force``)."""

    def test_per_edge_matches_reference(self, rng):
        for _ in range(30):
            g = random_bigraph(rng, 9, 9)
            assert butterflies_per_edge(g) == butterflies_per_edge_brute(g)

    def test_per_edge_array_is_edge_id_order(self, rng):
        for _ in range(10):
            g = random_bigraph(rng, 9, 9)
            values = butterflies_per_edge_array(g)
            reference = butterflies_per_edge_brute(g)
            assert values.shape == (g.num_edges,)
            for k, edge in enumerate(g.edges()):
                assert int(values[k]) == reference[edge]

    def test_empty_graph_array(self):
        assert butterflies_per_edge_array(BipartiteGraph(3, 3, [])).size == 0
