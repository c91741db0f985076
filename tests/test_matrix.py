"""Tests for the matrix engine: closed-form exact counts for small (p, q).

The correctness contract is bit-equality with EPivoter (and the brute
oracle on tiny graphs) on every supported cell: random ER graphs,
power-law Chung–Lu graphs, and all eight golden datasets.  The engine
must be exact *integers* throughout — no float leakage.
"""

from __future__ import annotations

import pytest

from repro.baselines.brute import count_bicliques_brute
from repro.core.epivoter import count_single
from repro.core.matrix import (
    MATRIX_MAX_P,
    MATRIX_MAX_Q,
    matrix_count_all,
    matrix_count_single,
    matrix_supported,
)
from repro.graph.bigraph import BipartiteGraph
from repro.graph.datasets import load_dataset

from .conftest import complete_bigraph, random_bigraph
from .test_golden_counts import GOLDEN

SMALL_CELLS = [(p, q) for p in range(1, 4) for q in range(1, 4)]


class TestSupportMatrix:
    def test_supported_shapes(self):
        for p, q in SMALL_CELLS:
            assert matrix_supported(p, q)
        assert matrix_supported(2, 50) and matrix_supported(50, 2)
        assert matrix_supported(1, 100) and matrix_supported(100, 1)
        assert not matrix_supported(4, 4)
        assert not matrix_supported(3, 4) and not matrix_supported(4, 3)
        assert not matrix_supported(0, 2) and not matrix_supported(2, -1)

    def test_unsupported_shape_raises(self, rng):
        g = random_bigraph(rng, 5, 5)
        with pytest.raises(ValueError):
            matrix_count_single(g, 4, 4)
        with pytest.raises(ValueError):
            matrix_count_all(g, MATRIX_MAX_P + 1, MATRIX_MAX_Q)


class TestAgainstEPivoter:
    def test_random_er_sweep(self, rng):
        for _ in range(25):
            g = random_bigraph(rng, 8, 8)
            for p, q in SMALL_CELLS:
                value = matrix_count_single(g, p, q)
                assert isinstance(value, int)
                assert value == count_single(g, p, q), (p, q)

    def test_power_law_sweep(self):
        from repro.graph.generators import chung_lu_bipartite

        for seed in range(4):
            g = chung_lu_bipartite(40, 40, 160, seed=seed)
            for p, q in SMALL_CELLS:
                assert matrix_count_single(g, p, q) == count_single(g, p, q), (
                    p,
                    q,
                )

    def test_wide_shallow_shapes(self, rng):
        # min(p, q) == 2 with a large opposite side exercises the fold
        # at high k, where naive int64 arithmetic would overflow first.
        g = complete_bigraph(4, 30)
        for q in (5, 10, 25):
            assert matrix_count_single(g, 2, q) == count_bicliques_brute(g, 2, q)
        g = complete_bigraph(30, 4)
        for p in (5, 10, 25):
            assert matrix_count_single(g, p, 2) == count_bicliques_brute(g, p, 2)

    def test_count_all_matches_count_single(self, rng):
        for _ in range(10):
            g = random_bigraph(rng, 8, 8)
            counts = matrix_count_all(g)
            for p, q, value in counts.items():
                assert value == count_single(g, p, q), (p, q)

    def test_side_symmetry(self, rng):
        for _ in range(10):
            g = random_bigraph(rng, 8, 8)
            swapped = g.swap_sides()
            for p, q in SMALL_CELLS:
                assert matrix_count_single(g, p, q) == matrix_count_single(
                    swapped, q, p
                ), (p, q)

    def test_empty_and_degenerate_graphs(self):
        empty = BipartiteGraph(4, 5, [])
        for p, q in SMALL_CELLS:
            assert matrix_count_single(empty, p, q) == 0
        single_edge = BipartiteGraph(1, 1, [(0, 0)])
        assert matrix_count_single(single_edge, 1, 1) == 1
        assert matrix_count_single(single_edge, 2, 2) == 0
        assert matrix_count_single(single_edge, 3, 3) == 0


class TestGoldenDatasets:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_all_small_cells_bit_identical(self, name):
        graph = load_dataset(name)
        for p, q in SMALL_CELLS:
            value = matrix_count_single(graph, p, q)
            assert isinstance(value, int)
            assert value == GOLDEN[name][(p, q)], (name, p, q)

    @pytest.mark.parametrize("name", ["DBLP", "Github"])
    def test_count_all_bit_identical(self, name):
        graph = load_dataset(name)
        counts = matrix_count_all(graph)
        for p, q, value in counts.items():
            assert value == GOLDEN[name][(p, q)], (name, p, q)
