"""Tests for the utils package (combinatorics, RNG, timer, max-flow)."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.utils.combinatorics import (
    binomial,
    binomial_row,
    falling_factorial,
    stars_side_counts,
)
from repro.utils.maxflow import DinicMaxFlow
from repro.utils.rng import as_generator, as_seed_sequence, spawn, spawn_sequences
from repro.utils.timer import Stopwatch, timed


class TestBinomial:
    def test_matches_math_comb(self):
        for n in range(0, 20):
            for k in range(0, n + 1):
                assert binomial(n, k) == math.comb(n, k)

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, 0) == 0
        assert binomial(3, -2) == 0

    def test_large_values_exact(self):
        assert binomial(100, 50) == math.comb(100, 50)

    def test_row(self):
        assert binomial_row(5, 7) == [1, 5, 10, 10, 5, 1, 0, 0]

    def test_row_invalid(self):
        with pytest.raises(ValueError):
            binomial_row(-1, 2)

    def test_falling_factorial(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(2, 4) == 0  # crosses zero

    def test_falling_factorial_negative_k(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)

    def test_stars_side_counts(self):
        assert stars_side_counts([2, 3], 2) == 1 + 3
        assert stars_side_counts([], 2) == 0

    def test_stars_negative_size(self):
        with pytest.raises(ValueError):
            stars_side_counts([1], -1)


class TestRng:
    def test_as_generator_from_seed(self):
        g1 = as_generator(5)
        g2 = as_generator(5)
        assert g1.random() == g2.random()

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_none(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_independent_but_reproducible(self):
        children1 = spawn(np.random.default_rng(1), 3)
        children2 = spawn(np.random.default_rng(1), 3)
        assert [c.random() for c in children1] == [c.random() for c in children2]

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn(np.random.default_rng(1), -1)

    @pytest.mark.parametrize("seed", [0, 12345, "generator"])
    def test_lazy_children_equal_spawned(self, seed):
        if seed == "generator":
            lazy = spawn_sequences(np.random.default_rng(3), 40)
            spawned = as_seed_sequence(np.random.default_rng(3)).spawn(40)
        else:
            lazy = spawn_sequences(seed, 40)
            spawned = np.random.SeedSequence(seed).spawn(40)
        assert len(lazy) == 40
        for index in (0, 1, 17, 39):
            assert np.array_equal(
                lazy[index].generate_state(8), spawned[index].generate_state(8)
            )
        with pytest.raises(IndexError):
            lazy[40]

    def test_caller_seed_sequence_keeps_spawn(self):
        root = np.random.SeedSequence(9)
        first = spawn_sequences(root, 3)
        second = spawn_sequences(root, 3)
        assert root.n_children_spawned == 6
        reference = np.random.SeedSequence(9).spawn(6)
        for got, want in zip(list(first) + list(second), reference):
            assert np.array_equal(got.generate_state(4), want.generate_state(4))


class TestTimer:
    def test_stopwatch_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        first = sw.elapsed
        with sw:
            time.sleep(0.01)
        assert sw.elapsed > first > 0

    def test_timed_records(self):
        sink: dict[str, float] = {}
        with timed("block", sink):
            time.sleep(0.005)
        assert sink["block"] > 0

    def test_timed_accumulates_repeated_labels(self):
        # Re-entering the same label must add, not overwrite — a phase
        # total is the sum of every visit to that phase.
        sink: dict[str, float] = {}
        with timed("block", sink):
            time.sleep(0.005)
        first = sink["block"]
        with timed("block", sink):
            time.sleep(0.005)
        assert sink["block"] >= first + 0.005
        assert list(sink) == ["block"]


class TestDinic:
    def test_single_path(self):
        f = DinicMaxFlow(3)
        f.add_edge(0, 1, 4.0)
        f.add_edge(1, 2, 2.0)
        assert f.max_flow(0, 2) == pytest.approx(2.0)

    def test_parallel_paths(self):
        f = DinicMaxFlow(4)
        f.add_edge(0, 1, 3.0)
        f.add_edge(0, 2, 2.0)
        f.add_edge(1, 3, 2.0)
        f.add_edge(2, 3, 3.0)
        assert f.max_flow(0, 3) == pytest.approx(4.0)

    def test_classic_network(self):
        # CLRS figure: max flow 23.
        f = DinicMaxFlow(6)
        for u, v, c in [
            (0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4),
            (1, 3, 12), (3, 2, 9), (2, 4, 14), (4, 3, 7),
            (3, 5, 20), (4, 5, 4),
        ]:
            f.add_edge(u, v, float(c))
        assert f.max_flow(0, 5) == pytest.approx(23.0)

    def test_disconnected(self):
        f = DinicMaxFlow(4)
        f.add_edge(0, 1, 5.0)
        f.add_edge(2, 3, 5.0)
        assert f.max_flow(0, 3) == pytest.approx(0.0)

    def test_min_cut_side(self):
        f = DinicMaxFlow(4)
        f.add_edge(0, 1, 1.0)
        f.add_edge(1, 2, 0.5)
        f.add_edge(2, 3, 1.0)
        f.max_flow(0, 3)
        side = f.min_cut_side(0)
        assert 0 in side and 1 in side and 3 not in side

    def test_same_source_sink_rejected(self):
        f = DinicMaxFlow(2)
        with pytest.raises(ValueError):
            f.max_flow(0, 0)

    def test_negative_capacity_rejected(self):
        f = DinicMaxFlow(2)
        with pytest.raises(ValueError):
            f.add_edge(0, 1, -1.0)

    def test_bad_endpoint_rejected(self):
        f = DinicMaxFlow(2)
        with pytest.raises(IndexError):
            f.add_edge(0, 5, 1.0)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            DinicMaxFlow(0)

    def test_matches_networkx_on_random_graphs(self):
        import networkx as nx
        import random as pyrandom

        r = pyrandom.Random(17)
        for _ in range(10):
            n = r.randint(4, 8)
            nxg = nx.DiGraph()
            f = DinicMaxFlow(n)
            for _ in range(n * 2):
                u, v = r.randrange(n), r.randrange(n)
                if u == v:
                    continue
                c = r.randint(1, 10)
                f.add_edge(u, v, float(c))
                cap = nxg.get_edge_data(u, v, {}).get("capacity", 0) + c
                nxg.add_edge(u, v, capacity=cap)
            if not (nxg.has_node(0) and nxg.has_node(n - 1)):
                continue
            expected = nx.maximum_flow_value(nxg, 0, n - 1)
            assert f.max_flow(0, n - 1) == pytest.approx(expected)
