"""Frontier-vs-scalar equality: the bit-identity contract of PR 8.

The frontier engine re-expands the *same* enumeration tree as the
scalar walk, batched level-by-level, so everything observable must
match bit-for-bit: the full count matrix, the traversal counters
(nodes, leaves, branch and prune tallies), and the exact node at which
a budget trips.  These tests sweep random models (ER + Chung–Lu), the
golden datasets, and worker counts to pin all three down.
"""

from __future__ import annotations

import random

import pytest

from repro.core.epivoter import CountBudgetExceeded, EPivoter
from repro.graph.datasets import load_dataset
from repro.graph.generators import chung_lu_bipartite, erdos_renyi_bipartite
from repro.obs.registry import MetricsRegistry

from .conftest import complete_bigraph, random_bigraph
from .test_golden_counts import GOLDEN

numpy = pytest.importorskip("numpy")

# Fast-to-count golden datasets used for the parallel sweep; the full
# serial sweep below covers all eight.
PARALLEL_DATASETS = ["DBLP", "rating-movielens", "Github"]


def _random_models(seed: int):
    """One ER and one Chung–Lu instance per seed."""
    rng = random.Random(seed)
    yield random_bigraph(rng, max_left=10, max_right=10)
    yield erdos_renyi_bipartite(20, 16, 0.25, seed=seed)
    yield chung_lu_bipartite(40, 40, 160, seed=seed)


class TestRandomSweep:
    """Seeded ER + Chung–Lu sweep, p,q <= 4, serial and parallel."""

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_bit_identical(self, seed):
        for g in _random_models(seed):
            scalar = EPivoter(g, mode="scalar").count_all(4, 4)
            frontier = EPivoter(g, mode="frontier").count_all(4, 4)
            assert frontier == scalar

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_frontier_matches_serial_scalar(self, workers):
        g = erdos_renyi_bipartite(30, 24, 0.2, seed=workers)
        scalar = EPivoter(g, mode="scalar").count_all(4, 4)
        frontier = EPivoter(g, mode="frontier").count_all(
            4, 4, workers=workers
        )
        assert frontier == scalar

    @pytest.mark.parametrize("seed", range(3))
    def test_traversal_counters_bit_identical(self, seed):
        # Same tree => same roots/nodes/leaves/branch/prune tallies.
        # Only the batch-geometry counters (epivoter.frontier_*) may
        # differ: the scalar engine never emits them.
        for g in _random_models(seed):
            obs_scalar = MetricsRegistry()
            obs_frontier = MetricsRegistry()
            EPivoter(g, mode="scalar").count_all(4, 4, obs=obs_scalar)
            EPivoter(g, mode="frontier").count_all(4, 4, obs=obs_frontier)
            for name, value in obs_scalar.counters.items():
                assert obs_frontier.counters[name] == value, name


class TestGoldenDatasets:
    """All eight golden datasets, frontier serial and parallel."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_frontier_matches_golden_table(self, name):
        graph = load_dataset(name)
        counts = EPivoter(graph, mode="frontier").count_all(4, 4)
        for (p, q), expected in GOLDEN[name].items():
            assert counts[p, q] == expected, (name, p, q)

    @pytest.mark.parametrize("name", PARALLEL_DATASETS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_frontier_matches_golden_table(self, name, workers):
        graph = load_dataset(name)
        counts = EPivoter(graph, mode="frontier").count_all(
            4, 4, workers=workers
        )
        for (p, q), expected in GOLDEN[name].items():
            assert counts[p, q] == expected, (name, p, q)


class TestBudgetEquivalence:
    """Budgets must trip at the same tree size in both engines."""

    def _tree_nodes(self, g, p, q):
        obs = MetricsRegistry()
        EPivoter(g, mode="scalar").count_single(
            p, q, use_core=False, obs=obs
        )
        return obs.counters["epivoter.nodes_expanded"]

    def test_raise_boundary_is_identical(self):
        g = erdos_renyi_bipartite(16, 14, 0.3, seed=17)
        nodes = self._tree_nodes(g, 3, 3)
        assert nodes > 2
        for budget in (1, nodes - 1, nodes, nodes + 1):
            outcomes = []
            for mode in ("scalar", "frontier"):
                try:
                    EPivoter(g, mode=mode).count_single(
                        3, 3, use_core=False, node_budget=budget
                    )
                    outcomes.append("ok")
                except CountBudgetExceeded:
                    outcomes.append("raise")
            assert outcomes[0] == outcomes[1], budget

    @pytest.mark.parametrize("mode", ["scalar", "frontier"])
    def test_tiny_node_budget_trips(self, mode):
        g = complete_bigraph(8, 8)
        with pytest.raises(CountBudgetExceeded):
            EPivoter(g, mode=mode).count_single(
                2, 2, use_core=False, node_budget=3
            )

    @pytest.mark.parametrize("mode", ["scalar", "frontier"])
    def test_zero_time_budget_trips_before_traversal(self, mode):
        g = complete_bigraph(8, 8)
        with pytest.raises(CountBudgetExceeded):
            EPivoter(g, mode=mode).count_single(
                2, 2, use_core=False, time_budget=0.0
            )

    def test_count_local_many_accepts_budgets(self):
        g = complete_bigraph(8, 8)
        engine = EPivoter(g)
        with pytest.raises(CountBudgetExceeded):
            engine.count_local_many([(2, 2)], node_budget=3)
        with pytest.raises(CountBudgetExceeded):
            engine.count_local_many([(2, 2)], time_budget=0.0)
        # Generous budgets leave the result untouched.
        bounded = engine.count_local_many(
            [(2, 2)], node_budget=10**9, time_budget=3600.0
        )
        assert bounded == engine.count_local_many([(2, 2)])

    def test_count_local_many_budget_trips_in_parallel(self):
        g = complete_bigraph(8, 8)
        with pytest.raises(CountBudgetExceeded):
            EPivoter(g).count_local_many(
                [(2, 2)], workers=2, node_budget=3
            )


class TestModeSelection:
    def test_invalid_mode_rejected(self):
        g = complete_bigraph(3, 3)
        with pytest.raises(ValueError):
            EPivoter(g, mode="warp")

    def test_frontier_requires_product_pivot(self):
        g = complete_bigraph(3, 3)
        with pytest.raises(ValueError):
            EPivoter(g, pivot="exact", mode="frontier")

    def test_exact_pivot_auto_falls_back_to_scalar(self):
        g = complete_bigraph(8, 8)
        engine = EPivoter(g, pivot="exact")
        assert not engine._use_frontier()

    def test_auto_uses_frontier_above_threshold(self):
        assert EPivoter(complete_bigraph(8, 8))._use_frontier()
        assert not EPivoter(complete_bigraph(4, 4))._use_frontier()

    def test_frontier_emits_batch_counters(self):
        g = complete_bigraph(8, 8)
        obs = MetricsRegistry()
        EPivoter(g, mode="frontier").count_all(3, 3, obs=obs)
        assert obs.counters["epivoter.frontier_batches"] >= 1
        assert obs.gauges["epivoter.frontier_max_width"] >= 1
        assert obs.gauges["epivoter.arena_bytes"] >= 1


def _spans_named(span, name):
    """Every span called ``name`` in the subtree under ``span``."""
    found = [span] if span.name == name else []
    for child in span.children:
        found.extend(_spans_named(child, name))
    return found


class TestFrontierSpans:
    """``frontier_expand`` splits into its hot sections when traced."""

    SUB_SPANS = {"intersect", "pivot", "ranks", "scatter"}

    def _traced_count(self, monkeypatch, cap):
        from repro.core import frontier
        from repro.obs.trace import Trace

        monkeypatch.setattr(frontier, "_TRACE_SPAN_CAP", cap)
        g = chung_lu_bipartite(120, 100, 900, seed=3)
        trace = Trace()
        engine = EPivoter(g, mode="frontier")
        value = engine.count_single(3, 3, use_core=False, trace=trace)
        assert value == engine.count_single(3, 3, use_core=False)
        (traverse,) = _spans_named(trace.root, "traverse")
        return traverse

    def test_sub_spans_nest_under_each_traced_batch(self, monkeypatch):
        traverse = self._traced_count(monkeypatch, cap=1000)
        expands = _spans_named(traverse, "frontier_expand")
        assert expands and not any(s.attributes.get("aggregated") for s in expands)
        for expand in expands:
            names = [child.name for child in expand.children]
            assert set(names) <= self.SUB_SPANS
            assert len(names) == len(set(names))
            assert sum(c.duration for c in expand.children) <= expand.duration
        assert any(
            {child.name for child in expand.children} == self.SUB_SPANS
            for expand in expands
        )
        replays = [child for child in traverse.children if child.name == "replay"]
        assert len(replays) == 1 and traverse.children[-1] is replays[0]

    def test_batches_past_the_cap_fold_into_one_bare_span(self, monkeypatch):
        traverse = self._traced_count(monkeypatch, cap=1)
        expands = _spans_named(traverse, "frontier_expand")
        assert len(expands) == 2
        first, tail = expands
        assert first.children and tail.attributes["aggregated"] is True
        assert not tail.children
