"""The per-graph exact-totals memo shared by the zigzag estimators.

A unit's exact h-zigzag total depends only on the graph, the unit and
h, so the totals pass memoises it on the ordered graph object.  These
tests pin the contract: a repeat estimate on one graph object returns
the float a freshly built graph returns, its totals pass builds no DP
state, adaptive rounds after the first count no totals, a mutated
version starts from an empty memo, and concurrent estimates on one
graph see only whole entries.
"""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import adaptive_count
from repro.core.hybrid import hybrid_count_all, hybrid_count_single
from repro.core.zigzag import (
    zigzag_count_all,
    zigzag_count_single,
    zigzagpp_count_all,
    zigzagpp_count_single,
)
from repro.graph.bigraph import BipartiteGraph
from repro.graph.generators import chung_lu_bipartite
from repro.obs import MetricsRegistry
from repro.service.executor import Query, ServiceExecutor

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_graph() -> BipartiteGraph:
    """A new degree-ordered graph object (an empty memo) every call."""
    return chung_lu_bipartite(60, 50, 450, seed=11).degree_ordered()[0]


#: Seeded estimates that read or fill the memo, as ``fn(graph, seed, obs)``.
ESTIMATES = {
    "zigzag_single": lambda g, s, obs=None: zigzag_count_single(
        g, 3, 4, samples=300, seed=s),
    "zigzagpp_single_l3": lambda g, s, obs=None: zigzagpp_count_single(
        g, 3, 4, samples=300, seed=s),
    "zigzagpp_single_l4": lambda g, s, obs=None: zigzagpp_count_single(
        g, 4, 4, samples=300, seed=s),
    "zigzag_all": lambda g, s, obs=None: list(zigzag_count_all(
        g, h_max=4, samples=300, seed=s, obs=obs).items()),
    "zigzagpp_all": lambda g, s, obs=None: list(zigzagpp_count_all(
        g, h_max=4, samples=300, seed=s, obs=obs).items()),
    "hybrid_single": lambda g, s, obs=None: hybrid_count_single(
        g, 3, 3, samples=300, seed=s, obs=obs),
    "hybrid_all_pp": lambda g, s, obs=None: list(hybrid_count_all(
        g, h_max=3, samples=300, seed=s, estimator="zigzag++", obs=obs).items()),
    "adaptive_zigzag": lambda g, s, obs=None: adaptive_count(
        g, 3, 3, seed=s, initial_samples=100, max_samples=1600, obs=obs).rounds,
    "adaptive_zigzagpp": lambda g, s, obs=None: adaptive_count(
        g, 4, 4, seed=s, estimator="zigzag++", initial_samples=100,
        max_samples=1600, obs=obs).rounds,
}


class TestRepeatEstimates:
    @pytest.mark.parametrize("name", sorted(ESTIMATES))
    def test_repeat_matches_fresh_graph(self, name):
        estimate = ESTIMATES[name]
        shared = fresh_graph()
        first = estimate(shared, 5)
        estimate(shared, 6)  # another seed on the same graph object
        assert estimate(shared, 5) == first
        assert estimate(fresh_graph(), 5) == first
        assert estimate(fresh_graph(), 6) == estimate(shared, 6)

    @pytest.mark.parametrize("name", ["zigzag_all", "zigzagpp_all", "hybrid_all_pp"])
    def test_repeat_totals_pass_builds_nothing(self, name):
        estimate = ESTIMATES[name]
        shared = fresh_graph()
        cold = MetricsRegistry()
        estimate(shared, 1, cold)
        warm = MetricsRegistry()
        estimate(shared, 2, warm)
        assert cold.counters["zigzag.dp_table_cells"] > 0
        assert cold.counters["zigzag.totals_memo_misses"] == cold.counters["zigzag.units"]
        assert cold.counters["zigzag.totals_memo_hits"] == 0
        assert warm.counters["zigzag.dp_table_cells"] == 0
        assert warm.counters["zigzag.totals_memo_misses"] == 0
        assert warm.counters["zigzag.totals_memo_hits"] == warm.counters["zigzag.units"]

    def test_levels_are_shared_across_max_levels(self):
        """Totals memoised by an all-levels run serve a single-level run:
        a level's total does not depend on the DP's top level."""
        shared = fresh_graph()
        zigzagpp_count_all(shared, h_max=5, samples=200, seed=3)
        obs = MetricsRegistry()
        zigzagpp_count_all(shared, h_max=3, samples=200, seed=4, obs=obs)
        assert obs.counters["zigzag.dp_table_cells"] == 0
        assert zigzagpp_count_single(shared, 3, 4, samples=200, seed=4) == (
            zigzagpp_count_single(fresh_graph(), 3, 4, samples=200, seed=4)
        )

    def test_partial_memo_computes_only_missing_units(self):
        """Hybrid fills the dense region's units only; a full run then
        counts just the rest, and still matches a fresh graph."""
        shared = fresh_graph()
        dense = MetricsRegistry()
        hybrid_count_all(shared, h_max=3, samples=300, seed=2, obs=dense)
        full = MetricsRegistry()
        got = zigzag_count_all(shared, h_max=3, samples=300, seed=2, obs=full)
        filled = dense.counters["zigzag.totals_memo_misses"]
        assert 0 < filled < shared.num_edges
        assert full.counters["zigzag.totals_memo_hits"] == filled
        assert full.counters["zigzag.totals_memo_misses"] == shared.num_edges - filled
        expected = zigzag_count_all(fresh_graph(), h_max=3, samples=300, seed=2)
        assert list(got.items()) == list(expected.items())

    def test_unordered_input_does_not_share(self):
        """An unordered graph is ordered per call, so nothing leaks
        between calls on it and the input object carries no memo."""
        raw = chung_lu_bipartite(60, 50, 450, seed=11)
        assert not raw.is_degree_ordered()
        obs = MetricsRegistry()
        zigzagpp_count_all(raw, h_max=3, samples=200, seed=1)
        zigzagpp_count_all(raw, h_max=3, samples=200, seed=1, obs=obs)
        assert obs.counters["zigzag.totals_memo_hits"] == 0
        assert raw._zigzag_totals is None

    def test_workers_fill_and_read_the_memo(self):
        shared = fresh_graph()
        parallel = zigzagpp_count_all(shared, h_max=4, samples=300, seed=8, workers=2)
        obs = MetricsRegistry()
        repeat = zigzagpp_count_all(
            shared, h_max=4, samples=300, seed=8, workers=2, obs=obs
        )
        serial = zigzagpp_count_all(fresh_graph(), h_max=4, samples=300, seed=8)
        assert list(parallel.items()) == list(serial.items())
        assert list(repeat.items()) == list(serial.items())
        assert obs.counters["zigzag.dp_table_cells"] == 0


class TestAdaptiveRounds:
    @pytest.mark.parametrize("estimator", ["zigzag", "zigzag++"])
    def test_rounds_after_the_first_build_no_totals(self, estimator):
        obs = MetricsRegistry()
        result = adaptive_count(
            fresh_graph(), 3, 3, estimator=estimator, seed=4,
            initial_samples=50, max_samples=3000, obs=obs,
        )
        rounds = obs.counters["adaptive.rounds"]
        assert rounds == len(result.rounds) >= 2
        per_round = obs.counters["zigzag.units"] // rounds
        assert obs.counters["zigzag.totals_memo_misses"] == per_round
        assert obs.counters["zigzag.totals_memo_hits"] == per_round * (rounds - 1)
        one_round = MetricsRegistry()
        adaptive_count(
            fresh_graph(), 3, 3, estimator=estimator, seed=4,
            initial_samples=50, max_samples=50, obs=one_round,
        )
        assert (
            obs.counters["zigzag.dp_table_cells"]
            == one_round.counters["zigzag.dp_table_cells"]
        )


def assert_same_memo(got: BipartiteGraph, want: BipartiteGraph) -> None:
    """Equal memo entries: same keys, filled masks and values."""
    assert got._zigzag_totals.keys() == want._zigzag_totals.keys()
    for key, (values, known) in want._zigzag_totals.items():
        assert np.array_equal(got._zigzag_totals[key][1], known), key
        assert np.array_equal(got._zigzag_totals[key][0], values), key


def run_threads(fn, items):
    """``fn`` over ``items`` on 4 threads (more than the CI's 2 cores)
    with a short switch interval, so publishes interleave with lookups."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as threads:
            return dict(zip(items, threads.map(fn, items, timeout=300)))
    finally:
        sys.setswitchinterval(interval)


class TestConcurrency:
    def test_four_threads_give_the_serial_answers(self):
        seeds = list(range(8))
        serial = {seed: ESTIMATES["zigzagpp_all"](fresh_graph(), seed) for seed in seeds}
        shared = fresh_graph()
        got = run_threads(lambda s: ESTIMATES["zigzagpp_all"](shared, s), seeds)
        assert got == serial
        reference = fresh_graph()
        ESTIMATES["zigzagpp_all"](reference, 0)
        assert_same_memo(shared, reference)

    def test_mixed_kinds_concurrently(self):
        """Threads fill different (kind, level) entries at once; no
        publish is lost and every answer is the serial one."""
        names = ["zigzag_single", "zigzagpp_single_l3", "hybrid_single", "zigzag_all"]
        reference = fresh_graph()
        serial = {name: ESTIMATES[name](fresh_graph(), 9) for name in names}
        for name in names:
            ESTIMATES[name](reference, 9)
        shared = fresh_graph()
        got = run_threads(lambda n: ESTIMATES[n](shared, 9), names)
        assert got == serial
        assert_same_memo(shared, reference)


class TestMutatedVersion:
    def test_patch_recomputes_totals_on_the_new_version(self):
        rng = random.Random(7)
        base = chung_lu_bipartite(40, 35, 260, seed=5)
        obs = MetricsRegistry()
        executor = ServiceExecutor(threads=1, engine_workers=1, obs=obs)
        try:
            executor.register(base, name="g")
            query = Query(
                graph_id="g", kind="estimate", p=3, q=4, method="zigzag++",
                samples=400, seed=3,
            )
            executor.execute(query)
            old_graph = executor.graphs()["g"].graph
            misses = obs.counters["zigzag.totals_memo_misses"]
            assert misses == old_graph.n_left
            present = set(base.edges())
            added = []
            while len(added) < 5:
                edge = (rng.randrange(base.n_left), rng.randrange(base.n_right))
                if edge not in present:
                    present.add(edge)
                    added.append(edge)
            executor.mutate("g", add_edges=added)
            after = executor.execute(query)
            new_graph = executor.graphs()["g"].graph
            assert new_graph is not old_graph
            assert new_graph._zigzag_totals is not old_graph._zigzag_totals
            assert obs.counters["zigzag.totals_memo_misses"] == misses + new_graph.n_left
            rebuilt = BipartiteGraph(base.n_left, base.n_right, sorted(present))
            assert after["value"] == zigzagpp_count_single(
                rebuilt, 3, 4, samples=400, seed=3
            )
        finally:
            executor.shutdown(save_cache=False)


@st.composite
def ordered_graphs(draw, max_side: int = 8):
    n_left = draw(st.integers(1, max_side))
    n_right = draw(st.integers(1, max_side))
    possible = [(u, v) for u in range(n_left) for v in range(n_right)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    return BipartiteGraph(n_left, n_right, edges).degree_ordered()[0]


class TestMemoProperties:
    @SETTINGS
    @given(
        ordered_graphs(),
        st.sampled_from(["zigzag", "zigzag++"]),
        st.integers(2, 3),
        st.integers(0, 2**31 - 1),
    )
    def test_repeat_on_one_object_equals_fresh(self, graph, estimator, h, seed):
        run = zigzag_count_all if estimator == "zigzag" else zigzagpp_count_all
        rebuilt = BipartiteGraph(graph.n_left, graph.n_right, list(graph.edges()))
        run(graph, h_max=h + 1, samples=50, seed=seed ^ 1)  # warm other levels
        warm = run(graph, h_max=h, samples=50, seed=seed)
        fresh = run(rebuilt.degree_ordered()[0], h_max=h, samples=50, seed=seed)
        assert list(warm.items()) == list(fresh.items())
