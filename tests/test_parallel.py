"""Parallel-vs-serial equality and unit tests for the fan-out machinery.

The process-parallel layer is only sound because of Theorem 3.5: every
biclique is counted under exactly one root edge, so partitioning the
roots over workers partitions the count.  These tests pin the resulting
guarantee — any worker count reproduces the serial integers exactly —
on random graphs, bundled datasets, and every public entry point.
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.clustering import hcc_profile
from repro.core.epivoter import CountBudgetExceeded, EPivoter, count_all, count_single
from repro.core.hybrid import hybrid_count_all
from repro.graph.bigraph import BipartiteGraph
from repro.graph.datasets import load_dataset
from repro.obs import MetricsRegistry
from repro.service.planner import GraphProfile
from repro.utils.parallel import (
    GraphPool,
    merge_counts,
    merge_local_counts,
    resolve_workers,
    root_edge_weights,
    run_chunked,
    split_worker_results,
    weighted_ranges,
)

from .conftest import complete_bigraph, random_bigraph

WORKER_COUNTS = (1, 2, 4)


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestChunking:
    """``weighted_ranges`` is the one cut of every fan-out."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 50), max_size=60),
        st.integers(1, 20),
    )
    def test_chunks_partition_the_roots(self, weights, n_ranges):
        ranges = weighted_ranges(weights, n_ranges)
        assert ranges == weighted_ranges(weights, n_ranges)  # deterministic
        assert len(ranges) == min(n_ranges, len(weights))
        # Contiguous, in order, non-empty, covering every index.
        starts = [start for start, _, _ in ranges]
        assert starts == ([0] + [stop for _, stop, _ in ranges])[: len(ranges)]
        assert all(start < stop for start, stop, _ in ranges)
        assert sum(stop - start for start, stop, _ in ranges) == len(weights)
        # Each range reports its (floored-at-1) weight and stays within
        # one item of an equal share.
        floored = [max(1, w) for w in weights]
        for start, stop, weight in ranges:
            assert weight == sum(floored[start:stop])
            assert weight <= sum(floored) / len(ranges) + max(floored)

    def test_chunking_is_deterministic(self, rng):
        # The engine cuts its full edge set once and reuses the cut.
        g = random_bigraph(rng, 7, 7, density=0.5)
        engine = EPivoter(g)
        first = engine.root_ranges(3)
        assert engine.root_ranges(3) is first
        assert first == weighted_ranges(root_edge_weights(engine.graph), 3)

    def test_no_empty_chunks_when_roots_scarce(self):
        g = complete_bigraph(2, 2)
        obs = MetricsRegistry()
        assert count_all(g, workers=8, obs=obs)[2, 2] == 1
        assert obs.gauges["parallel.chunks"] == g.num_edges

    def test_weights_are_nonnegative(self, rng):
        g = random_bigraph(rng, 6, 6, density=0.6)
        ordered = g if g.is_degree_ordered() else g.degree_ordered()[0]
        weights = root_edge_weights(ordered)
        assert (weights >= 0).all()
        assert int(weights.sum()) == GraphProfile.from_graph(ordered).root_cost


class TestMergeHelpers:
    def test_merge_counts_requires_parts(self):
        with pytest.raises(ValueError):
            merge_counts([])

    def test_merge_local_counts_requires_matching_keys(self):
        parts = [
            {(2, 2): ([1], [1])},
            {(3, 3): ([0], [0])},
        ]
        with pytest.raises(ValueError):
            merge_local_counts(parts)

    def test_run_chunked_serial_fallback(self):
        g = BipartiteGraph(1, 1, [(0, 0)])
        assert run_chunked(lambda x: x * 2, [1, 2, 3], 1, g) == [2, 4, 6]

    def test_split_worker_results_without_registry(self):
        parts = [("a", {"wall_time": 0.1}), ("b", None)]
        assert split_worker_results(parts) == ["a", "b"]

    def test_split_worker_results_folds_stats(self):
        obs = MetricsRegistry()
        parts = [
            ("a", {"wall_time": 0.1, "counters": {"nodes": 3}}),
            ("b", {"wall_time": 0.2, "counters": {"nodes": 4}}),
            ("c", None),  # a worker that collected nothing
        ]
        assert split_worker_results(parts, obs) == ["a", "b", "c"]
        assert obs.counters["nodes"] == 7
        # Worker index defaults to the part's position.
        assert [w["worker"] for w in obs.workers] == [0, 1]


class TestCountAllEquality:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_random_graphs(self, rng, workers):
        for _ in range(6):
            g = random_bigraph(rng, 7, 7, density=0.5)
            serial = count_all(g, 6, 6)
            parallel = count_all(g, 6, 6, workers=workers)
            assert parallel == serial

    @pytest.mark.parametrize("name", ["rating-movielens", "Github"])
    def test_bundled_datasets(self, name):
        g = load_dataset(name)
        serial = count_all(g, 4, 4)
        assert count_all(g, 4, 4, workers=2) == serial
        assert count_all(g, 4, 4, workers=4) == serial

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_left_region_respected(self, rng, workers):
        g = random_bigraph(rng, 7, 7, density=0.5)
        ordered = g if g.is_degree_ordered() else g.degree_ordered()[0]
        region = set(range(ordered.n_left // 2))
        serial = EPivoter(ordered).count_all(5, 5, left_region=region)
        parallel = EPivoter(ordered).count_all(
            5, 5, left_region=region, workers=workers
        )
        assert parallel == serial

    def test_tiny_graph_with_many_workers(self):
        # Fewer roots than chunks: must degrade gracefully, not crash.
        g = BipartiteGraph(1, 1, [(0, 0)])
        assert count_all(g, workers=8)[1, 1] == 1

    def test_empty_graph(self):
        counts = count_all(BipartiteGraph(3, 3, []), workers=4)
        assert counts.total() == 0


class TestCountSingleEquality:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 4)])
    def test_random_graphs(self, rng, workers, p, q):
        for _ in range(5):
            g = random_bigraph(rng, 7, 7, density=0.5)
            assert count_single(g, p, q, workers=workers) == count_single(g, p, q)

    @pytest.mark.parametrize("use_core", [True, False])
    def test_core_setting_orthogonal(self, rng, use_core):
        g = random_bigraph(rng, 7, 7, density=0.4)
        serial = count_single(g, 3, 3, use_core=use_core)
        assert count_single(g, 3, 3, use_core=use_core, workers=2) == serial


class TestCountLocalEquality:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_count_local_many(self, rng, workers):
        for _ in range(5):
            g = random_bigraph(rng, 6, 6, density=0.5)
            engine = EPivoter(g)
            pairs = [(1, 1), (2, 2), (3, 2)]
            serial = engine.count_local_many(pairs)
            parallel = engine.count_local_many(pairs, workers=workers)
            assert parallel == serial

    def test_dataset_local_counts(self):
        g = load_dataset("rating-movielens")
        engine = EPivoter(g)
        pairs = [(2, 2), (3, 3)]
        assert engine.count_local_many(pairs, workers=2) == engine.count_local_many(
            pairs
        )


class TestWorkerStatsMerge:
    """Merged per-worker stats must reproduce the serial traversal's."""

    def test_counts_and_merged_counters_equal_serial(self):
        g = load_dataset("Github")
        serial_obs = MetricsRegistry()
        parallel_obs = MetricsRegistry()
        serial = count_all(g, 4, 4, obs=serial_obs)
        parallel = count_all(g, 4, 4, workers=2, obs=parallel_obs)
        assert parallel == serial
        # The chunks partition the root edges, so every epivoter counter
        # folds back to exactly the serial total.  frontier_batches is
        # the one exception: batch geometry (merge/split of pending
        # frontiers) depends on how roots are chunked, so only the tree
        # counters — not the batch count — are chunk-invariant.
        for name, value in serial_obs.counters.items():
            if name == "epivoter.frontier_batches":
                continue
            assert parallel_obs.counters[name] == value, name
        assert (
            parallel_obs.gauges["epivoter.max_stack_depth"]
            == serial_obs.gauges["epivoter.max_stack_depth"]
        )

    def test_worker_entries_sum_to_merged_totals(self):
        g = load_dataset("Github")
        obs = MetricsRegistry()
        count_all(g, 4, 4, workers=2, obs=obs)
        assert obs.workers, "parallel run must record per-worker stats"
        for worker in obs.workers:
            assert worker["wall_time"] >= 0
            assert "nodes_expanded" in worker and "prune_hits" in worker
        assert (
            sum(w["nodes_expanded"] for w in obs.workers)
            == obs.counters["epivoter.nodes_expanded"]
        )
        assert (
            sum(w["roots"] for w in obs.workers)
            == obs.counters["epivoter.roots"]
        )

    def test_serial_run_records_no_worker_entries(self, rng):
        g = random_bigraph(rng, 6, 6, density=0.5)
        obs = MetricsRegistry()
        count_all(g, 4, 4, obs=obs)
        assert obs.workers == []


class TestDownstreamEquality:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_hybrid_count_all(self, workers):
        g = load_dataset("rating-movielens")
        serial = hybrid_count_all(g, h_max=4, samples=500, seed=123)
        parallel = hybrid_count_all(
            g, h_max=4, samples=500, seed=123, workers=workers
        )
        # Same seed: the sampled part is identical, the exact part is
        # integer-merged — the whole matrix must match cell for cell.
        assert list(parallel.items()) == list(serial.items())

    def test_hcc_profile(self):
        g = load_dataset("Github")
        assert hcc_profile(g, h_max=4, workers=2) == hcc_profile(g, h_max=4)


class TestGraphShipping:
    """The pool ships the graph once, not once per chunk (or per call)."""

    @staticmethod
    def _force(mode, monkeypatch):
        """``"pickle"`` makes the shared-memory attempt fail, as on a
        platform without a usable ``/dev/shm``."""
        if mode == "pickle":
            from multiprocessing import shared_memory

            def _no_shm(*_args, **_kwargs):
                raise OSError("no /dev/shm")

            monkeypatch.setattr(shared_memory, "SharedMemory", _no_shm)

    def _run_with_mode(self, mode, monkeypatch):
        self._force(mode, monkeypatch)
        graph = load_dataset("Github")
        obs = MetricsRegistry()
        engine = EPivoter(graph)
        counts = engine.count_all(3, 3, workers=2, obs=obs)
        return engine, counts, obs

    @pytest.mark.parametrize("mode", [None, "pickle"])
    def test_graph_ships_exactly_once_per_pool(self, mode, monkeypatch):
        engine, counts, obs = self._run_with_mode(mode, monkeypatch)
        # More chunks than workers — the whole point: chunks do not
        # re-ship the graph.
        assert obs.gauges["parallel.chunks"] > obs.gauges["parallel.workers"]
        assert obs.counters["parallel.graph_ships"] == 1
        assert obs.counters["parallel.graph_ship_bytes"] == engine.graph.nbytes
        assert counts[2, 2] == count_all(engine.graph)[2, 2]

    def test_ship_mode_counter_reflects_transport(self, monkeypatch):
        _, _, obs_auto = self._run_with_mode(None, monkeypatch)
        _, _, obs_pickle = self._run_with_mode("pickle", monkeypatch)
        assert obs_pickle.counters["parallel.graph_ships_pickle"] == 1
        assert "parallel.graph_ships_pickle" not in obs_auto.counters or (
            "parallel.graph_ships_shm" not in obs_auto.counters
        )
        # Whichever transport, one ship and identical counts.
        assert obs_auto.counters["parallel.graph_ships"] == 1

    @pytest.mark.parametrize("mode", [None, "pickle"])
    def test_transports_agree_on_counts(self, mode, monkeypatch, rng):
        g = random_bigraph(rng, max_left=12, max_right=12, density=0.5)
        serial = count_all(g, 4, 4)
        self._force(mode, monkeypatch)
        parallel = count_all(g, 4, 4, workers=3)
        assert parallel == serial

    def test_workers_report_warmup(self, monkeypatch):
        _, _, obs = self._run_with_mode(None, monkeypatch)
        assert obs.workers
        for stats in obs.workers:
            assert stats["warmup_seconds"] >= 0.0

    def test_worker_graph_requires_installation(self):
        from repro.utils.parallel import worker_graph

        with pytest.raises(RuntimeError, match="no shared graph"):
            worker_graph()

    def test_in_process_path_installs_and_restores(self):
        from repro.utils import parallel as par

        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        seen = run_chunked(_probe_worker_graph, [0, 1], workers=1, graph=g)
        assert seen == [(2, 2, 2), (2, 2, 2)]
        with pytest.raises(RuntimeError):
            par.worker_graph()


class TestSharedDeadline:
    def test_time_budget_is_one_deadline_across_chunks(self):
        # One worker process runs the chunks one after another, so a
        # per-chunk budget would restart the clock for every chunk and
        # never trip; the shared deadline trips halfway through.
        engine = EPivoter(load_dataset("Twitter"))
        run = dict(use_core=False, workers=2)
        with GraphPool(engine.graph, 1) as pool:
            engine.count_single(3, 3, pool=pool, **run)  # warm the worker
            unbudgeted = []
            for _ in range(2):
                start = time.perf_counter()
                engine.count_single(3, 3, pool=pool, **run)
                unbudgeted.append(time.perf_counter() - start)
            with pytest.raises(CountBudgetExceeded):
                engine.count_single(
                    3, 3, pool=pool, time_budget=min(unbudgeted) / 2, **run
                )


def _probe_worker_graph(_payload):
    from repro.utils.parallel import worker_graph

    g = worker_graph()
    return (g.n_left, g.n_right, g.num_edges)


def _sigterm_is_default(_payload):
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestWorkerSignals:
    def test_workers_die_on_sigterm_when_the_parent_catches_it(self):
        """A server routes SIGTERM to KeyboardInterrupt; its forked pool
        workers must not inherit that, or a broken pool's terminate()
        leaves a busy worker running and the executor's join hangs."""
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            with GraphPool(load_dataset("Github"), 2) as pool:
                assert pool.map(_sigterm_is_default, [0, 1]) == [True, True]
        finally:
            signal.signal(signal.SIGTERM, previous)
