"""The batch sampling kernel and the estimators' unit fan-out.

Two bit-identity contracts make seeded estimates reproducible:

1. ``ZigzagDP.sample_batch`` draws the same samples from the same
   generator state however they are split: into blocks of any size, or
   into successive calls (one sample per call is the scalar walk).
2. A ``workers=N`` run equals the serial run cell for cell, for any
   worker count — per-unit RNG streams make the estimate independent of
   chunking.

Uniformity against the definitional zigzag count lives in
``tests/test_dpcount.py``.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait as wait_for_exit

import numpy as np
import pytest

from repro.core.adaptive import adaptive_count
from repro.core.dpcount import ZigzagDP
from repro.core.hybrid import hybrid_count_all
from repro.core.zigzag import SamplingStats, zigzag_count_all, zigzagpp_count_all
from repro.graph.bigraph import BipartiteGraph
from repro.graph.generators import chung_lu_bipartite
from repro.obs import MetricsRegistry
from repro.utils.parallel import GraphPool, worker_graph

WORKER_COUNTS = (1, 2, 4)

ESTIMATORS = (zigzag_count_all, zigzagpp_count_all)


@pytest.fixture(scope="module")
def graph():
    return chung_lu_bipartite(60, 50, 450, seed=11)


def _one_at_a_time(dp, h, k, rng, head=None):
    """``k`` successive single-sample draws: the scalar walk."""
    rows = [dp.sample_batch(h, 1, rng, head) for _ in range(k)]
    lefts = [left[0].tolist() for left, _ in rows]
    rights = [right[0].tolist() for _, right in rows]
    return lefts, rights


class TestSampleBatch:
    """sample_batch is independent of how the draws are split."""

    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("block", [5, 64, 4096])
    def test_matches_scalar_walk(self, graph, h, block):
        dp = ZigzagDP(graph, h)
        k = 40
        lefts, rights = dp.sample_batch(h, k, np.random.default_rng(7), block=block)
        one_block = dp.sample_batch(h, k, np.random.default_rng(7), block=k)
        assert lefts.tolist() == one_block[0].tolist()
        assert rights.tolist() == one_block[1].tolist()
        scalar = _one_at_a_time(dp, h, k, np.random.default_rng(7))
        assert (lefts.tolist(), rights.tolist()) == scalar

    def test_matches_scalar_walk_with_head_range(self, graph):
        dp = ZigzagDP(graph, 2)
        head = dp.head_range_for_left(0)
        if dp.zigzag_count(2, head) == 0:
            pytest.skip("vertex 0 roots no 2-zigzags in this graph")
        lefts, rights = dp.sample_batch(2, 25, np.random.default_rng(3), head)
        scalar = _one_at_a_time(dp, 2, 25, np.random.default_rng(3), head)
        assert (lefts.tolist(), rights.tolist()) == scalar

    def test_stream_interleaves_with_scalar_path(self, graph):
        """A batch of 10 then a batch of 1 equals one batch of 11."""
        dp = ZigzagDP(graph, 2)
        rng = np.random.default_rng(9)
        lefts, rights = dp.sample_batch(2, 10, rng)
        follow = dp.sample_batch(2, 1, rng)
        whole = dp.sample_batch(2, 11, np.random.default_rng(9))
        assert lefts.tolist() + follow[0].tolist() == whole[0].tolist()
        assert rights.tolist() + follow[1].tolist() == whole[1].tolist()

    def test_zero_samples(self, graph):
        dp = ZigzagDP(graph, 2)
        lefts, rights = dp.sample_batch(2, 0, np.random.default_rng(0))
        assert lefts.shape == (0, 2) and rights.shape == (0, 2)

    def test_validation(self, graph):
        dp = ZigzagDP(graph, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dp.sample_batch(0, 1, rng)
        with pytest.raises(ValueError):
            dp.sample_batch(2, -1, rng)
        with pytest.raises(ValueError):
            dp.sample_batch(2, 1, rng, block=0)

    def test_empty_graph_raises(self):
        dp = ZigzagDP(BipartiteGraph(2, 2, []), 2)
        with pytest.raises(ValueError):
            dp.sample_batch(2, 1, np.random.default_rng(0))


class TestParallelEquality:
    """workers=N runs are bit-identical to serial runs, same seed."""

    @pytest.mark.parametrize("estimate", ESTIMATORS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_counts_and_stats(self, graph, estimate, workers):
        serial, serial_stats = estimate(
            graph, h_max=4, samples=500, seed=42, return_stats=True
        )
        parallel, parallel_stats = estimate(
            graph, h_max=4, samples=500, seed=42, return_stats=True, workers=workers
        )
        assert list(parallel.items()) == list(serial.items())
        assert parallel_stats.zigzag_totals == serial_stats.zigzag_totals
        assert parallel_stats.max_hit == serial_stats.max_hit
        assert parallel_stats.samples == serial_stats.samples

    def test_left_region(self, graph):
        ordered = graph if graph.is_degree_ordered() else graph.degree_ordered()[0]
        region = set(range(0, ordered.n_left, 2))
        serial = zigzag_count_all(
            ordered, h_max=3, samples=300, seed=8, left_region=region
        )
        parallel = zigzag_count_all(
            ordered, h_max=3, samples=300, seed=8, left_region=region, workers=2
        )
        assert list(parallel.items()) == list(serial.items())

    def test_hybrid_sampling_pass(self, graph):
        serial = hybrid_count_all(graph, h_max=3, samples=400, seed=123)
        parallel = hybrid_count_all(graph, h_max=3, samples=400, seed=123, workers=2)
        assert list(parallel.items()) == list(serial.items())

    def test_hybrid_all_dense_matches_pure_sampler(self, graph):
        hybrid = hybrid_count_all(graph, h_max=3, samples=400, seed=6, tau=-1.0)
        pure = zigzag_count_all(graph, h_max=3, samples=400, seed=6)
        assert list(hybrid.items()) == list(pure.items())

    def test_adaptive_rounds(self, graph):
        serial = adaptive_count(
            graph, 2, 2, seed=31, initial_samples=100, max_samples=2000
        )
        parallel = adaptive_count(
            graph, 2, 2, seed=31, initial_samples=100, max_samples=2000, workers=2
        )
        assert parallel.estimate == serial.estimate
        assert parallel.rounds == serial.rounds
        assert parallel.samples_used == serial.samples_used


class TestSamplingStatsMerge:
    def test_merge_semantics(self):
        left = SamplingStats(
            zigzag_totals={1: 10.0, 2: 5.0},
            max_hit={(2, 2): 3.0},
            samples={1: 100},
        )
        right = SamplingStats(
            zigzag_totals={2: 7.0},
            max_hit={(2, 2): 5.0, (2, 3): 1.0},
            samples={1: 50, 2: 20},
        )
        merged = left.merge(right)
        assert merged is left
        assert left.zigzag_totals == {1: 10.0, 2: 12.0}
        assert left.max_hit == {(2, 2): 5.0, (2, 3): 1.0}
        assert left.samples == {1: 150, 2: 20}

    def test_merge_is_order_insensitive(self):
        parts = [
            SamplingStats(max_hit={(2, 2): float(v)}, samples={1: v}) for v in (3, 1, 2)
        ]
        forward = SamplingStats()
        for part in parts:
            forward.merge(part)
        backward = SamplingStats()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.max_hit == backward.max_hit
        assert forward.samples == backward.samples


class TestObservability:
    def test_counter_parity_serial_vs_parallel(self, graph):
        serial = MetricsRegistry()
        zigzag_count_all(graph, h_max=3, samples=200, seed=7, obs=serial)
        parallel = MetricsRegistry()
        zigzag_count_all(graph, h_max=3, samples=200, seed=7, obs=parallel, workers=2)
        for key in (
            "zigzag.units",
            "zigzag.dp_table_cells",
            "zigzag.samples_drawn",
            "zigzag.sample_hits",
            "zigzag.sample_misses",
        ):
            assert serial.counters.get(key) == parallel.counters.get(key), key
        assert parallel.counters["parallel.graph_ships"] == 1
        assert parallel.workers, "per-worker stats should be recorded"

    def test_sampling_rate_and_batch_gauges(self, graph):
        obs = MetricsRegistry()
        zigzag_count_all(graph, h_max=3, samples=200, seed=7, obs=obs)
        assert obs.gauges.get("zigzag.samples_per_sec", 0) > 0
        assert obs.gauges.get("zigzag.batch_max_size", 0) >= 1
        assert obs.counters.get("zigzag.sample_batches", 0) >= 1
        assert "zigzag.dp_pass" in obs.timers
        assert "zigzag.sampling_pass" in obs.timers

    def test_dp_built_once_serially(self, graph):
        """The totals pass populates the cache; sampling must not rebuild."""
        obs = MetricsRegistry()
        zigzag_count_all(graph, h_max=3, samples=200, seed=7, obs=obs)
        assert obs.counters["zigzag.dp_cache_misses"] == obs.counters["zigzag.units"]
        assert obs.counters["zigzag.dp_rebuild_cells"] == 0


def _edge_count_payload(payload):
    return worker_graph().num_edges + payload


class TestGraphPool:
    def test_ships_once_across_map_calls(self, graph):
        obs = MetricsRegistry()
        with GraphPool(graph, 2, obs) as pool:
            first = pool.map(_edge_count_payload, [0, 1])
            second = pool.map(_edge_count_payload, [2, 3])
        assert first == [graph.num_edges, graph.num_edges + 1]
        assert second == [graph.num_edges + 2, graph.num_edges + 3]
        assert obs.counters["parallel.graph_ships"] == 1

    def test_concurrent_maps_share_one_restart(self, graph):
        obs = MetricsRegistry()
        payloads = list(range(8))
        with GraphPool(graph, 2, obs) as pool:
            pool.map(_edge_count_payload, [0, 1])  # start the workers
            victim = next(iter(pool._pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            # The sentinel closes when the victim exits.  (join/is_alive
            # would race the executor's own reaping of the same pid.)
            assert wait_for_exit([victim.sentinel], timeout=10)
            with ThreadPoolExecutor(max_workers=6) as threads:
                results = list(threads.map(
                    lambda _: pool.map(_edge_count_payload, payloads),
                    range(6),
                    timeout=120,
                ))
        assert results == [[graph.num_edges + k for k in payloads]] * 6
        assert obs.counters["parallel.pool_restarts"] == 1

    def test_closed_pool_rejects_map(self, graph):
        pool = GraphPool(graph, 2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(_edge_count_payload, [0])
