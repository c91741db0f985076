"""The mutation subsystem through the service stack.

Covers the executor PATCH path (versioned fingerprints, stale-cache
unservability, compaction), the planner's ``recently_mutated`` signal
and ``delta`` method, multi-worker exactness on mutated views, and the
2-shard cluster propagation protocol.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.epivoter import EPivoter
from repro.graph.bigraph import BipartiteGraph
from repro.obs import MetricsRegistry
from repro.obs.trace import NULL_TRACE
from repro.service.cache import ResultCache
from repro.service.cluster import (
    ClusterExecutor,
    ClusterMutationError,
    ShardClient,
)
from repro.service.executor import Query, ServiceExecutor, UnknownGraph
from repro.service.fingerprint import cache_key
from repro.service.mutation import StaleVersion, UnknownVertices
from repro.service.planner import GraphProfile, plan_query
from repro.service.server import create_server

from .conftest import random_bigraph


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def counters(obs: MetricsRegistry) -> dict:
    return obs.snapshot()["counters"]


def make_graph(rng, n_left=12, n_right=11, density=0.35):
    edges = sorted(
        {
            (rng.randrange(n_left), rng.randrange(n_right))
            for _ in range(int(n_left * n_right * density))
        }
    )
    return BipartiteGraph(n_left, n_right, edges)


def absent_edge(graph):
    present = set(graph.edges())
    return next(
        (u, v)
        for u in range(graph.n_left)
        for v in range(graph.n_right)
        if (u, v) not in present
    )


def flip_edge(graph):
    """One (add_edges, remove_edges) batch toggling a deterministic edge."""
    if (0, 0) in set(graph.edges()):
        return [], [(0, 0)]
    return [(0, 0)], []


# ----------------------------------------------------------------------
# Executor mutation path
# ----------------------------------------------------------------------


class TestExecutorMutate:
    def test_mutate_versions_the_fingerprint(self, rng):
        executor = ServiceExecutor(threads=1, engine_workers=1)
        try:
            graph = make_graph(rng)
            registered = executor.register(graph, name="g")
            base_fp = registered.fingerprint
            response = executor.mutate("g", add_edges=[absent_edge(graph)])
            assert response["version"] == 1
            assert response["base_fingerprint"] == base_fp
            assert response["fingerprint"].startswith(base_fp + "#v1-")
            record = executor.graphs()["g"]
            assert record.fingerprint == response["fingerprint"]
            assert record.version == 1
        finally:
            executor.shutdown(save_cache=False)

    def test_stale_cache_entry_is_unservable(self, rng):
        """The acceptance property: after PATCH, the pre-mutation cache
        entry still physically exists under the old fingerprint key, but
        the new query is keyed under the new fingerprint — the old entry
        is unreachable by construction, not by invalidation."""
        cache = ResultCache(capacity=64)
        executor = ServiceExecutor(threads=1, engine_workers=1, cache=cache)
        try:
            graph = make_graph(rng)
            executor.register(graph, name="g")
            old_fp = executor.graphs()["g"].fingerprint
            query = Query(graph_id="g", kind="count", p=2, q=2)
            first = executor.execute(query)
            assert executor.execute(query)["cached"] is True
            old_key = cache_key(old_fp, "count", 2, 2)
            assert old_key in cache

            present = set(graph.edges())
            edge = next(
                (u, v)
                for u in range(graph.n_left)
                for v in range(graph.n_right)
                if (u, v) not in present
            )
            executor.mutate("g", add_edges=[edge])
            new_fp = executor.graphs()["g"].fingerprint
            assert new_fp != old_fp
            assert old_key in cache  # never purged...
            after = executor.execute(query)
            assert after["cached"] is False  # ...and never served
            assert after["fingerprint"] == new_fp
            rebuilt = BipartiteGraph(
                graph.n_left, graph.n_right, sorted(present | {edge})
            )
            engine = EPivoter(rebuilt)
            assert after["value"] == engine.count_single(2, 2)
            assert first["value"] != after["value"] or True  # value may match
            # The repeat under the new fingerprint caches normally.
            assert executor.execute(query)["cached"] is True
        finally:
            executor.shutdown(save_cache=False)

    def test_delta_plan_serves_pending_overlay(self, rng):
        executor = ServiceExecutor(threads=1, engine_workers=1)
        try:
            graph = make_graph(rng)
            executor.register(graph, name="g")
            adds, removes = flip_edge(graph)
            executor.mutate("g", add_edges=adds, remove_edges=removes)
            assert executor.graphs()["g"].overlay_edges > 0
            result = executor.execute(Query(graph_id="g", kind="count", p=2, q=2))
            assert result["method"] == "delta"
            assert result["exact"] is True
            assert result["maintained"] is True
            view = executor.graphs()["g"].state.view()
            assert result["value"] == EPivoter(view).count_single(2, 2)
        finally:
            executor.shutdown(save_cache=False)

    def test_workers_two_exact_on_mutated_view(self, rng):
        executor = ServiceExecutor(threads=1, engine_workers=2)
        try:
            graph = make_graph(rng, density=0.45)
            executor.register(graph, name="g")
            present = set(graph.edges())
            removals = sorted(present)[:3]
            executor.mutate("g", remove_edges=removals)
            rebuilt = BipartiteGraph(
                graph.n_left, graph.n_right, sorted(present - set(removals))
            )
            for p, q in [(2, 2), (3, 3)]:
                result = executor.execute(
                    Query(graph_id="g", kind="count", p=p, q=q,
                          method="epivoter")
                )
                for workers in (1, 2):
                    expect = EPivoter(rebuilt).count_single(p, q, workers=workers)
                    assert result["value"] == expect
        finally:
            executor.shutdown(save_cache=False)

    @pytest.mark.parametrize("snapshot", [True, False], ids=["snapshot", "no_snapshot"])
    def test_stale_delta_read_answers_its_own_version(self, rng, snapshot):
        """A delta read admitted at version n that runs after a PATCH
        answers version n's exact count, without touching the retired
        record's closed pool and without opening a pool on it."""
        executor = ServiceExecutor(threads=1, engine_workers=2)
        release = threading.Event()
        try:
            graph = make_graph(rng)
            executor.register(graph, name="g")
            if not snapshot:
                # A mutated version has no engine snapshot until a plan
                # needs one.
                adds, removes = flip_edge(graph)
                executor.mutate("g", add_edges=adds, remove_edges=removes)
            record = executor.graphs()["g"]
            assert (record.engine is not None) == snapshot
            assert (record.pool is not None) == snapshot
            expected = EPivoter(record.view).count_single(2, 2)

            # Hold the only worker thread so the read is admitted against
            # `record` and still waits in the queue when the PATCH lands.
            held = threading.Event()
            run_plan = executor._execute_plan

            def hold_first(plan, query, registered, trace=NULL_TRACE):
                if query.p == 1:
                    held.set()
                    release.wait(30)
                return run_plan(plan, query, registered, trace=trace)

            executor._execute_plan = hold_first
            blocker = executor.submit(Query(graph_id="g", kind="count", p=1, q=1))
            assert held.wait(30)
            read = executor.submit(
                Query(graph_id="g", kind="count", p=2, q=2, method="delta")
            )
            executor.mutate("g", add_edges=[absent_edge(record.view)])
            assert executor.graphs()["g"] is not record
            release.set()
            blocker.result(timeout=60)
            result = read.result(timeout=60)
            assert result["value"] == expected
            assert result["maintained"] is False
            assert result["fingerprint"] == record.fingerprint
            if not snapshot:
                assert record.pool is None and record.engine is None
        finally:
            release.set()
            executor.shutdown(save_cache=False)

    def test_compaction_resets_overlay_and_counts(self, rng):
        obs = MetricsRegistry()
        executor = ServiceExecutor(
            threads=1, engine_workers=1, obs=obs, compact_edges=8
        )
        try:
            graph = make_graph(rng)
            executor.register(graph, name="g")
            current = set(graph.edges())
            batch = 0
            while counters(obs).get("graph.compactions", 0) == 0:
                batch += 1
                assert batch < 50, "compaction threshold never crossed"
                u = rng.randrange(graph.n_left)
                v = rng.randrange(graph.n_right)
                if (u, v) in current:
                    executor.mutate("g", remove_edges=[(u, v)])
                    current.discard((u, v))
                else:
                    executor.mutate("g", add_edges=[(u, v)])
                    current.add((u, v))
            record = executor.graphs()["g"]
            assert record.overlay_edges == 0
            assert record.state.overlay.is_identity()
            rebuilt = BipartiteGraph(graph.n_left, graph.n_right, sorted(current))
            result = executor.execute(
                Query(graph_id="g", kind="count", p=2, q=2, method="epivoter")
            )
            assert result["value"] == EPivoter(rebuilt).count_single(2, 2)
            assert counters(obs)["graph.mutations"] == batch
        finally:
            executor.shutdown(save_cache=False)

    def test_error_paths(self, rng):
        executor = ServiceExecutor(threads=1, engine_workers=1)
        try:
            graph = make_graph(rng)
            executor.register(graph, name="g")
            with pytest.raises(UnknownGraph):
                executor.mutate("nope", add_edges=[(0, 0)])
            with pytest.raises(UnknownVertices) as info:
                executor.mutate("g", add_edges=[(graph.n_left + 1, 0)])
            assert info.value.left == [graph.n_left + 1]
            # All-or-nothing: the failed batch left no version bump.
            assert executor.graphs()["g"].version == 0
            with pytest.raises(ValueError):
                executor.mutate("g", add_edges=[(0, True)])
            state = executor.graphs()["g"].state
            state.apply_batch([(0, 0)] if not state.overlay.has_edge(0, 0) else [], [])
            with pytest.raises(StaleVersion):
                state.maintained_count(2, 2, expected_version=state.version + 5)
        finally:
            executor.shutdown(save_cache=False)


# ----------------------------------------------------------------------
# Planner signal
# ----------------------------------------------------------------------


class TestPlannerMutationSignal:
    def profile(self, rng):
        return GraphProfile.from_graph(random_bigraph(rng, 10, 10, density=0.4))

    def test_delta_method_for_maintained_shapes(self, rng):
        profile = self.profile(rng)
        for p, q in [(1, 1), (2, 2), (2, 7), (5, 2)]:
            plan = plan_query(profile, "count", p, q, recently_mutated=True)
            assert plan.method == "delta"
            assert plan.exact is True
        plan = plan_query(profile, "count", 2, 2, recently_mutated=False)
        assert plan.method != "delta"

    def test_forced_delta_validates_shape(self, rng):
        profile = self.profile(rng)
        plan = plan_query(profile, "count", 2, 3, method="delta",
                          recently_mutated=True)
        assert plan.method == "delta"
        with pytest.raises(ValueError):
            plan_query(profile, "count", 3, 3, method="delta")

    def test_mutation_penalty_biases_degradation(self, rng):
        profile = self.profile(rng)
        # A deadline chosen so the exact plan fits normally but not
        # under the 2x mutated penalty: nodes_per_second calibrated to
        # make predicted cost deterministic.
        baseline = plan_query(profile, "count", 3, 3, deadline=1.0,
                              nodes_per_second=50.0)
        mutated = plan_query(profile, "count", 3, 3, deadline=1.0,
                             nodes_per_second=50.0, recently_mutated=True)
        if baseline.degraded:
            assert mutated.degraded  # penalty can only push toward degrading
        if mutated.degraded and not baseline.degraded:
            assert "mutated" in mutated.reason


# ----------------------------------------------------------------------
# Cluster propagation
# ----------------------------------------------------------------------


def start_shard(**kwargs):
    executor = ServiceExecutor(threads=2, engine_workers=1, **kwargs)
    server = create_server("127.0.0.1", 0, executor, shard=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, executor


@pytest.fixture
def cluster():
    shards = [start_shard(compact_edges=16) for _ in range(2)]
    clients = [
        ShardClient("127.0.0.1", server.server_address[1],
                    timeout=30.0, retries=0)
        for server, _ in shards
    ]
    obs = MetricsRegistry()
    coordinator = ClusterExecutor(
        clients, threads=2, engine_workers=1, obs=obs, compact_edges=16
    )
    try:
        yield coordinator, clients, shards, obs
    finally:
        coordinator.shutdown(save_cache=False)
        for server, executor in shards:
            server.shutdown()
            server.server_close()
            executor.shutdown(save_cache=False)


class TestClusterMutation:
    def test_two_shard_sweep_exact_after_propagation(self, cluster, rng):
        coordinator, _clients, _shards, _obs = cluster
        graph = make_graph(rng, density=0.4)
        coordinator.register(graph, name="g")
        current = set(graph.edges())
        for _ in range(8):
            adds, removes = set(), set()
            for _ in range(5):
                u = rng.randrange(graph.n_left)
                v = rng.randrange(graph.n_right)
                if (u, v) in current and (u, v) not in adds:
                    removes.add((u, v))
                elif (u, v) not in current:
                    adds.add((u, v))
            adds -= removes
            response = coordinator.mutate(
                "g", add_edges=sorted(adds), remove_edges=sorted(removes)
            )
            assert response["shards_mutated"] == 2
            current = (current | adds) - removes
            rebuilt = BipartiteGraph(graph.n_left, graph.n_right, sorted(current))
            engine = EPivoter(rebuilt)
            for p, q in [(2, 2), (3, 3)]:
                result = coordinator.execute(
                    Query(graph_id="g", kind="count", p=p, q=q,
                          method="epivoter")
                )
                assert result["value"] == engine.count_single(p, q)
                assert result["degraded"] is False
                assert result["fingerprint"] == response["fingerprint"]

    def test_scatter_ranges_recut_after_mutation(self, cluster, rng):
        coordinator, _clients, _shards, _obs = cluster
        graph = make_graph(rng)
        coordinator.register(graph, name="g")
        coordinator.execute(
            Query(graph_id="g", kind="count", p=2, q=2, method="epivoter")
        )
        fp_before, _ = coordinator._ranges["g"]
        adds, removes = flip_edge(graph)
        coordinator.mutate("g", add_edges=adds, remove_edges=removes)
        coordinator.execute(
            Query(graph_id="g", kind="count", p=2, q=2, method="epivoter")
        )
        fp_after, _ = coordinator._ranges["g"]
        assert fp_after != fp_before
        assert fp_after == coordinator.graphs()["g"].fingerprint

    def test_invalid_batch_never_reaches_shards(self, cluster, rng):
        coordinator, _clients, shards, _obs = cluster
        graph = make_graph(rng)
        coordinator.register(graph, name="g")
        shard_versions = [
            executor.graphs()["g"].version for _, executor in shards
        ]
        with pytest.raises(UnknownVertices):
            coordinator.mutate("g", add_edges=[(graph.n_left + 9, 0)])
        assert [
            executor.graphs()["g"].version for _, executor in shards
        ] == shard_versions
        assert coordinator.graphs()["g"].version == 0

    def test_dead_shard_fails_mutation_cleanly(self, cluster, rng):
        coordinator, clients, shards, _obs = cluster
        graph = make_graph(rng)
        coordinator.register(graph, name="g")
        server, executor = shards[1]
        server.shutdown()
        server.server_close()
        executor.shutdown(save_cache=False)
        clients[1].close()
        with pytest.raises(ClusterMutationError):
            coordinator.mutate("g", add_edges=[(0, 0)])
        # Coordinator did not advance: still serving the old version.
        assert coordinator.graphs()["g"].version == 0
