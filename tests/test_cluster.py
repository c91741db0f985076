"""Sharded cluster serving: exactness, failure handling, degradation.

The in-process twin of the CI ``cluster-smoke`` job: shard servers run
as real HTTP servers on daemon threads, the coordinator is a
:class:`ClusterExecutor` over real :class:`ShardClient` connections, so
everything except process isolation matches production.  Shard "death"
is simulated by stopping the shard server *and* dropping the client's
pooled keep-alive connections (a live pooled connection would keep
being served by its handler thread).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.epivoter import CountBudgetExceeded, EPivoter, count_single
from repro.graph.datasets import load_dataset
from repro.obs import MetricsRegistry
from repro.service.cluster import (
    ClusterExecutor,
    ClusterRegistrationError,
    ShardClient,
)
from repro.service.executor import Query, ServiceExecutor
from repro.service.fingerprint import graph_fingerprint
from repro.service.planner import GraphProfile, plan_query
from repro.service.server import create_server
from repro.utils.parallel import (
    RANGES_PER_WORKER,
    root_edge_weights,
    weighted_ranges,
)

from .conftest import random_bigraph
from .test_golden_counts import GOLDEN


def start_shard(shard: bool = True, **executor_kwargs):
    executor = ServiceExecutor(threads=2, engine_workers=1, **executor_kwargs)
    server = create_server("127.0.0.1", 0, executor, shard=shard)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, executor


def stop_shard(server, executor) -> None:
    server.shutdown()
    server.server_close()
    executor.shutdown(save_cache=False)


@pytest.fixture
def two_shards():
    shards = [start_shard() for _ in range(2)]
    try:
        yield shards
    finally:
        for server, executor in shards:
            stop_shard(server, executor)


@pytest.fixture
def cluster(two_shards):
    obs = MetricsRegistry()
    clients = [
        ShardClient(
            "127.0.0.1", server.server_address[1], timeout=30.0, retries=0
        )
        for server, _ in two_shards
    ]
    executor = ClusterExecutor(
        clients, max_queue=16, threads=2, engine_workers=1, obs=obs
    )
    try:
        yield executor, clients, obs
    finally:
        executor.shutdown(save_cache=False)


def kill_shard(two_shards, clients, index: int) -> None:
    """Simulate a shard dying: server down + pooled connections gone."""
    server, executor = two_shards[index]
    stop_shard(server, executor)
    clients[index].close()


def counters(obs: MetricsRegistry) -> dict:
    return obs.snapshot().get("counters", {})


def post(base: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


# ----------------------------------------------------------------------
# Range primitives
# ----------------------------------------------------------------------


class TestRangePrimitives:
    def test_weighted_ranges_cover_contiguously(self):
        weights = [5, 0, 3, 8, 1, 1, 2, 9, 4, 2]
        ranges = weighted_ranges(weights, 4)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(weights)
        assert all(start < stop for start, stop, _ in ranges)
        assert all(
            ranges[i][1] == ranges[i + 1][0] for i in range(len(ranges) - 1)
        )
        # Range weights are the (floored-at-1) weight sums of their runs.
        adjusted = [max(1, w) for w in weights]
        for start, stop, weight in ranges:
            assert weight == sum(adjusted[start:stop])

    def test_weighted_ranges_clamp_and_degenerate(self):
        assert weighted_ranges([], 4) == []
        # More ranges than edges: one edge per range, all non-empty.
        ranges = weighted_ranges([1, 1, 1], 8)
        assert len(ranges) == 3
        assert [(a, b) for a, b, _ in ranges] == [(0, 1), (1, 2), (2, 3)]
        # A single huge weight cannot starve the others into emptiness.
        ranges = weighted_ranges([1000, 1, 1, 1], 4)
        assert len(ranges) == 4
        assert all(start < stop for start, stop, _ in ranges)

    def test_root_edge_weights_match_scalar(self, rng):
        for _ in range(20):
            graph = random_bigraph(rng)
            if graph.num_edges == 0:
                continue
            ordered = graph.degree_ordered()[0]
            edges = list(ordered.edges())
            # |N^{>v}(u)| * |N^{>u}(v)|, counted straight off the rows.
            brute = [
                sum(1 for y in ordered.row_left(u) if y > v)
                * sum(1 for x in ordered.row_right(v) if x > u)
                for u, v in edges
            ]
            assert root_edge_weights(ordered, edges).tolist() == brute
            assert root_edge_weights(ordered).tolist() == brute
            half = edges[::2]
            assert root_edge_weights(ordered, half).tolist() == brute[::2]

    def test_edges_in_range_matches_edge_at(self, rng):
        for _ in range(20):
            graph = random_bigraph(rng)
            n = graph.num_edges
            assert graph.edges_in_range(0, n) == list(graph.edges())
            if n >= 2:
                lo, hi = sorted(rng.sample(range(n + 1), 2))
                assert graph.edges_in_range(lo, hi) == [
                    graph.edge_at(k) for k in range(lo, hi)
                ]
            # Strict bounds: a mis-cut shard range must fail loudly
            # (silent clamping would drop edges from an exact count).
            with pytest.raises(IndexError):
                graph.edges_in_range(-5, n + 5)
            with pytest.raises(IndexError):
                graph.edges_in_range(n, n + 3)
            if n >= 3:
                assert graph.edges_in_range(3, 3) == []

    def test_count_single_roots_partitions_exactly(self, rng):
        for _ in range(10):
            graph = random_bigraph(rng)
            if graph.num_edges == 0:
                continue
            ordered = graph.degree_ordered()[0]
            engine = EPivoter(ordered)
            weights = root_edge_weights(ordered, list(ordered.edges()))
            ranges = weighted_ranges(weights, 2 * RANGES_PER_WORKER)
            for p, q in [(1, 1), (2, 2), (2, 3), (3, 3)]:
                full = engine.count_single(p, q, use_core=False, workers=1)
                parts = sum(
                    engine.count_single_roots(
                        p, q, ordered.edges_in_range(a, b), workers=1
                    )
                    for a, b, _ in ranges
                )
                assert parts == full

    def test_count_single_roots_validation(self):
        graph = load_dataset("DBLP")
        engine = EPivoter(graph)
        assert engine.count_single_roots(2, 2, [], workers=1) == 0
        with pytest.raises(ValueError):
            engine.count_single_roots(0, 2, [(0, 0)])


# ----------------------------------------------------------------------
# Coordinator exactness
# ----------------------------------------------------------------------


class TestClusterExactness:
    def test_two_shard_scatter_matches_count_single(self, cluster, rng):
        executor, _clients, obs = cluster
        graph = random_bigraph(rng, max_left=12, max_right=12, density=0.5)
        executor.register(graph, name="g")
        for p, q in [(2, 2), (2, 3), (3, 3)]:
            result = executor.execute(
                Query(graph_id="g", kind="count", p=p, q=q, method="epivoter")
            )
            assert result["value"] == count_single(graph, p, q)
            assert result["exact"] is True
            assert result["degraded"] is False
            assert result["shards_used"] == 2
        assert counters(obs)["cluster.scatters"] == 3

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_sweep_two_shards(self, cluster, name):
        """Acceptance: 2-shard scatter/gather is bit-identical to the
        golden single-node counts on every dataset, p, q <= 3."""
        executor, _clients, _obs = cluster
        executor.register(load_dataset(name), name=name)
        for (p, q), expected in GOLDEN[name].items():
            if p > 3 or q > 3:
                continue
            result = executor.execute(
                Query(graph_id=name, kind="count", p=p, q=q, method="epivoter")
            )
            assert result["value"] == expected, (name, p, q)
            assert result["degraded"] is False

    def test_dead_shard_rescatters_exactly(self, cluster, two_shards):
        executor, clients, obs = cluster
        graph = load_dataset("DBLP")
        executor.register(graph, name="dblp")
        kill_shard(two_shards, clients, 1)
        result = executor.execute(
            Query(graph_id="dblp", kind="count", p=2, q=3, method="epivoter")
        )
        assert result["value"] == GOLDEN["DBLP"][(2, 3)]
        assert result["degraded"] is False
        assert result["rescatters"] == 1
        tallies = counters(obs)
        assert tallies["cluster.shard_failures"] == 1
        assert tallies["cluster.rescatters"] == 1
        health = executor.shard_health()
        assert [entry["healthy"] for entry in health] == [True, False]
        assert "unreachable" in health[1]["last_error"]

    def test_coordinator_cache_fronts_the_cluster(self, cluster):
        executor, _clients, obs = cluster
        executor.register(load_dataset("DBLP"), name="dblp")
        query = Query(
            graph_id="dblp", kind="count", p=3, q=3, method="epivoter"
        )
        first = executor.execute(query)
        again = executor.execute(query)
        assert again["value"] == first["value"]
        assert again["cached"] is True
        # One scatter total: the repeat never touched the shards.
        assert counters(obs)["cluster.scatters"] == 1

    def test_estimates_run_locally(self, cluster):
        executor, _clients, obs = cluster
        executor.register(load_dataset("DBLP"), name="dblp")
        result = executor.execute(
            Query(
                graph_id="dblp", kind="estimate", p=2, q=2,
                method="zigzag++", samples=500, seed=7,
            )
        )
        assert result["method"] == "zigzag++"
        assert counters(obs).get("cluster.shard_requests", 0) == 0


# ----------------------------------------------------------------------
# Failure handling and degradation
# ----------------------------------------------------------------------


class TestClusterDegradation:
    def test_stalled_shard_past_deadline_degrades(self, cluster, two_shards):
        """Chaos acceptance: a shard stalls mid-query, the deadline is
        too tight to re-scatter — the answer is a flagged estimate with
        a shard-loss reason, never a wrong exact count."""
        executor, _clients, obs = cluster
        executor.register(load_dataset("DBLP"), name="dblp")
        _, shard_executor = two_shards[1]
        real = shard_executor.shard_count

        def stalling(*args, **kwargs):
            time.sleep(5.0)
            return real(*args, **kwargs)

        shard_executor.shard_count = stalling
        started = time.monotonic()
        result = executor.execute(
            Query(
                graph_id="dblp", kind="count", p=4, q=4,
                method="epivoter", deadline=0.6,
            )
        )
        assert time.monotonic() - started < 4.0  # did not wait out the stall
        assert result["degraded"] is True
        assert "shard loss" in result["reason"]
        assert result["exact"] is False  # (4, 4) fallback is an estimator
        tallies = counters(obs)
        assert tallies["cluster.shard_failures"] == 1
        assert tallies["cluster.degraded"] == 1

    def test_all_shards_dead_degrades(self, cluster, two_shards):
        executor, clients, _obs = cluster
        executor.register(load_dataset("DBLP"), name="dblp")
        kill_shard(two_shards, clients, 0)
        kill_shard(two_shards, clients, 1)
        result = executor.execute(
            Query(graph_id="dblp", kind="count", p=4, q=4, method="epivoter")
        )
        assert result["degraded"] is True
        assert "no surviving shards" in result["reason"]
        assert all(not c.healthy for c in clients)

    def test_shard_budget_exceeded_uses_fallback_not_failure(
        self, cluster, two_shards
    ):
        """A shard reporting budget_exceeded is out of time, not dead:
        the ordinary estimator-fallback path runs and the shard stays
        healthy (no cluster.shard_failures)."""
        executor, clients, obs = cluster
        executor.register(load_dataset("DBLP"), name="dblp")
        _, shard_executor = two_shards[1]

        def exceeded(*args, **kwargs):
            raise CountBudgetExceeded("node budget exceeded (test)")

        shard_executor.shard_count = exceeded
        result = executor.execute(
            Query(
                graph_id="dblp", kind="count", p=4, q=4,
                method="epivoter", deadline=5.0,
            )
        )
        assert result["degraded"] is True
        tallies = counters(obs)
        assert tallies.get("cluster.shard_failures", 0) == 0
        assert tallies["service.budget_exceeded"] == 1
        assert all(c.healthy for c in clients)


# ----------------------------------------------------------------------
# The shard HTTP endpoint
# ----------------------------------------------------------------------


class TestShardEndpoint:
    @pytest.fixture
    def shard_http(self):
        obs = MetricsRegistry()
        server, executor = start_shard(obs=obs)
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", executor, obs
        finally:
            stop_shard(server, executor)

    def _register(self, executor):
        graph = load_dataset("DBLP")
        return executor.register(graph, name="dblp"), graph

    def test_partial_matches_range_count(self, shard_http):
        base, executor, _obs = shard_http
        registered, _graph = self._register(executor)
        half = registered.graph.num_edges // 2
        status, body = post(base, "/v1/shard/count", {
            "graph": "dblp",
            "fingerprint": registered.fingerprint,
            "p": 2, "q": 3,
            "ranges": [[0, half], [half, registered.graph.num_edges]],
        })
        assert status == 200
        assert body["exact"] is True
        assert body["value"] == GOLDEN["DBLP"][(2, 3)]

    def test_partials_are_cached(self, shard_http):
        base, executor, _obs = shard_http
        registered, _graph = self._register(executor)
        body = {
            "graph": "dblp",
            "fingerprint": registered.fingerprint,
            "p": 3, "q": 3,
            "ranges": [[0, 100]],
        }
        before = executor.cache.stats()["misses"]
        status1, doc1 = post(base, "/v1/shard/count", body)
        status2, doc2 = post(base, "/v1/shard/count", body)
        assert status1 == status2 == 200
        assert doc1["value"] == doc2["value"]
        stats = executor.cache.stats()
        assert stats["misses"] == before + 1  # only the first computed
        assert stats["hits"] >= 1

    def test_fingerprint_mismatch_409(self, shard_http):
        base, executor, _obs = shard_http
        self._register(executor)
        status, body = post(base, "/v1/shard/count", {
            "graph": "dblp", "fingerprint": "deadbeef",
            "p": 2, "q": 2, "ranges": [[0, 10]],
        })
        assert status == 409
        assert "fingerprint" in body["error"]

    def test_bad_ranges_400(self, shard_http):
        base, executor, _obs = shard_http
        registered, _graph = self._register(executor)
        for ranges in ([], [[5, 2]], [[-1, 4]], "nope"):
            status, _body = post(base, "/v1/shard/count", {
                "graph": "dblp", "fingerprint": registered.fingerprint,
                "p": 2, "q": 2, "ranges": ranges,
            })
            assert status == 400

    def test_unknown_graph_404(self, shard_http):
        base, _executor, _obs = shard_http
        status, _body = post(base, "/v1/shard/count", {
            "graph": "missing", "fingerprint": "fp",
            "p": 2, "q": 2, "ranges": [[0, 1]],
        })
        assert status == 404

    def test_budget_exceeded_503(self, shard_http):
        base, executor, _obs = shard_http
        registered, _graph = self._register(executor)
        status, body = post(base, "/v1/shard/count", {
            "graph": "dblp", "fingerprint": registered.fingerprint,
            "p": 2, "q": 2,
            "ranges": [[0, registered.graph.num_edges]],
            "node_budget": 1,
        })
        assert status == 503
        assert body["budget_exceeded"] is True

    def test_non_shard_server_404s(self):
        server, executor = start_shard(shard=False)
        host, port = server.server_address[:2]
        try:
            registered = executor.register(load_dataset("DBLP"), name="dblp")
            status, body = post(f"http://{host}:{port}", "/v1/shard/count", {
                "graph": "dblp", "fingerprint": registered.fingerprint,
                "p": 2, "q": 2, "ranges": [[0, 10]],
            })
            assert status == 404
            assert "--shard" in body["error"]
        finally:
            stop_shard(server, executor)

    def test_shard_healthz_reports_role(self, shard_http):
        base, _executor, _obs = shard_http
        status, body = get(base, "/healthz")
        assert status == 200
        assert body["role"] == "shard"


# ----------------------------------------------------------------------
# Registration, planner, coordinator surface
# ----------------------------------------------------------------------


class _WrongFingerprintShard(ShardClient):
    """A stub shard that acknowledges registration with a bogus digest."""

    def __init__(self):
        super().__init__("127.0.0.1", 1)

    def request(self, method, path, body=None, timeout=None):
        return 200, {"fingerprint": "not-the-real-digest"}


class TestClusterRegistration:
    def test_fingerprint_divergence_rejected(self):
        executor = ClusterExecutor(
            [_WrongFingerprintShard()], max_queue=4, threads=1,
            engine_workers=1,
        )
        try:
            with pytest.raises(ClusterRegistrationError, match="fingerprint"):
                executor.register(load_dataset("DBLP"), name="dblp")
            assert executor.graphs() == {}  # nothing registered locally
        finally:
            executor.shutdown(save_cache=False)

    def test_unreachable_shard_rejected(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        executor = ClusterExecutor(
            [ShardClient("127.0.0.1", port, retries=0)],
            max_queue=4, threads=1, engine_workers=1,
        )
        try:
            with pytest.raises(ClusterRegistrationError):
                executor.register(load_dataset("DBLP"), name="dblp")
        finally:
            executor.shutdown(save_cache=False)

    def test_shards_see_same_fingerprint(self, cluster, two_shards):
        executor, _clients, _obs = cluster
        registered = executor.register(load_dataset("DBLP"), name="dblp")
        for _server, shard_executor in two_shards:
            held = shard_executor.graphs()["dblp"]
            assert held.fingerprint == registered.fingerprint
        assert registered.fingerprint == graph_fingerprint(registered.graph)


class TestPlannerShards:
    def test_shards_scale_exact_deadline_feasibility(self):
        profile = GraphProfile(
            n_left=1000, n_right=1000, num_edges=10_000,
            max_degree_left=50, max_degree_right=50,
            root_cost=1_000_000,
            pair_work_left=10**9, pair_work_right=10**9,
        )
        alone = plan_query(profile, "count", 4, 4, deadline=0.5)
        assert alone.method != "epivoter"
        assert alone.degraded is True
        fleet = plan_query(profile, "count", 4, 4, deadline=0.5, shards=32)
        assert fleet.method == "epivoter"
        assert fleet.degraded is False
        with pytest.raises(ValueError):
            plan_query(profile, "count", 2, 2, shards=0)


class TestCoordinatorHTTP:
    def test_healthz_reports_shard_fleet(self, cluster):
        executor, _clients, obs = cluster
        server = create_server("127.0.0.1", 0, executor, obs=obs)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        try:
            status, body = get(f"http://{host}:{port}", "/healthz")
            assert status == 200
            assert body["role"] == "coordinator"
            assert len(body["shards"]) == 2
            assert all(entry["healthy"] for entry in body["shards"])
        finally:
            server.shutdown()
            server.server_close()
