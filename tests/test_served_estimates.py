"""Served estimates on the resident engine pool.

With ``engine_workers > 1`` the executor runs zigzag, zigzag++ and
hybrid plans on the graph's resident :class:`GraphPool`.  These tests
pin what that may not change: a served seeded estimate equals the
in-process call bit for bit, no pool is opened (and no graph shipped)
per call, a repeat call reads its totals from the memo and builds
only the units it samples, an estimate and an EPivoter count sharing the pool from two threads
both return their serial answers, and a PATCH that closes the pool
under an estimate admitted on the old version leaves its answer as it
was.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.epivoter import EPivoter, count_single
from repro.core.hybrid import hybrid_count_single
from repro.core.zigzag import _estimate_single
from repro.graph.generators import chung_lu_bipartite
from repro.obs import MetricsRegistry
from repro.obs.trace import NULL_TRACE
from repro.service.executor import Query, ServiceExecutor


@pytest.fixture(scope="module")
def graph():
    return chung_lu_bipartite(80, 70, 700, seed=3)


def served(engine_workers: int = 2, threads: int = 2, **kwargs) -> ServiceExecutor:
    return ServiceExecutor(
        threads=threads, engine_workers=engine_workers, obs=MetricsRegistry(),
        **kwargs,
    )


def counters(executor: ServiceExecutor) -> dict:
    return executor._obs.snapshot()["counters"]


def in_process(method: str, graph, p: int, q: int, samples: int, seed: int) -> float:
    ordered = graph.degree_ordered()[0]
    if method == "hybrid":
        return hybrid_count_single(ordered, p, q, samples=samples, seed=seed)
    return _estimate_single(method, ordered, p, q, samples, seed)


class TestPooledEstimates:
    @pytest.mark.parametrize("method,p,q", [
        ("zigzag++", 3, 4), ("zigzag++", 4, 4), ("zigzag", 3, 3),
        ("hybrid", 3, 4), ("hybrid", 4, 3),
    ])
    def test_equal_to_in_process_call(self, graph, method, p, q):
        with served() as ex:
            name = ex.register(graph).name
            for seed in (1, 2):  # a cold call, then a warm one
                query = Query(name, "estimate", p, q, method=method,
                              samples=400, seed=seed)
                result = ex.execute(query)
                assert result["method"] == method
                assert result["value"] == in_process(method, graph, p, q, 400, seed)

    def test_estimates_ship_nothing(self, graph):
        with served() as ex:
            name = ex.register(graph).name
            assert counters(ex)["parallel.graph_ships"] == 1
            for seed, method in enumerate(["zigzag++", "hybrid", "zigzag"] * 2):
                ex.execute(Query(name, "estimate", 3, 4, method=method,
                                 samples=300, seed=seed))
            snapshot = counters(ex)
            assert snapshot["parallel.graph_ships"] == 1
            assert snapshot.get("parallel.pool_restarts", 0) == 0
            # The chunks ran on the workers: their stats came back.
            assert snapshot["zigzag.sample_batches"] > 0
            assert ex._obs.workers

    def test_no_unit_state_survives_a_call(self, graph):
        """The second call's totals come from the memo, so it builds no
        DP for them; every unit it samples is built afresh."""
        with served() as ex:
            name = ex.register(graph).name
            first = Query(name, "estimate", 4, 4, method="zigzag++",
                          samples=500, seed=1)
            ex.execute(first)
            before = counters(ex)
            assert before["zigzag.totals_memo_misses"] > 0
            ex.execute(Query(name, "estimate", 4, 4, method="zigzag++",
                             samples=500, seed=2))
            after = counters(ex)
            assert after["zigzag.totals_memo_misses"] == before["zigzag.totals_memo_misses"]
            assert after["zigzag.totals_memo_hits"] > before.get("zigzag.totals_memo_hits", 0)
            assert after["zigzag.dp_table_cells"] == before["zigzag.dp_table_cells"]
            assert after["zigzag.dp_rebuild_cells"] > before["zigzag.dp_rebuild_cells"]

    def test_budget_fallback_runs_on_the_pool(self):
        """A tripped exact plan's estimator fallback runs on the pool and
        still equals the in-process estimate with the same seed."""
        g = chung_lu_bipartite(40, 40, 500, seed=2)
        with served(nodes_per_second=1e12) as ex:
            name = ex.register(g).name
            result = ex.execute(Query(name, "count", 3, 3, deadline=1e-7, seed=5))
            assert result["degraded"] is True
            assert counters(ex)["service.budget_exceeded"] == 1
            method = result["method"]
            assert method in ("zigzag", "zigzag++", "hybrid")
            assert result["value"] == in_process(
                method, g, 3, 3, result["samples"], 5
            )
            assert counters(ex)["parallel.graph_ships"] == 1

    def test_concurrent_estimate_and_count_share_the_pool(self, graph):
        estimate = Query("g", "estimate", 4, 4, method="zigzag++", samples=600, seed=7)
        exact = Query("g", "count", 4, 4, method="epivoter")
        want = {
            "estimate": in_process("zigzag++", graph, 4, 4, 600, 7),
            "count": count_single(graph, 4, 4),
        }
        with served() as ex:
            ex.register(graph, name="g")
            got = {}
            barrier = threading.Barrier(2)

            def run(label, query):
                barrier.wait()
                got[label] = ex.execute(query)["value"]

            threads = [
                threading.Thread(target=run, args=("estimate", estimate)),
                threading.Thread(target=run, args=("count", exact)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert got == want
            assert counters(ex)["parallel.graph_ships"] == 1


def absent_edge(graph):
    present = set(graph.edges())
    return next(
        (u, v)
        for u in range(graph.n_left)
        for v in range(graph.n_right)
        if (u, v) not in present
    )


class TestEstimatesAcrossPatches:
    """A PATCH closes the pool of the version it retires; estimates
    admitted on that version must still answer it, bit for bit."""

    @pytest.mark.parametrize("method", ["zigzag++", "hybrid"])
    def test_estimate_queued_across_a_patch(self, graph, method):
        release = threading.Event()
        with served(threads=1) as ex:
            name = ex.register(graph).name
            record = ex.graphs()[name]
            held = threading.Event()
            run_plan = ex._execute_plan

            def hold_first(plan, query, registered, trace=NULL_TRACE):
                if query.p == 1:
                    held.set()
                    release.wait(30)
                return run_plan(plan, query, registered, trace=trace)

            ex._execute_plan = hold_first
            try:
                blocker = ex.submit(Query(name, "count", 1, 1))
                assert held.wait(30)
                pending = ex.submit(Query(name, "estimate", 3, 4, method=method,
                                          samples=400, seed=5))
                ex.mutate(name, add_edges=[absent_edge(graph)])
                assert record.pool.closed
            finally:
                release.set()
            blocker.result(timeout=60)
            result = pending.result(timeout=300)
            assert result["fingerprint"] == record.fingerprint
            assert result["value"] == in_process(method, graph, 3, 4, 400, 5)

    @pytest.mark.parametrize("method", ["zigzag++", "hybrid"])
    def test_pool_closed_between_passes(self, graph, method):
        """The PATCH lands after the estimate's first map (zigzag++'s
        totals pass, hybrid's exact sparse half): its next map finds the
        pool closed and the estimate reruns in-process."""
        with served() as ex:
            name = ex.register(graph).name
            pool = ex.graphs()[name].pool
            first_map = pool.map

            def map_then_patch(worker, payloads):
                results = first_map(worker, payloads)
                del pool.map  # later maps see the closed pool
                ex.mutate(name, add_edges=[absent_edge(graph)])
                return results

            pool.map = map_then_patch
            result = ex.execute(Query(name, "estimate", 3, 4, method=method,
                                      samples=400, seed=6))
            assert pool.closed
            assert counters(ex)["service.pool_closed_reruns"] == 1
            assert result["value"] == in_process(method, graph, 3, 4, 400, 6)

    def test_retired_version_opens_no_pool(self, graph):
        """A query admitted on a mutated version that is retired before
        its engine snapshot is built runs in-process: a pool opened on
        the retired record would never be closed."""
        release = threading.Event()
        with served(threads=1) as ex:
            name = ex.register(graph).name
            ex.mutate(name, add_edges=[absent_edge(graph)])
            record = ex.graphs()[name]
            assert record.engine is None and record.pool is None
            held = threading.Event()
            run_plan = ex._execute_plan

            def hold_first(plan, query, registered, trace=NULL_TRACE):
                if query.p == 1:
                    held.set()
                    release.wait(30)
                return run_plan(plan, query, registered, trace=trace)

            ex._execute_plan = hold_first
            try:
                blocker = ex.submit(Query(name, "count", 1, 1))
                assert held.wait(30)
                pending = ex.submit(Query(name, "count", 3, 3, method="epivoter"))
                ex.mutate(name, add_edges=[absent_edge(record.view)])
            finally:
                release.set()
            blocker.result(timeout=60)
            result = pending.result(timeout=300)
            assert result["fingerprint"] == record.fingerprint
            assert record.engine is not None and record.pool is None
            assert result["value"] == EPivoter(record.view).count_single(3, 3)
