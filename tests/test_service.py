"""Tests for the serving layer: cache, planner, and the request executor.

The HTTP layer has its own end-to-end file (``test_service_http.py``);
everything here talks to the components in-process, where concurrency
can be made deterministic (events, stubbed engine runs).
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.core.epivoter import count_single
from repro.graph.bigraph import BipartiteGraph
from repro.obs import MetricsRegistry
from repro.service.cache import ResultCache, key_from_json, key_to_json
from repro.service.executor import (
    Query,
    QueryRejected,
    ServiceExecutor,
    UnknownGraph,
)
from repro.service.fingerprint import cache_key, graph_fingerprint
from repro.service.planner import GraphProfile, plan_query

from .conftest import complete_bigraph, random_bigraph


@pytest.fixture
def graph(rng) -> BipartiteGraph:
    return random_bigraph(rng, 7, 7, density=0.6)


def make_executor(**kwargs) -> ServiceExecutor:
    kwargs.setdefault("obs", MetricsRegistry())
    kwargs.setdefault("engine_workers", 1)
    return ServiceExecutor(**kwargs)


def counter(executor: ServiceExecutor, name: str) -> int:
    return executor._obs.snapshot()["counters"].get(name, 0)


class TestCacheKey:
    def test_params_order_and_none_dropped(self):
        a = cache_key("fp", "count", 2, 3, {"seed": 1, "samples": None})
        b = cache_key("fp", "count", 2, 3, {"samples": None, "seed": 1})
        c = cache_key("fp", "count", 2, 3, {"seed": 1})
        assert a == b == c
        assert cache_key("fp", "count", 2, 3, {"seed": 2}) != a

    def test_json_round_trip(self):
        key = cache_key("fp", "estimate", 4, 5, {"seed": 7, "deadline": 0.5})
        assert key_from_json(key_to_json(key)) == key

    def test_list_valued_params_hashable_and_round_trip(self):
        key = cache_key("fp", "count", 2, 2, {"regions": [1, [2, 3]], "seed": 1})
        hash(key)  # deep-frozen: no TypeError
        assert key_from_json(key_to_json(key)) == key

    def test_fingerprint_matches_graph_method(self, graph):
        assert graph_fingerprint(graph) == graph.content_fingerprint()


class TestResultCache:
    def test_hit_miss_and_lru_eviction(self):
        obs = MetricsRegistry()
        cache = ResultCache(capacity=2, obs=obs)
        k1, k2, k3 = ("a",), ("b",), ("c",)
        cache.put(k1, {"v": 1})
        cache.put(k2, {"v": 2})
        assert cache.get(k1) == {"v": 1}  # refreshes k1 over k2
        cache.put(k3, {"v": 3})  # evicts k2, the LRU entry
        assert cache.get(k2) is None
        assert cache.get(k1) == {"v": 1}
        assert cache.get(k3) == {"v": 3}
        counters = obs.snapshot()["counters"]
        assert counters["service.cache.hits"] == 3
        assert counters["service.cache.misses"] == 1
        assert counters["service.cache.evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(("k",), {"v": 1})
        assert len(cache) == 0
        assert cache.get(("k",)) is None

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(capacity=8, path=path)
        key = cache_key("fp", "count", 2, 2, {"seed": 3})
        cache.put(key, {"value": 42, "exact": True})
        assert cache.save() == 1
        reloaded = ResultCache(capacity=8, path=path)
        assert reloaded.get(key) == {"value": 42, "exact": True}

    def test_load_merges_into_warm_cache(self, tmp_path):
        """A persisted file loaded into an already-warm cache merges:
        file entries overwrite stale twins and land most-recent in LRU
        order, and the warm cache's hit/miss tallies keep counting."""
        path = str(tmp_path / "cache.json")
        donor = ResultCache(capacity=8)
        key_a = cache_key("fp", "count", 2, 2)
        key_b = cache_key("fp", "count", 3, 3)
        donor.put(key_a, {"value": 1})
        donor.put(key_b, {"value": 2})
        assert donor.save(path) == 2

        warm = ResultCache(capacity=3, obs=MetricsRegistry())
        key_c = cache_key("fp", "count", 4, 4)
        warm.put(key_c, {"value": 3})
        warm.put(key_a, {"value": 999})  # stale: the file will overwrite
        assert warm.get(key_c) == {"value": 3}  # LRU now: key_a, key_c

        assert warm.load(path) == 2
        assert len(warm) == 3
        assert warm.get(key_a) == {"value": 1}  # file entry won
        assert warm.get(key_b) == {"value": 2}
        assert warm.get(key_c) == {"value": 3}

        # LRU order after the merge: the file entries were refreshed
        # last, so key_c was the least-recent — until the gets above
        # refreshed everything; key_a is now oldest and evicts first.
        warm.put(cache_key("fp", "count", 5, 5), {"value": 4})
        assert warm.get(key_a) is None
        stats = warm.stats()
        assert stats["hits"] == 4
        assert stats["misses"] == 1
        assert stats["evictions"] == 1

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.json"
        good = ResultCache(capacity=8)
        key = cache_key("fp", "count", 2, 2)
        good.put(key, {"value": 1})
        good.save(str(path))
        text = path.read_text()
        path.write_text("this is not json\n" + text + "[truncated\n")
        reloaded = ResultCache(capacity=8, path=str(path))
        assert len(reloaded) == 1
        assert reloaded.get(key) == {"value": 1}

    def test_list_valued_params_line_does_not_abort_load(self, tmp_path):
        """Regression: a persisted key with a list-valued param used to
        rebuild into an unhashable tuple, and the resulting TypeError from
        ``put`` aborted the whole load — including every later good line."""
        import json

        path = tmp_path / "cache.json"
        listy_raw = ["fp", "estimate", 2, 2, [["regions", [1, 2, 3]]]]
        good_key = cache_key("fp", "count", 2, 2, {"seed": 3})
        lines = [
            json.dumps([listy_raw, {"value": 7}]),
            json.dumps([json.loads(key_to_json(good_key)), {"value": 1}]),
        ]
        path.write_text("\n".join(lines) + "\n")
        reloaded = ResultCache(capacity=8, path=str(path))
        # The good line after the list-valued one must still load...
        assert reloaded.get(good_key) == {"value": 1}
        # ...and the list-valued key is normalised to its frozen form,
        # the same one cache_key would produce for a live query.
        frozen = cache_key("fp", "estimate", 2, 2, {"regions": [1, 2, 3]})
        assert reloaded.get(frozen) == {"value": 7}
        assert len(reloaded) == 2


class TestPlanner:
    @pytest.fixture
    def profile(self, graph):
        ordered = graph.degree_ordered()[0]
        return GraphProfile.from_graph(ordered)

    def test_stars_for_unit_sides(self, profile):
        for kind in ("count", "estimate"):
            plan = plan_query(profile, kind, 1, 4)
            assert plan.method == "stars" and plan.exact

    def test_count_without_deadline_is_exact(self, profile):
        # (4, 4) has no matrix closed form, so the tree walk is chosen.
        plan = plan_query(profile, "count", 4, 4)
        assert plan.method == "epivoter" and plan.exact and not plan.degraded
        assert plan.fallback is not None and plan.fallback.degraded

    def test_count_with_roomy_deadline_arms_budgets(self, profile):
        plan = plan_query(profile, "count", 4, 4, deadline=3600.0)
        assert plan.method == "epivoter"
        assert plan.params["time_budget"] == 3600.0
        assert plan.params["node_budget"] > 0

    def test_count_small_shape_routes_to_matrix(self, profile):
        for p, q in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 7)):
            plan = plan_query(profile, "count", p, q)
            assert plan.method == "matrix", (p, q)
            assert plan.exact and not plan.degraded

    def test_estimate_small_shape_routes_to_matrix(self, profile):
        # An exact closed form trumps any estimator for qualifying shapes
        # when no accuracy budget is given.
        plan = plan_query(profile, "estimate", 2, 2, samples=500, seed=5)
        assert plan.method == "matrix" and plan.exact

    def test_matrix_guard_falls_back_to_epivoter(self, profile):
        from dataclasses import replace as dc_replace

        # A pair matrix priced beyond the density guard must not be
        # materialised: the planner reverts to the tree walk.
        dense = dc_replace(
            profile, pair_work_left=10**9, pair_work_right=10**9
        )
        plan = plan_query(dense, "count", 2, 2)
        assert plan.method == "epivoter"

    def test_matrix_rejected_under_millisecond_deadline(self, profile):
        # The flat scipy setup floor makes a 1 ms deadline reject the
        # matrix path deterministically; the plan degrades instead.
        plan = plan_query(profile, "count", 3, 3, deadline=0.001)
        assert plan.method != "matrix"

    def test_count_with_tight_deadline_degrades(self, profile):
        plan = plan_query(profile, "count", 3, 3, deadline=1e-6)
        assert plan.method not in ("epivoter", "matrix")
        assert plan.degraded and not plan.exact

    def test_estimate_with_accuracy_budget_is_adaptive(self, profile):
        plan = plan_query(profile, "estimate", 3, 3, delta=0.1, deadline=2.0)
        assert plan.method == "adaptive"
        assert plan.params["time_budget"] == 2.0

    def test_estimate_small_graph_no_deadline_is_hybrid(self, profile):
        plan = plan_query(profile, "estimate", 4, 4)
        assert plan.method == "hybrid"

    def test_estimate_deadline_clips_samples(self, profile):
        plan = plan_query(
            profile, "estimate", 4, 4, deadline=0.1, samples=10**6,
            samples_per_second=1000.0,
        )
        assert plan.method == "zigzag++"
        assert plan.params["samples"] < 10**6
        assert plan.degraded
        assert "requested 1000000" in plan.reason

    def test_deadline_clipping_default_samples_is_degraded(self, profile):
        """Regression: clipping below the *default* sample budget used to
        return ``degraded=False`` because no explicit request was made."""
        plan = plan_query(
            profile, "estimate", 4, 4, deadline=0.1,
            samples_per_second=1000.0,
        )
        assert plan.method == "zigzag++"
        assert plan.params["samples"] < 20_000
        assert plan.degraded
        assert "default 20000" in plan.reason

    def test_forced_method_honoured(self, profile):
        plan = plan_query(profile, "count", 3, 3, method="zigzag")
        assert plan.method == "zigzag"
        with pytest.raises(ValueError):
            plan_query(profile, "count", 3, 3, method="nope")
        with pytest.raises(ValueError):
            plan_query(profile, "count", 2, 2, method="stars")

    def test_forced_matrix(self, profile):
        plan = plan_query(profile, "count", 3, 3, method="matrix")
        assert plan.method == "matrix" and plan.exact
        with pytest.raises(ValueError):
            plan_query(profile, "count", 4, 4, method="matrix")

    def test_forced_clipped_plan_keeps_undercut_reason(self, profile):
        """Regression: a forced plan that clips its samples was marked
        degraded but its reason was overwritten with just "forced"."""
        plan = plan_query(
            profile, "estimate", 4, 4, method="zigzag++", deadline=0.1,
            samples=10**6, samples_per_second=1000.0,
        )
        assert plan.degraded
        assert "forced" in plan.reason
        assert "requested 1000000" in plan.reason

    def test_validation(self, profile):
        with pytest.raises(ValueError):
            plan_query(profile, "guess", 2, 2)
        with pytest.raises(ValueError):
            plan_query(profile, "count", 0, 2)
        with pytest.raises(ValueError):
            plan_query(profile, "count", 2, 2, deadline=0.0)


class TestExecutor:
    def test_served_counts_match_count_single(self, rng):
        with make_executor() as ex:
            for _ in range(5):
                g = random_bigraph(rng, 7, 7, density=0.6)
                name = ex.register(g).name
                for p, q in ((2, 2), (2, 3), (3, 3)):
                    served = ex.execute(Query(name, "count", p, q))
                    assert served["exact"]
                    assert served["value"] == count_single(g, p, q)

    def test_cache_hit_skips_the_engine(self, graph):
        with make_executor() as ex:
            name = ex.register(graph).name
            first = ex.execute(Query(name, "count", 2, 2))
            runs = counter(ex, "service.engine_runs")
            second = ex.execute(Query(name, "count", 2, 2))
            assert second["cached"] is True
            assert second["value"] == first["value"]
            assert counter(ex, "service.engine_runs") == runs
            assert counter(ex, "service.cache.hits") == 1

    def test_same_content_different_name_shares_cache(self, graph):
        with make_executor() as ex:
            ex.register(graph, name="a")
            ex.register(graph, name="b")
            ex.execute(Query("a", "count", 2, 2))
            runs = counter(ex, "service.engine_runs")
            result = ex.execute(Query("b", "count", 2, 2))
            assert result["cached"] is True
            assert counter(ex, "service.engine_runs") == runs

    def test_unknown_graph(self):
        with make_executor() as ex:
            with pytest.raises(UnknownGraph):
                ex.execute(Query("ghost", "count", 2, 2))

    def test_drop_forgets_the_graph(self, graph):
        with make_executor() as ex:
            name = ex.register(graph).name
            assert ex.drop(name)
            assert not ex.drop(name)
            with pytest.raises(UnknownGraph):
                ex.execute(Query(name, "count", 2, 2))

    def test_coalescing_single_engine_run(self, graph):
        release = threading.Event()
        entered = threading.Event()
        with make_executor(threads=1, max_queue=8) as ex:
            name = ex.register(graph).name
            real = ex._execute_plan

            def gated(plan, query, registered, trace=None):
                entered.set()
                assert release.wait(timeout=10)
                return real(plan, query, registered)

            ex._execute_plan = gated
            q = Query(name, "count", 2, 2)
            first = ex.submit(q)
            assert entered.wait(timeout=10)
            # While the first run is held in flight, identical queries
            # coalesce onto the same future: no queue slot, no new run.
            others = [ex.submit(q) for _ in range(4)]
            assert all(f is first for f in others)
            release.set()
            results = [f.result(timeout=10) for f in [first, *others]]
            assert len({id(r) for r in results}) == 1
            assert counter(ex, "service.coalesced") == 4
            assert counter(ex, "service.engine_runs") == 1

    def test_full_queue_rejects(self, graph):
        release = threading.Event()
        entered = threading.Event()
        with make_executor(threads=1, max_queue=1) as ex:
            name = ex.register(graph).name

            def blocked(plan, query, registered, trace=None):
                entered.set()
                assert release.wait(timeout=10)
                return 0, {}

            ex._execute_plan = blocked
            # First query occupies the worker; second fills the queue.
            ex.submit(Query(name, "count", 2, 2))
            assert entered.wait(timeout=10)
            ex.submit(Query(name, "count", 2, 3))
            with pytest.raises(QueryRejected):
                ex.submit(Query(name, "count", 3, 3))
            assert counter(ex, "service.rejected") == 1
            release.set()

    def test_tight_deadline_degrades_not_errors(self):
        g = complete_bigraph(9, 9)
        with make_executor() as ex:
            name = ex.register(g).name
            result = ex.execute(Query(name, "count", 3, 3, deadline=0.001))
            assert result["degraded"] is True
            assert result["exact"] is False
            assert result["method"] != "epivoter"
            assert counter(ex, "service.degraded") == 1

    def test_budget_trip_falls_back_to_estimator(self):
        g = complete_bigraph(9, 9)
        # An absurd nodes_per_second makes the planner predict an easy
        # exact run, but the armed budgets trip at runtime: the executor
        # must switch to the fallback plan, not surface the exception.
        with make_executor(nodes_per_second=1e12) as ex:
            name = ex.register(g).name
            result = ex.execute(Query(name, "count", 3, 3, deadline=1e-7))
            assert result["degraded"] is True
            assert result["method"] != "epivoter"
            assert counter(ex, "service.budget_exceeded") == 1

    def test_small_shapes_served_by_matrix_engine(self, graph):
        with make_executor() as ex:
            name = ex.register(graph).name
            result = ex.execute(Query(name, "count", 2, 2))
            assert result["method"] == "matrix" and result["exact"]
            assert result["value"] == count_single(graph, 2, 2)
            assert counter(ex, "service.engine_runs.matrix") == 1
            # Forcing the tree walk still works, and the per-method
            # engine counters tell the two runs apart.
            forced = ex.execute(Query(name, "count", 2, 2, method="epivoter"))
            assert forced["method"] == "epivoter"
            assert forced["value"] == result["value"]
            assert counter(ex, "service.engine_runs.epivoter") == 1

    def test_stars_cell_is_exact(self, graph):
        with make_executor() as ex:
            name = ex.register(graph).name
            result = ex.execute(Query(name, "count", 1, 2))
            assert result["exact"] and result["method"] == "stars"
            assert result["value"] == count_single(graph, 1, 2)

    def test_estimate_deterministic_with_seed(self, graph):
        with make_executor() as ex:
            name = ex.register(graph).name
            a = ex.execute(Query(name, "estimate", 2, 2, samples=500, seed=11))
            ex.cache.clear()
            b = ex.execute(Query(name, "estimate", 2, 2, samples=500, seed=11))
            assert b["cached"] is False
            assert a["value"] == b["value"]

    def test_pooled_registration_counts_exactly(self, graph):
        with make_executor(engine_workers=2) as ex:
            registered = ex.register(graph)
            assert registered.pool is not None
            result = ex.execute(Query(registered.name, "count", 2, 2))
            assert result["value"] == count_single(graph, 2, 2)

    def test_killed_pool_worker_is_replaced_exactly(self, rng):
        graph = random_bigraph(rng, 12, 12, density=0.5)
        with make_executor(engine_workers=2) as ex:
            registered = ex.register(graph)
            first = ex.execute(
                Query(registered.name, "count", 2, 2, method="epivoter")
            )
            assert first["value"] == count_single(graph, 2, 2)
            victim = next(iter(registered.pool._pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            result = ex.execute(
                Query(registered.name, "count", 3, 3, method="epivoter")
            )
            assert result["value"] == count_single(graph, 3, 3)
            assert result["method"] == "epivoter"
            assert counter(ex, "parallel.pool_restarts") == 1

    def test_shutdown_saves_cache(self, graph, tmp_path):
        path = str(tmp_path / "cache.json")
        obs = MetricsRegistry()
        ex = make_executor(obs=obs, cache=ResultCache(obs=obs, path=path))
        name = ex.register(graph).name
        value = ex.execute(Query(name, "count", 2, 2))["value"]
        ex.shutdown()
        # A fresh executor over the same cache file serves from cache.
        obs2 = MetricsRegistry()
        with make_executor(
            obs=obs2, cache=ResultCache(obs=obs2, path=path)
        ) as ex2:
            name2 = ex2.register(graph).name
            result = ex2.execute(Query(name2, "count", 2, 2))
            assert result["cached"] is True
            assert result["value"] == value
            assert counter(ex2, "service.engine_runs") == 0


class TestExecutorTracing:
    def test_span_tree_covers_the_request(self, graph):
        from repro.obs import Trace

        with make_executor() as ex:
            name = ex.register(graph).name
            trace = Trace("count")
            result = ex.execute(Query(name, "count", 2, 2), trace=trace)
            assert result["value"] == count_single(graph, 2, 2)

        doc = trace.to_dict()
        root = doc["spans"]
        names = [span["name"] for span in root["children"]]
        assert names[:3] == ["admission", "cache_lookup", "queue_wait"]
        assert "plan" in names and "merge" in names
        engine_spans = [n for n in names if n.startswith("engine:")]
        assert len(engine_spans) == 1
        # The plan span names the chosen engine and its reason.
        plan_span = next(s for s in root["children"] if s["name"] == "plan")
        assert plan_span["attributes"]["engine"] == result["method"]
        assert plan_span["attributes"]["reason"] == result["reason"]
        # Phase durations account for the request end to end: the spans
        # are sequential, so their sum cannot exceed the root duration
        # and the gaps between them are only scheduling jitter.
        total = sum(s["duration_ms"] for s in root["children"])
        assert total <= root["duration_ms"] + 0.5
        assert total >= 0.5 * plan_span["duration_ms"]

    def test_trace_retained_in_ring(self, graph):
        from repro.obs import Trace

        with make_executor() as ex:
            name = ex.register(graph).name
            trace = Trace("count")
            ex.execute(Query(name, "count", 2, 2), trace=trace)
            assert len(ex.traces) == 1
            assert ex.traces.get(trace.trace_id)["trace_id"] == trace.trace_id
            # Untraced requests leave the ring alone.
            ex.cache.clear()
            ex.execute(Query(name, "count", 2, 3))
            assert len(ex.traces) == 1

    def test_engine_latency_histogram_recorded(self, graph):
        with make_executor() as ex:
            name = ex.register(graph).name
            result = ex.execute(Query(name, "count", 2, 2))
            snap = ex._obs.snapshot()
            series = snap["histograms"]["service.engine_seconds"]
            engines = {s["labels"]["engine"] for s in series}
            assert result["method"] in engines
            assert sum(s["count"] for s in series) == 1
            assert "service.queue_wait_seconds" in snap["histograms"]

    def test_slow_log_records_via_executor(self, graph, tmp_path):
        import json

        from repro.obs import SlowQueryLog, Trace

        path = tmp_path / "slow.jsonl"
        with make_executor(
            slow_log=SlowQueryLog(str(path), threshold_ms=0.0)
        ) as ex:
            name = ex.register(graph).name
            trace = Trace("count")
            ex.execute(Query(name, "count", 2, 2), trace=trace)
        record = json.loads(path.read_text().strip().splitlines()[0])
        assert record["trace_id"] == trace.trace_id
        assert record["graph"] == name
        assert record["p"] == 2 and record["q"] == 2
        assert "method" in record
        assert counter(ex, "service.slow_queries") == 1

    def test_null_trace_default_records_nothing(self, graph):
        from repro.obs.trace import NULL_TRACE

        with make_executor() as ex:
            name = ex.register(graph).name
            ex.execute(Query(name, "count", 2, 2))
            assert len(ex.traces) == 0
            assert NULL_TRACE.root.children == []

    def test_fallback_engine_span_carries_degradation_reason(self):
        from repro.obs import Trace

        g = complete_bigraph(9, 9)
        with make_executor() as ex:
            name = ex.register(g).name
            trace = Trace("count")
            result = ex.execute(
                Query(name, "count", 4, 4, deadline=0.000001), trace=trace
            )
            assert result["degraded"] is True
        root = trace.to_dict()["spans"]
        engine_spans = [
            s for s in root["children"] if s["name"].startswith("engine:")
        ]
        assert engine_spans, "no engine span recorded"
        # Either the planner degraded upfront (single span, plan says
        # degraded) or the exact run blew its budget mid-flight (second
        # span carries the degradation reason).
        plan_span = next(s for s in root["children"] if s["name"] == "plan")
        if len(engine_spans) > 1:
            assert (
                engine_spans[-1]["attributes"]["degradation_reason"]
                == "budget_exceeded"
            )
        else:
            assert plan_span["attributes"].get("degraded") is True
