"""End-to-end tests over the HTTP serving layer (stdlib client only).

One server fixture per test class: the graph registers once over HTTP,
then every query goes through real sockets — the same path the CI smoke
job exercises against a live ``repro-biclique serve`` process.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.epivoter import count_single
from repro.graph.bigraph import BipartiteGraph
from repro.obs import MetricsRegistry
from repro.service.executor import ServiceExecutor
from repro.service.server import create_server


@pytest.fixture
def service():
    """A live server on an ephemeral port, plus its executor and registry."""
    obs = MetricsRegistry()
    # The pessimistic nodes_per_second makes the planner treat the tiny
    # test graphs like expensive ones: a millisecond deadline then
    # degrades deterministically instead of depending on machine speed.
    executor = ServiceExecutor(
        max_queue=16, threads=2, engine_workers=1, obs=obs,
        nodes_per_second=50.0,
    )
    server = create_server("127.0.0.1", 0, executor, obs=obs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", executor, obs
    finally:
        server.shutdown()
        server.server_close()
        executor.shutdown(save_cache=False)


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


def counters(obs: MetricsRegistry) -> dict:
    return obs.snapshot()["counters"]


def graph_payload(graph: BipartiteGraph, name: str) -> dict:
    """The /v1/graphs registration body for an in-memory graph."""
    return {
        "name": name,
        "n_left": graph.n_left,
        "n_right": graph.n_right,
        "edges": [[u, v] for u, v in graph.edges()],
    }


@pytest.fixture
def graph():
    import random

    r = random.Random(42)
    edges = [(u, v) for u in range(8) for v in range(8) if r.random() < 0.6]
    return BipartiteGraph(8, 8, edges)


class TestEndToEnd:
    def test_register_query_cache_and_degrade(self, service, graph):
        """The acceptance scenario from the issue, over real sockets."""
        base, _executor, obs = service

        # Register the graph exactly once.
        edges = [[u, v] for u, v in graph.edges()]
        status, body = post(
            base,
            "/v1/graphs",
            {
                "name": "g",
                "n_left": graph.n_left,
                "n_right": graph.n_right,
                "edges": edges,
            },
        )
        assert status == 200
        assert body["graph"] == "g"
        # Registration canonicalises to the degree ordering first, so the
        # advertised fingerprint is that of the ordered graph.
        ordered = graph.degree_ordered()[0]
        assert body["fingerprint"] == ordered.content_fingerprint()

        # Three distinct queries: exact answers equal count_single.
        pairs = [(2, 2), (2, 3), (3, 3)]
        for p, q in pairs:
            status, body = post(base, "/v1/count", {"graph": "g", "p": p, "q": q})
            assert status == 200
            assert body["exact"] is True
            assert body["cached"] is False
            assert body["value"] == count_single(graph, p, q)
        runs_before = counters(obs)["service.engine_runs"]

        # Two duplicates: served from cache, the engines never run again.
        for p, q in [(2, 2), (3, 3)]:
            status, body = post(base, "/v1/count", {"graph": "g", "p": p, "q": q})
            assert status == 200
            assert body["cached"] is True
            assert body["value"] == count_single(graph, p, q)
        after = counters(obs)
        assert after["service.cache.hits"] >= 2
        assert after["service.engine_runs"] == runs_before

        # A 1 ms deadline degrades to an estimator instead of erroring.
        status, body = post(
            base, "/v1/count", {"graph": "g", "p": 3, "q": 3, "deadline_ms": 1}
        )
        assert status == 200
        assert body["degraded"] is True
        assert body["exact"] is False
        assert body["method"] != "epivoter"
        assert "reason" in body

    def test_estimate_and_health_and_metrics(self, service, graph):
        base, executor, _obs = service
        executor.register(graph, name="g")

        status, body = get(base, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["graphs"] == ["g"]

        status, body = post(
            base,
            "/v1/estimate",
            {"graph": "g", "p": 2, "q": 2, "samples": 500, "seed": 5},
        )
        assert status == 200
        # Small shapes route to exact closed forms (matrix/stars); only
        # shapes outside them actually estimate.
        assert body["exact"] is False or body["method"] in ("stars", "matrix")
        assert isinstance(body["value"], (int, float))

        status, body = get(base, "/metrics")
        assert status == 200
        assert body["counters"]["service.requests"] >= 1
        assert "cache" in body and "size" in body["cache"]

    def test_error_mapping(self, service):
        base, _executor, _obs = service
        # 404: unknown graph and unknown route.
        status, body = post(base, "/v1/count", {"graph": "ghost", "p": 2, "q": 2})
        assert status == 404 and "error" in body
        status, body = post(base, "/v1/nope", {"x": 1})
        assert status == 404
        status, body = get(base, "/nope")
        assert status == 404
        # 400: malformed bodies and parameters.
        status, body = post(base, "/v1/count", {"graph": "ghost"})
        assert status == 400
        status, body = post(base, "/v1/graphs", {})
        assert status == 400
        status, body = post(
            base, "/v1/graphs", {"dataset": "DBLP", "edges": [[0, 0]]}
        )
        assert status == 400
        request = urllib.request.Request(
            base + "/v1/count", data=b"not json at all"
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

    def test_register_via_edge_list_and_dataset(self, service):
        base, _executor, _obs = service
        status, body = post(
            base, "/v1/graphs", {"edge_list": "0 0\n0 1\n1 0\n1 1\n", "name": "k22"}
        )
        assert status == 200 and body["num_edges"] == 4
        status, body = post(base, "/v1/count", {"graph": "k22", "p": 2, "q": 2})
        assert status == 200 and body["value"] == 1
        # A bad method name is the client's fault: 400, not 500.
        status, body = post(
            base, "/v1/count", {"graph": "k22", "p": 2, "q": 2, "method": "nope"}
        )
        assert status == 400

    def test_queue_full_maps_to_429(self, service, graph):
        base, executor, _obs = service
        executor.register(graph, name="g")
        release = threading.Event()
        entered = threading.Event()

        def blocked(plan, query, registered, trace=None):
            entered.set()
            assert release.wait(timeout=10)
            return 0, {}

        executor._execute_plan = blocked
        try:
            # Saturate the single effective queue slot path: one request
            # holds each worker thread, the rest fill the queue, and the
            # overflow request must come back 429 with retryable: true.
            statuses = []
            threads = []

            def fire(p):
                status, body = post(
                    base, "/v1/count", {"graph": "g", "p": p, "q": 2}
                )
                statuses.append((status, body))

            # 2 worker threads + 16 queue slots + overflow.
            for p in range(2, 2 + 19):
                t = threading.Thread(target=fire, args=(p,))
                t.start()
                threads.append(t)
            assert entered.wait(timeout=10)
            # Wait for the rejections to come back before releasing.
            for _ in range(200):
                if any(status == 429 for status, _ in statuses):
                    break
                time.sleep(0.05)
            release.set()
            for t in threads:
                t.join(timeout=30)
            codes = [status for status, _ in statuses]
            assert 429 in codes
            rejected = next(body for status, body in statuses if status == 429)
            assert rejected["retryable"] is True
        finally:
            release.set()


def get_text(base: str, path: str) -> tuple[int, str, str]:
    """GET returning (status, body text, content type) for non-JSON routes."""
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return (
                response.status,
                response.read().decode(),
                response.headers.get("Content-Type", ""),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode(), ""


class TestObservabilityEndpoints:
    def test_query_response_carries_trace_id_and_request_ms(
        self, service, graph
    ):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        status, body = post(base, "/v1/count", {"graph": "g", "p": 2, "q": 2})
        assert status == 200
        assert len(body["trace_id"]) == 16
        assert body["request_ms"] > 0
        assert "trace" not in body  # only on request

    def test_trace_true_returns_span_tree_summing_to_request(
        self, service, graph
    ):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        status, body = post(
            base, "/v1/count", {"graph": "g", "p": 2, "q": 2, "trace": True}
        )
        assert status == 200
        doc = body["trace"]
        assert doc["trace_id"] == body["trace_id"]
        root = doc["spans"]
        names = [span["name"] for span in root["children"]]
        assert "admission" in names and "queue_wait" in names
        plan = next(s for s in root["children"] if s["name"] == "plan")
        assert plan["attributes"]["engine"] == body["method"]
        assert plan["attributes"]["reason"] == body["reason"]
        assert any(n.startswith("engine:") for n in names)
        # The sequential phase spans account for the reported latency.
        total = sum(s["duration_ms"] for s in root["children"])
        assert total <= body["request_ms"] + 0.5
        assert doc["duration_ms"] <= body["request_ms"] + 0.5

    def test_traces_listing_and_detail(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        _, body = post(
            base, "/v1/count", {"graph": "g", "p": 2, "q": 2, "trace": True}
        )
        status, listing = get(base, "/v1/traces?slow=0")
        assert status == 200
        ids = [t["trace_id"] for t in listing["traces"]]
        assert body["trace_id"] in ids
        assert listing["retained"] >= 1
        status, detail = get(base, f"/v1/traces/{body['trace_id']}")
        assert status == 200
        assert detail["spans"]["children"]
        status, _ = get(base, "/v1/traces/deadbeefdeadbeef")
        assert status == 404
        status, _ = get(base, "/v1/traces?slow=banana")
        assert status == 400

    def test_traces_negative_parameters_rejected(self, service):
        # Negative values used to flow straight into TraceRing.list,
        # where a negative limit silently sliced from the wrong end.
        base, _executor, _obs = service
        for query in ("limit=-1", "slow=-5", "limit=-1&slow=-5"):
            status, body = get(base, f"/v1/traces?{query}")
            assert status == 400
            assert ">= 0" in body["error"]
        status, _ = get(base, "/v1/traces?limit=0&slow=0")
        assert status == 200

    def test_untraced_queries_fill_the_ring_too(self, service, graph):
        # Every HTTP query gets a trace id; the ring retains them all.
        base, executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        post(base, "/v1/count", {"graph": "g", "p": 2, "q": 2})
        assert len(executor.traces) == 1

    def test_prometheus_exposition(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        post(base, "/v1/count", {"graph": "g", "p": 2, "q": 2})
        status, text, content_type = get_text(
            base, "/metrics?format=prometheus"
        )
        assert status == 200
        assert "version=0.0.4" in content_type
        assert text.endswith("\n")
        lines = text.strip("\n").split("\n")
        assert any(
            line.startswith("service_http_latency_seconds_bucket") for line in lines
        )
        count_lines = [
            line
            for line in lines
            if line.startswith("service_http_latency_seconds_count")
        ]
        assert count_lines and all(
            int(line.rsplit(" ", 1)[1]) > 0 for line in count_lines
        )
        # Cumulative buckets are monotone per series (strip the le
        # label to group one route's buckets together).
        import re

        by_series: dict = {}
        for line in lines:
            if line.startswith("service_http_latency_seconds_bucket"):
                labels, value = line.rsplit(" ", 1)
                series = re.sub(r'le="[^"]*",?', "", labels)
                by_series.setdefault(series, []).append(int(value))
        assert by_series
        for values in by_series.values():
            assert values == sorted(values)
        status, _ = get(base, "/metrics?format=xml")
        assert status == 400

    def test_404_and_status_class_counters(self, service):
        base, _executor, obs = service
        before = counters(obs).get("service.http_requests", 0)
        status, _ = get(base, "/no/such/route")
        assert status == 404
        # The handler observes in a `finally` *after* the response bytes
        # hit the wire, so give its thread a moment to record them.
        deadline = time.monotonic() + 2.0
        after = counters(obs)
        while (
            after.get("service.http_requests", 0) <= before
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
            after = counters(obs)
        assert after["service.http_requests"] == before + 1
        assert after["service.http_requests.unknown"] >= 1
        assert after["service.http_status.4xx"] >= 1
        snap = obs.snapshot()
        routes = {
            s["labels"]["route"]
            for s in snap["histograms"]["service.http_latency_seconds"]
        }
        assert "unknown" in routes

    def test_healthz_uptime_version_registrations(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        status, body = get(base, "/healthz")
        assert status == 200
        assert body["graphs"] == ["g"]
        assert body["uptime_seconds"] >= 0
        from repro import __version__

        assert body["version"] == __version__
        registration = body["registrations"]["g"]
        assert registration["registered_unix"] > 0
        assert len(registration["fingerprint"]) == 64

    def test_metrics_scrape_during_concurrent_queries(self, service, graph):
        """Hammering /metrics while queries run never errors or corrupts."""
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        errors: list = []
        done = threading.Event()

        def scraper():
            while not done.is_set():
                status, _body = get(base, "/metrics")
                if status != 200:
                    errors.append(("json", status))
                status, text, _ct = get_text(base, "/metrics?format=prometheus")
                if status != 200 or not text.endswith("\n"):
                    errors.append(("prom", status))

        threads = [threading.Thread(target=scraper) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for p, q in [(2, 2), (2, 3), (3, 2), (1, 2), (3, 3)]:
                status, _ = post(
                    base,
                    "/v1/count",
                    {"graph": "g", "p": p, "q": q, "trace": True},
                )
                assert status == 200
        finally:
            done.set()
            for t in threads:
                t.join()
        assert not errors


class TestKeepAlive:
    def test_kept_alive_round_trips_do_not_stall(self, service, graph):
        """One connection, many requests: each response must arrive in
        one piece.  Headers and body sent apart make the body wait for
        the client's delayed ACK, ~40 ms per round trip."""
        import http.client
        from urllib.parse import urlsplit

        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        url = urlsplit(base)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
        body = json.dumps({"graph": "g", "p": 2, "q": 2}).encode()
        headers = {"Content-Type": "application/json"}
        round_trips = []
        try:
            for i in range(12):
                started = time.perf_counter()
                if i % 2:
                    connection.request("GET", "/healthz")
                else:
                    connection.request("POST", "/v1/count", body=body, headers=headers)
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
                round_trips.append(time.perf_counter() - started)
        finally:
            connection.close()
        round_trips.sort()
        median_ms = 1000.0 * round_trips[len(round_trips) // 2]
        assert median_ms < 20.0, f"median kept-alive round trip {median_ms:.1f} ms"


def patch(base: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="PATCH",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestParameterValidation:
    """Malformed p/q must be a client error (400), never a 500."""

    @pytest.mark.parametrize(
        "p,q",
        [
            (2.0, 2),
            (2, 2.5),
            ("2", 2),
            (2, "two"),
            (None, 2),
            (2, None),
            (True, 2),
            (2, False),
        ],
    )
    def test_non_integer_p_q_is_400(self, service, graph, p, q):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        status, body = post(base, "/v1/count", {"graph": "g", "p": p, "q": q})
        assert status == 400
        assert "must be a JSON integer" in body["error"]

    def test_missing_p_q_is_400(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        status, _body = post(base, "/v1/count", {"graph": "g", "p": 2})
        assert status == 400

    def test_valid_integers_still_work(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        status, body = post(base, "/v1/count", {"graph": "g", "p": 2, "q": 2})
        assert status == 200
        assert body["value"] == count_single(graph, 2, 2)


class TestMutationEndpoint:
    def test_patch_mutates_and_invalidates_cache(self, service, graph):
        base, _executor, obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        _status, before = post(base, "/v1/count", {"graph": "g", "p": 2, "q": 2})
        _status, cached = post(base, "/v1/count", {"graph": "g", "p": 2, "q": 2})
        assert cached["cached"] is True

        present = set(map(tuple, (e for e in graph.edges())))
        add = next(
            (u, v)
            for u in range(graph.n_left)
            for v in range(graph.n_right)
            if (u, v) not in present
        )
        status, body = patch(
            base, "/v1/graphs/g", {"add_edges": [list(add)]}
        )
        assert status == 200
        assert body["added"] == 1 and body["changed"] is True
        assert body["version"] == 1
        assert body["fingerprint"] != before.get("fingerprint", "")
        assert "#v1-" in body["fingerprint"]

        mutated = BipartiteGraph(
            graph.n_left, graph.n_right, sorted(present | {add})
        )
        status, after = post(base, "/v1/count", {"graph": "g", "p": 2, "q": 2})
        assert status == 200
        assert after["cached"] is False  # old-version entry unservable
        assert after["value"] == count_single(mutated, 2, 2)
        assert counters(obs)["graph.mutations"] == 1

    def test_patch_is_idempotent(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        edge = next(iter(graph.edges()))
        batch = {"remove_edges": [list(edge)]}
        status, first = patch(base, "/v1/graphs/g", batch)
        assert status == 200 and first["removed"] == 1
        status, again = patch(base, "/v1/graphs/g", batch)
        assert status == 200
        assert again["changed"] is False
        assert again["version"] == first["version"]
        assert again["fingerprint"] == first["fingerprint"]

    def test_unknown_vertices_409_unless_created(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        bad = [[graph.n_left + 3, 0]]
        status, body = patch(base, "/v1/graphs/g", {"add_edges": bad})
        assert status == 409
        assert body["unknown_left"] == [graph.n_left + 3]
        status, body = patch(
            base, "/v1/graphs/g", {"add_edges": bad, "create_vertices": True}
        )
        assert status == 200
        assert body["n_left"] == graph.n_left + 4

    def test_patch_error_mapping(self, service, graph):
        base, _executor, _obs = service
        post(base, "/v1/graphs", graph_payload(graph, "g"))
        status, _ = patch(base, "/v1/graphs/nope", {"add_edges": [[0, 0]]})
        assert status == 404
        status, _ = patch(base, "/v1/graphs/g", {})
        assert status == 400  # neither add_edges nor remove_edges
        status, _ = patch(base, "/v1/graphs/g", {"add_edges": [[0]]})
        assert status == 400  # malformed pair
        status, _ = patch(base, "/v1/graphs/g", {"add_edges": [[0, True]]})
        assert status == 400  # bool endpoint
        status, _ = patch(
            base, "/v1/graphs/g", {"add_edges": [], "create_vertices": "yes"}
        )
        assert status == 400  # non-bool flag
