"""The HTTP JSON API over the service executor (stdlib only).

A :class:`ThreadingHTTPServer` whose handler threads call straight into
the shared :class:`~repro.service.executor.ServiceExecutor`; no web
framework, no new dependencies.  Endpoints:

``POST /v1/graphs``
    Register a graph: ``{"dataset": NAME}`` (bundled synthetic
    dataset), ``{"edge_list": TEXT}`` (the :mod:`repro.graph.io`
    format), or ``{"n_left": N, "n_right": M, "edges": [[u, v], ...]}``.
    Optional ``"name"`` (defaults to a fingerprint prefix).  Returns the
    registration record, including the content fingerprint.

``POST /v1/count`` / ``POST /v1/estimate``
    One query: ``{"graph": NAME, "p": P, "q": Q}`` plus optional
    ``method``, ``deadline_ms``, ``delta``, ``epsilon``, ``samples``,
    ``seed``.  ``/v1/count`` asks for an exact answer (the planner may
    degrade under a deadline and say so via ``degraded: true``);
    ``/v1/estimate`` accepts an estimator from the start.  Every query
    response carries its ``trace_id`` and end-to-end ``request_ms``;
    with ``"trace": true`` in the body the full span tree comes back
    under ``"trace"``.

``PATCH /v1/graphs/<name>``
    Batched mutation: ``{"add_edges": [[u, v], ...], "remove_edges":
    [[u, v], ...]}`` plus optional ``"create_vertices": true``.
    Idempotent (a batch that changes nothing does not advance the
    version) and all-or-nothing: edges naming vertices outside the graph
    answer 409 with the offending ids unless ``create_vertices`` grows
    the sides.  A changed batch bumps the serving fingerprint to the
    next ``(base_fingerprint, version)`` identity, making every cached
    result for the previous version unservable.  On a coordinator the
    batch propagates to all shards (with fingerprint verification)
    before the new version is served; propagation failure is a 502.

``GET /healthz``
    Liveness: resident graph names, queue depth, ``uptime_seconds``,
    the package ``version``, and per-graph registration records.

``GET /metrics``
    The full metrics registry snapshot plus cache stats — counters,
    timers, gauges, histograms, per-worker stats.  With
    ``?format=prometheus`` the same registry renders in the Prometheus
    text exposition format (histograms as ``_bucket``/``_sum``/
    ``_count`` families) for scraping.

``GET /v1/traces`` / ``GET /v1/traces/<id>``
    The retained trace ring: the listing accepts ``?slow=MS`` (only
    traces at least that slow, slowest first) and ``?limit=N``; the
    detail route returns one span tree by trace id.

``POST /v1/shard/count`` (``--shard`` instances only)
    Internal cluster endpoint: ``{"graph": NAME, "fingerprint": HASH,
    "p": P, "q": Q, "ranges": [[start, stop], ...]}`` returns the exact
    partial count over those root-edge id ranges.  A fingerprint that
    does not match the resident graph is a 409; a tripped
    ``time_budget``/``node_budget`` is a 503 with
    ``budget_exceeded: true``.  Public instances answer 404 here.

Errors are JSON too: 400 (malformed request), 404 (unknown graph or
route), 429 (admission control; ``retryable: true``), 500 (engine
failure).  Every response — errors and 404s included — lands in the
``service.http_latency_seconds`` histogram (labelled by normalised
route), the ``service.http.<route>`` timers, and the
``service.http_status.{2xx,4xx,5xx}`` class counters.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, unquote, urlsplit

from repro import __version__
from repro.graph.bigraph import BipartiteGraph
from repro.graph.io import parse_edge_list
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.core.epivoter import CountBudgetExceeded
from repro.obs.trace import Trace
from repro.service.executor import (
    FingerprintMismatch,
    Query,
    QueryRejected,
    ServiceExecutor,
    UnknownGraph,
)
from repro.service.mutation import UnknownVertices

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

__all__ = ["BicliqueServiceServer", "create_server", "serve_forever"]

#: Request bodies larger than this are rejected outright (64 MiB covers
#: multi-million-edge JSON edge lists while bounding memory per request).
_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Known route labels; anything else is folded into "unknown" so a
#: scanner probing random paths cannot blow up metric cardinality.
_ROUTE_LABELS = {
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/v1/graphs": "v1_graphs",
    "/v1/count": "v1_count",
    "/v1/estimate": "v1_estimate",
    "/v1/traces": "v1_traces",
    "/v1/shard/count": "v1_shard_count",
}


def _route_label(path: str) -> str:
    label = _ROUTE_LABELS.get(path)
    if label is not None:
        return label
    if path.startswith("/v1/traces/"):
        return "v1_traces"
    if path.startswith("/v1/graphs/"):
        return "v1_graphs"
    return "unknown"


class BicliqueServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one executor and registry."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        executor: ServiceExecutor,
        obs: "MetricsRegistry | None" = None,
        quiet: bool = True,
        shard: bool = False,
    ):
        self.executor = executor
        self.obs = obs
        self.quiet = quiet
        #: Shard role: expose the internal ``POST /v1/shard/count`` so a
        #: cluster coordinator can scatter root-edge ranges here.  Off by
        #: default — a public-facing server should not serve partials.
        self.shard = shard
        super().__init__(address, _Handler)


class _BadRequest(ValueError):
    """Maps to HTTP 400 with the message as the error body."""


class _NotFound(ValueError):
    """Maps to HTTP 404 with the message as the error body."""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self._send_bytes(status, body, "application/json")

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # Headers and body leave in one write: sent apart, the body
        # waits (Nagle) for a kept-alive client's delayed ACK of the
        # headers, ~40 ms per response.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _BadRequest("a JSON request body is required")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _BadRequest(f"malformed JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _BadRequest("the request body must be a JSON object")
        return body

    def _observe(self, route: str, elapsed: float) -> None:
        """Record one finished response: counters, timer, histogram.

        ``route`` is the normalised label (bounded cardinality), and the
        status class comes from the response actually sent, so error and
        404 paths are counted exactly like successes.
        """
        obs = self.server.obs
        if obs is None or not obs.enabled:
            return
        status = getattr(self, "_last_status", 0)
        obs.incr("service.http_requests")
        obs.incr(f"service.http_requests.{route}")
        obs.incr(f"service.http_status.{status // 100}xx")
        obs.add_time(f"service.http.{route}", elapsed)
        obs.observe(
            "service.http_latency_seconds", elapsed, labels={"route": route}
        )

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        start = time.perf_counter()
        parts = urlsplit(self.path)
        path = parts.path
        route = _route_label(path)
        try:
            if path == "/healthz":
                self._healthz()
            elif path == "/metrics":
                self._metrics(parse_qs(parts.query))
            elif path == "/v1/traces":
                self._trace_list(parse_qs(parts.query))
            elif path.startswith("/v1/traces/"):
                self._trace_detail(path[len("/v1/traces/"):])
            else:
                self._respond(404, {"error": f"unknown route {path}"})
        except _BadRequest as exc:
            self._respond(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - must answer the client
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self._observe(route, time.perf_counter() - start)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        start = time.perf_counter()
        route_path = urlsplit(self.path).path
        route = _route_label(route_path)
        try:
            body = self._json_body()
            if route_path == "/v1/graphs":
                payload = self._register(body)
            elif route_path in ("/v1/count", "/v1/estimate"):
                payload = self._query(body, kind=route_path.rsplit("/", 1)[1])
            elif route_path == "/v1/shard/count":
                payload = self._shard_count(body)
            else:
                self._respond(404, {"error": f"unknown route {route_path}"})
                return
        except _BadRequest as exc:
            self._respond(400, {"error": str(exc)})
        except _NotFound as exc:
            self._respond(404, {"error": str(exc)})
        except UnknownGraph as exc:
            self._respond(
                404,
                {"error": f"unknown graph {exc.args[0]!r}; register it first"},
            )
        except FingerprintMismatch as exc:
            self._respond(409, {"error": str(exc)})
        except CountBudgetExceeded as exc:
            # A shard that ran out of budget is healthy, just out of
            # time; the coordinator must not count this as a failure.
            self._respond(
                503, {"error": str(exc), "budget_exceeded": True}
            )
        except QueryRejected as exc:
            self._respond(429, {"error": str(exc), "retryable": True})
        except Exception as exc:  # noqa: BLE001 - must answer the client
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._respond(200, payload)
        finally:
            self._observe(route, time.perf_counter() - start)

    def do_PATCH(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        start = time.perf_counter()
        route_path = urlsplit(self.path).path
        route = _route_label(route_path)
        try:
            body = self._json_body()
            prefix = "/v1/graphs/"
            if route_path.startswith(prefix) and len(route_path) > len(prefix):
                payload = self._mutate(route_path[len(prefix):], body)
            else:
                self._respond(
                    404, {"error": f"unknown PATCH route {route_path}"}
                )
                return
        except _BadRequest as exc:
            self._respond(400, {"error": str(exc)})
        except UnknownGraph as exc:
            self._respond(
                404,
                {"error": f"unknown graph {exc.args[0]!r}; register it first"},
            )
        except UnknownVertices as exc:
            self._respond(
                409,
                {
                    "error": str(exc),
                    "unknown_left": exc.left,
                    "unknown_right": exc.right,
                },
            )
        except Exception as exc:  # noqa: BLE001 - must answer the client
            # A coordinator whose shard propagation failed reports the
            # upstream nature of the fault; duck-typed to avoid a hard
            # dependency on the cluster module here.
            if type(exc).__name__ == "ClusterMutationError":
                self._respond(502, {"error": str(exc)})
            else:
                self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._respond(200, payload)
        finally:
            self._observe(route, time.perf_counter() - start)

    # -- endpoint bodies ----------------------------------------------

    def _healthz(self) -> None:
        executor = self.server.executor
        graphs = executor.graphs()
        payload = {
            "status": "ok",
            "graphs": sorted(graphs),
            "queue_depth": executor.queue_depth(),
            "uptime_seconds": round(
                time.time() - executor.started_unix, 3
            ),
            "version": __version__,
            "registrations": {
                name: {
                    "fingerprint": registered.fingerprint,
                    "registered_unix": registered.registered_unix,
                }
                for name, registered in graphs.items()
            },
        }
        if self.server.shard:
            payload["role"] = "shard"
        # A coordinator's executor reports per-shard health; duck-typed
        # so the plain ServiceExecutor needs no cluster imports.
        shard_health = getattr(executor, "shard_health", None)
        if shard_health is not None:
            payload["role"] = "coordinator"
            payload["shards"] = shard_health()
        self._respond(200, payload)

    def _metrics(self, params: dict) -> None:
        executor = self.server.executor
        obs = self.server.obs
        fmt = (params.get("format") or ["json"])[0]
        if fmt == "prometheus":
            snapshot = obs.snapshot() if obs is not None else {}
            extra = {
                "service_queue_depth": executor.queue_depth(),
                "service_trace_ring_size": len(executor.traces),
            }
            for key, value in executor.cache.stats().items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    extra[f"service_cache_{key}"] = value
            text = render_prometheus(snapshot, extra_gauges=extra)
            self._send_bytes(200, text.encode(), _PROM_CONTENT_TYPE)
            return
        if fmt != "json":
            raise _BadRequest(f"unknown metrics format {fmt!r}")
        snapshot = obs.snapshot() if obs is not None else {}
        snapshot["cache"] = executor.cache.stats()
        snapshot["queue_depth"] = executor.queue_depth()
        self._respond(200, snapshot)

    def _trace_list(self, params: dict) -> None:
        try:
            slow_ms = float((params.get("slow") or [0.0])[0])
            limit = int((params.get("limit") or [50])[0])
        except ValueError as exc:
            raise _BadRequest(f"bad trace query parameter: {exc}") from None
        if slow_ms < 0:
            raise _BadRequest("'slow' must be >= 0 milliseconds")
        if limit < 0:
            raise _BadRequest("'limit' must be >= 0")
        documents = self.server.executor.traces.list(slow_ms=slow_ms, limit=limit)
        self._respond(
            200,
            {
                "traces": [
                    {
                        key: doc[key]
                        for key in (
                            "trace_id", "name", "started_unix", "duration_ms",
                        )
                    }
                    for doc in documents
                ],
                "retained": len(self.server.executor.traces),
            },
        )

    def _trace_detail(self, trace_id: str) -> None:
        document = self.server.executor.traces.get(trace_id)
        if document is None:
            self._respond(
                404,
                {"error": f"no retained trace {trace_id!r} (ring may have evicted it)"},
            )
            return
        self._respond(200, document)

    def _register(self, body: dict) -> dict:
        executor = self.server.executor
        name = body.get("name")
        if name is not None and not isinstance(name, str):
            raise _BadRequest("'name' must be a string")
        sources = [key for key in ("dataset", "edge_list", "edges") if key in body]
        if len(sources) != 1:
            raise _BadRequest(
                "provide exactly one of 'dataset', 'edge_list', or 'edges'"
            )
        if "dataset" in body:
            from repro.graph.datasets import available_datasets, load_dataset

            dataset = body["dataset"]
            if dataset not in available_datasets():
                raise _BadRequest(f"unknown dataset {dataset!r}")
            graph = load_dataset(dataset)
            name = name or dataset
        elif "edge_list" in body:
            try:
                graph, _, _ = parse_edge_list(body["edge_list"])
            except (ValueError, TypeError) as exc:
                raise _BadRequest(f"bad edge_list: {exc}") from None
        else:
            try:
                n_left = int(body["n_left"])
                n_right = int(body["n_right"])
                edges = [(int(u), int(v)) for u, v in body["edges"]]
                graph = BipartiteGraph(n_left, n_right, edges)
            except (KeyError, ValueError, TypeError) as exc:
                raise _BadRequest(
                    f"bad edges payload (need n_left, n_right, edges): {exc}"
                ) from None
        registered = executor.register(graph, name=name)
        return registered.describe()

    def _mutate(self, name: str, body: dict) -> dict:
        """``PATCH /v1/graphs/<name>``: apply one batched edge mutation."""
        if "add_edges" not in body and "remove_edges" not in body:
            raise _BadRequest("provide 'add_edges' and/or 'remove_edges'")
        add_edges = _edge_pairs(body, "add_edges")
        remove_edges = _edge_pairs(body, "remove_edges")
        create_vertices = body.get("create_vertices", False)
        if not isinstance(create_vertices, bool):
            raise _BadRequest("'create_vertices' must be a JSON boolean")
        trace = Trace("mutate")
        try:
            result = self.server.executor.mutate(
                unquote(name),
                add_edges=add_edges,
                remove_edges=remove_edges,
                create_vertices=create_vertices,
                trace=trace,
            )
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        return {
            **result,
            "trace_id": trace.trace_id,
            "request_ms": round(trace.duration_ms, 3),
        }

    def _query(self, body: dict, kind: str) -> dict:
        p = _require_int(body, "p")
        q = _require_int(body, "q")
        graph_id = body.get("graph")
        if not isinstance(graph_id, str):
            raise _BadRequest("'graph' (a registered name) is required")
        want_trace = bool(body.get("trace", False))
        deadline_ms = body.get("deadline_ms")
        try:
            query = Query(
                graph_id=graph_id,
                kind=kind,
                p=p,
                q=q,
                method=body.get("method", "auto"),
                deadline=(
                    float(deadline_ms) / 1000.0 if deadline_ms is not None else None
                ),
                delta=_opt_float(body, "delta"),
                epsilon=_opt_float(body, "epsilon"),
                samples=_opt_int(body, "samples"),
                seed=_opt_int(body, "seed"),
            )
        except (ValueError, TypeError) as exc:
            raise _BadRequest(f"bad query parameter: {exc}") from None
        trace = Trace(kind)
        try:
            result = self.server.executor.execute(query, trace=trace)
        except ValueError as exc:
            # Planner/engine validation (bad method name, p/q out of a
            # method's domain) is the client's fault, not a 500.
            raise _BadRequest(str(exc)) from None
        # The executor may hand the same dict to coalesced waiters and
        # the cache, so attach the per-request fields to a copy.
        payload = {
            **result,
            "trace_id": trace.trace_id,
            "request_ms": round(trace.duration_ms, 3),
        }
        if want_trace:
            payload["trace"] = trace.to_dict()
        return payload

    def _shard_count(self, body: dict) -> dict:
        """Internal cluster endpoint: exact partial over edge-id ranges.

        Only served when the process was started with ``--shard``; a
        public instance answers 404 so the internal surface stays
        invisible.  The response's ``value`` is an exact Python int
        (JSON integers are arbitrary-precision either way), which is
        what makes the coordinator's merge bit-identical.
        """
        if not self.server.shard:
            raise _NotFound("not a shard (start with --shard to enable)")
        graph_id = body.get("graph")
        if not isinstance(graph_id, str):
            raise _BadRequest("'graph' (a registered name) is required")
        fingerprint = body.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise _BadRequest("'fingerprint' (the graph content hash) is required")
        p = _require_int(body, "p")
        q = _require_int(body, "q")
        raw_ranges = body.get("ranges")
        if not isinstance(raw_ranges, list) or not raw_ranges:
            raise _BadRequest("'ranges' must be a non-empty list of [start, stop)")
        try:
            ranges = [(int(a), int(b)) for a, b in raw_ranges]
        except (ValueError, TypeError) as exc:
            raise _BadRequest(f"bad 'ranges' entry: {exc}") from None
        if any(a < 0 or b < a for a, b in ranges):
            raise _BadRequest("each range must satisfy 0 <= start <= stop")
        time_budget = _opt_float(body, "time_budget")
        node_budget = _opt_int(body, "node_budget")
        start = time.perf_counter()
        value = self.server.executor.shard_count(
            graph_id,
            fingerprint,
            p,
            q,
            ranges,
            node_budget=node_budget,
            time_budget=time_budget,
        )
        return {
            "graph": graph_id,
            "fingerprint": fingerprint,
            "p": p,
            "q": q,
            "ranges": [[a, b] for a, b in ranges],
            "value": value,
            "exact": True,
            "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }


def _require_int(body: dict, key: str) -> int:
    """A required JSON integer — floats, strings, bools, nulls are 400s.

    ``int(body[key])`` would silently truncate ``2.7`` and accept
    ``"3"`` or ``true`` (``bool`` is an ``int`` subclass); a count for
    the wrong cell is worse than an error, so only genuine JSON
    integers pass.
    """
    value = body.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _BadRequest(
            f"'{key}' must be a JSON integer, got {value!r}"
        )
    return value


def _edge_pairs(body: dict, key: str) -> list[tuple[int, int]]:
    """An optional list of ``[u, v]`` integer pairs (mutation batches)."""
    raw = body.get(key)
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise _BadRequest(f"'{key}' must be a list of [u, v] pairs")
    pairs = []
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in entry)
        ):
            raise _BadRequest(
                f"'{key}' entries must be [u, v] integer pairs, got {entry!r}"
            )
        pairs.append((entry[0], entry[1]))
    return pairs


def _opt_float(body: dict, key: str) -> "float | None":
    value = body.get(key)
    return None if value is None else float(value)


def _opt_int(body: dict, key: str) -> "int | None":
    value = body.get(key)
    return None if value is None else int(value)


def create_server(
    host: str,
    port: int,
    executor: ServiceExecutor,
    obs: "MetricsRegistry | None" = None,
    quiet: bool = True,
    shard: bool = False,
) -> BicliqueServiceServer:
    """Bind (but do not start) a service server; port 0 picks a free port.

    ``shard=True`` additionally serves the internal
    ``POST /v1/shard/count`` partial-count endpoint for a cluster
    coordinator; leave it off for public-facing instances.
    """
    return BicliqueServiceServer(
        (host, port), executor, obs=obs, quiet=quiet, shard=shard
    )


def serve_forever(server: BicliqueServiceServer) -> None:
    """Run until interrupted, then shut the executor down cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.executor.shutdown()
        server.server_close()
