"""The request executor: admission control, coalescing, resident graphs.

One :class:`ServiceExecutor` owns everything a serving process needs:

* **resident graphs** — :meth:`register` degree-orders the graph once,
  profiles it for the planner, builds the EPivoter engine (adjacency
  sets and all), and — when ``engine_workers > 1`` — opens a
  :class:`~repro.utils.parallel.GraphPool` so the CSR buffers ship to
  the worker processes exactly once per registration;
* **a bounded request queue** — :meth:`submit` enqueues onto a
  fixed-capacity queue and raises :class:`QueryRejected` (a retryable
  condition, HTTP 429 at the server) when it is full, so overload sheds
  load instead of accumulating latency;
* **coalescing** — identical queries (same cache key) that arrive while
  one is in flight all attach to the same future: one engine run fans
  out to every waiter;
* **the result cache** — completed responses land in the
  :class:`~repro.service.cache.ResultCache`; a later identical query is
  answered without touching the queue or the engines;
* **graceful degradation** — exact plans run with the planner's armed
  budgets; a :class:`~repro.core.epivoter.CountBudgetExceeded` switches
  to the plan's estimator fallback and the response reports
  ``degraded: true``.

The executor is synchronous-friendly: :meth:`execute` submits and waits,
which is what the HTTP handler threads do.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.adaptive import adaptive_count
from repro.core.counts import BicliqueCounts
from repro.core.epivoter import CountBudgetExceeded, EPivoter
from repro.core.hybrid import hybrid_count_single
from repro.core.matrix import matrix_count_single
from repro.core.zigzag import star_counts, zigzag_count_single, zigzagpp_count_single
from repro.graph.bigraph import BipartiteGraph
from repro.obs.registry import NULL_REGISTRY
from repro.obs.trace import NULL_TRACE, TraceRing
from repro.service.cache import ResultCache
from repro.service.fingerprint import cache_key, graph_fingerprint
from repro.service.mutation import (
    DEFAULT_COMPACT_EDGES,
    DEFAULT_COMPACT_FRACTION,
    MutableGraphState,
    StaleVersion,
)
from repro.service.planner import GraphProfile, QueryPlan, plan_query
from repro.utils.parallel import GraphPool, resolve_workers

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import SlowQueryLog, Trace

__all__ = [
    "Query",
    "QueryRejected",
    "UnknownGraph",
    "FingerprintMismatch",
    "RegisteredGraph",
    "ServiceExecutor",
]


class QueryRejected(RuntimeError):
    """Admission control: the request queue is full.  Retryable."""


class UnknownGraph(KeyError):
    """The query names a graph id that was never registered."""


class FingerprintMismatch(RuntimeError):
    """A shard request's fingerprint does not match the resident graph.

    Raised by :meth:`ServiceExecutor.shard_count` when a coordinator
    asks for a partial count over a graph whose content fingerprint
    differs from what this process holds — summing partials over
    *different* graphs would silently produce garbage, so the mismatch
    is a hard error (HTTP 409 at the server).
    """


@dataclass(frozen=True)
class Query:
    """One count/estimate request against a registered graph.

    ``deadline`` is wall-clock seconds the caller grants the whole
    computation; ``method`` forces an engine (default: the planner
    chooses).  The frozen dataclass doubles as the identity the cache
    key is derived from.
    """

    graph_id: str
    kind: str  # "count" | "estimate"
    p: int
    q: int
    method: str = "auto"
    deadline: "float | None" = None
    delta: "float | None" = None
    epsilon: "float | None" = None
    samples: "int | None" = None
    seed: "int | None" = None

    def params(self) -> dict:
        """The parameter dict folded into the cache key."""
        return {
            "method": self.method if self.method != "auto" else None,
            "deadline": self.deadline,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass
class RegisteredGraph:
    """One *version* of a resident graph plus everything derived from it.

    Mutations never edit a record in place: each applied batch swaps in
    a fresh record pinned to its version and fingerprint, so a request
    admitted against version ``n`` computes, caches, and responds under
    version ``n``'s identity even if the graph moves on mid-flight.

    ``view`` is the merged client-id graph of this version (materialised
    eagerly at mutation time).  ``graph``/``engine``/``pool`` — the
    degree-ordered snapshot and its engines — are built lazily by
    :meth:`ServiceExecutor._ensure_snapshot` the first time a plan needs
    them: small-shape queries on a mutated graph are answered from the
    maintained totals without ever paying the rebuild.
    """

    name: str
    graph: "BipartiteGraph | None"  # degree-ordered (None until ensured)
    fingerprint: str
    profile: GraphProfile
    engine: "EPivoter | None"
    pool: "GraphPool | None" = None
    #: Wall-clock registration time, surfaced at ``/healthz`` so
    #: dashboards can tell a fresh restart from a long-running instance.
    registered_unix: float = 0.0
    state: "MutableGraphState | None" = None
    base_fingerprint: str = ""
    version: int = 0
    overlay_edges: int = 0
    #: Merged client-id graph of this version.
    view: "BipartiteGraph | None" = None

    def describe(self) -> dict:
        return {
            "graph": self.name,
            "fingerprint": self.fingerprint,
            "base_fingerprint": self.base_fingerprint or self.fingerprint,
            "version": self.version,
            "overlay_edges": self.overlay_edges,
            "registered_unix": self.registered_unix,
            **self.profile.to_dict(),
        }


_SHUTDOWN = object()


class ServiceExecutor:
    """Bounded-queue query executor over resident graphs.

    Parameters
    ----------
    max_queue:
        Capacity of the admission queue; a full queue rejects.
    threads:
        Request worker threads draining the queue.  Each runs one plan
        at a time, so this bounds engine concurrency.
    engine_workers:
        Process workers for exact counting (``None``/1 = in-process,
        0 = one per CPU).  With more than one, each registration opens a
        :class:`GraphPool` that lives until the graph is dropped — the
        ship-once contract.
    cache:
        The result cache (default: a fresh 1024-entry LRU).
    obs:
        Metrics registry receiving ``service.*`` counters, timers, and
        latency histograms (queue wait, per-engine compute).
    trace_ring:
        Capacity of the in-memory ring of finished request traces
        served at ``GET /v1/traces`` (the trace of every traced request
        is retained until it falls off the end).
    slow_log:
        An optional :class:`~repro.obs.trace.SlowQueryLog`; any traced
        request slower than its threshold is appended as one JSON line.
    """

    def __init__(
        self,
        max_queue: int = 64,
        threads: int = 2,
        engine_workers: "int | None" = None,
        cache: "ResultCache | None" = None,
        obs: "MetricsRegistry | None" = None,
        nodes_per_second: "float | None" = None,
        samples_per_second: "float | None" = None,
        trace_ring: int = 256,
        slow_log: "SlowQueryLog | None" = None,
        compact_edges: int = DEFAULT_COMPACT_EDGES,
        compact_fraction: float = DEFAULT_COMPACT_FRACTION,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if threads < 1:
            raise ValueError("threads must be positive")
        if compact_edges < 1:
            raise ValueError("compact_edges must be positive")
        if compact_fraction <= 0:
            raise ValueError("compact_fraction must be positive")
        self.compact_edges = compact_edges
        self.compact_fraction = compact_fraction
        self._obs = obs
        self.traces = TraceRing(trace_ring)
        self.slow_log = slow_log
        self.started_unix = time.time()
        self.cache = cache if cache is not None else ResultCache(obs=obs)
        self.engine_workers = resolve_workers(engine_workers)
        self._planner_overrides = {}
        if nodes_per_second is not None:
            self._planner_overrides["nodes_per_second"] = nodes_per_second
        if samples_per_second is not None:
            self._planner_overrides["samples_per_second"] = samples_per_second
        self._graphs: dict[str, RegisteredGraph] = {}
        self._inflight: dict[tuple, Future] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue)
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(threads)
        ]
        for thread in self._threads:
            thread.start()
        self._closed = False

    # ------------------------------------------------------------------
    # Graph registration
    # ------------------------------------------------------------------

    def register(
        self, graph: BipartiteGraph, name: "str | None" = None
    ) -> RegisteredGraph:
        """Make ``graph`` resident and return its registration record.

        The graph is degree-ordered once, profiled for the planner, and
        an engine is built over it; with ``engine_workers > 1`` the CSR
        buffers also ship to a fresh :class:`GraphPool` here — the only
        ship this graph will ever pay.  ``name`` defaults to a prefix of
        the content fingerprint.  Re-registering a name replaces the
        previous graph (its pool is closed).
        """
        ordered = graph if graph.is_degree_ordered() else graph.degree_ordered()[0]
        fingerprint = graph_fingerprint(ordered)
        if name is None:
            name = fingerprint[:12]
        engine = EPivoter(ordered)
        profile = GraphProfile.from_graph(ordered)
        pool = None
        if self.engine_workers > 1:
            pool = GraphPool(engine.graph, self.engine_workers, self._obs)
        # The mutable identity keeps the *client-id* graph as its base so
        # PATCHed edge ids mean what the client meant (and match what a
        # coordinator forwards to its shards).  The ordered snapshot is
        # what the engines run on; both hash to the same fingerprint
        # because degree ordering is deterministic.
        state = MutableGraphState(
            graph,
            fingerprint,
            compact_edges=self.compact_edges,
            compact_fraction=self.compact_fraction,
        )
        registered = RegisteredGraph(
            name=name,
            graph=ordered,
            fingerprint=fingerprint,
            profile=profile,
            engine=engine,
            pool=pool,
            registered_unix=time.time(),
            state=state,
            base_fingerprint=fingerprint,
            version=0,
            overlay_edges=0,
            view=graph,
        )
        with self._lock:
            previous = self._graphs.get(name)
            self._graphs[name] = registered
        if previous is not None and previous.pool is not None:
            previous.pool.close()
        self._incr("service.graphs_registered")
        self._gauge("service.resident_graphs", len(self._graphs))
        return registered

    def drop(self, name: str) -> bool:
        """Unregister ``name``; returns whether it existed."""
        with self._lock:
            registered = self._graphs.pop(name, None)
        if registered is not None and registered.pool is not None:
            registered.pool.close()
        self._gauge("service.resident_graphs", len(self._graphs))
        return registered is not None

    def graphs(self) -> "dict[str, RegisteredGraph]":
        with self._lock:
            return dict(self._graphs)

    # ------------------------------------------------------------------
    # Mutation path
    # ------------------------------------------------------------------

    def mutate(
        self,
        name: str,
        add_edges=(),
        remove_edges=(),
        create_vertices: bool = False,
        trace: "Trace" = NULL_TRACE,
    ) -> dict:
        """Apply one batched edge mutation to a registered graph.

        Validates and applies the batch through the graph's
        :class:`MutableGraphState` (all-or-nothing; raises
        :class:`~repro.service.mutation.UnknownVertices` unless
        ``create_vertices``), advances the serving fingerprint to the
        new ``(base_fingerprint, version)`` identity, and swaps in a
        fresh :class:`RegisteredGraph` record for the new version — so
        every cache entry keyed under the old fingerprint (here and on
        any shard) is unservable from this moment on.  If the overlay
        crossed its compaction bound the merged view is folded into a
        fresh CSR base, the profile recomputed, and the engine pool
        re-shipped, all before the swap.

        A batch that changes nothing is a true no-op: same version, same
        fingerprint, no record swap (idempotent retransmits).
        """
        if self._closed:
            raise RuntimeError("executor is shut down")
        start = time.perf_counter()
        try:
            with self._lock:
                registered = self._graphs.get(name)
            if registered is None:
                raise UnknownGraph(name)
            state = registered.state
            with state.lock:
                with trace.span("mutate") as sp:
                    result = state.apply_batch(
                        add_edges, remove_edges, create_vertices
                    )
                    if trace.enabled:
                        sp.set("added", result.added)
                        sp.set("removed", result.removed)
                        sp.set("version", result.version)
                        sp.set("changed", result.changed)
                compacted = False
                if result.changed:
                    record = RegisteredGraph(
                        name=name,
                        graph=None,
                        fingerprint=result.fingerprint,
                        # Stale between compactions by design: the profile
                        # only prices plans, and recomputing it per batch
                        # would cost a full edge scan.
                        profile=registered.profile,
                        engine=None,
                        pool=None,
                        registered_unix=registered.registered_unix,
                        state=state,
                        base_fingerprint=state.base_fingerprint,
                        version=result.version,
                        overlay_edges=result.overlay_edges,
                        view=state.view(),
                    )
                    if state.should_compact():
                        with trace.span("compact") as sp:
                            state.compact()
                            record.view = state.base
                            record.overlay_edges = 0
                            self._build_snapshot(
                                record,
                                rebuild_profile=True,
                                previous_pool=registered.pool,
                            )
                            if trace.enabled:
                                sp.set("num_edges", state.base.num_edges)
                        compacted = True
                        self._incr("graph.compactions")
                    with self._lock:
                        self._graphs[name] = record
                    if not compacted and registered.pool is not None:
                        # The compaction path re-shipped (and closed) the
                        # old pool already; otherwise retire it with the
                        # old record, matching re-registration semantics.
                        registered.pool.close()
                    self._incr("graph.mutations")
                self._gauge("graph.overlay_edges", state.overlay_edges)
                response = result.to_dict()
                response.update(
                    {
                        "graph": name,
                        "base_fingerprint": state.base_fingerprint,
                        "compacted": compacted,
                        "overlay_edges": state.overlay_edges,
                        "mutations_per_second": round(
                            state.mutations_per_second(), 3
                        ),
                    }
                )
                return response
        finally:
            elapsed = time.perf_counter() - start
            self._observe("mutation.apply_seconds", elapsed)
            if trace.enabled:
                trace.finish()
                self.traces.add(trace)

    def _ensure_snapshot(self, registered: RegisteredGraph) -> None:
        """Build the degree-ordered engine snapshot of a mutated record.

        Serialised per graph on ``state.lock`` and pinned to the record:
        even if the state has advanced to a newer version, the snapshot
        is built from *this record's* version view, so results computed
        on it are correct for the fingerprint they are cached under.
        """
        if registered.engine is not None:
            return
        state = registered.state
        with state.lock:
            if registered.engine is None:
                self._build_snapshot(registered)

    def _build_snapshot(
        self,
        registered: RegisteredGraph,
        rebuild_profile: bool = False,
        previous_pool: "GraphPool | None" = None,
    ) -> None:
        view = registered.view
        ordered = view if view.is_degree_ordered() else view.degree_ordered()[0]
        registered.graph = ordered
        registered.engine = EPivoter(ordered)
        if rebuild_profile:
            registered.profile = GraphProfile.from_graph(ordered)
        if self.engine_workers > 1:
            if previous_pool is not None:
                registered.pool = previous_pool.reship(ordered, self._obs)
            else:
                registered.pool = GraphPool(ordered, self.engine_workers, self._obs)
        elif previous_pool is not None:  # pragma: no cover - defensive
            previous_pool.close()
        self._incr("service.snapshot_builds")

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def submit(self, query: Query, trace: "Trace" = NULL_TRACE) -> Future:
        """Enqueue ``query``; the future resolves to the response dict.

        Resolution order: cache hit (immediate), coalesce onto an
        identical in-flight query, or enqueue — and raise
        :class:`QueryRejected` when the admission queue is full.

        ``trace`` (default: the no-op twin) receives the request's span
        tree: ``admission`` and ``cache_lookup`` here on the caller's
        thread, ``queue_wait``/``plan``/``engine:*``/``merge`` on the
        worker thread that picks the query up.
        """
        if self._closed:
            raise RuntimeError("executor is shut down")
        with trace.span("admission") as sp:
            with self._lock:
                registered = self._graphs.get(query.graph_id)
            if registered is None:
                sp.set("rejected", "unknown_graph")
                raise UnknownGraph(query.graph_id)
            key = cache_key(
                registered.fingerprint, query.kind, query.p, query.q,
                query.params(),
            )
            self._incr("service.requests")
        with trace.span("cache_lookup") as sp:
            cached = self.cache.get(key)
            sp.set("hit", cached is not None)
        if cached is not None:
            future: Future = Future()
            future.set_result({**cached, "cached": True})
            return future
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._incr("service.coalesced")
                # The waiter rides an engine run it did not start; its
                # own tree records the attachment, not the run.
                trace.set("coalesced", True)
                return inflight
            future = Future()
            try:
                self._queue.put_nowait(
                    (key, query, registered, future, trace, time.perf_counter())
                )
            except queue.Full:
                self._incr("service.rejected")
                raise QueryRejected(
                    "request queue is full; retry with backoff"
                ) from None
            self._inflight[key] = future
            self._gauge("service.queue_depth", self._queue.qsize())
        return future

    def execute(
        self,
        query: Query,
        timeout: "float | None" = None,
        trace: "Trace" = NULL_TRACE,
    ) -> dict:
        """Submit and wait — the synchronous convenience the server uses.

        When a real ``trace`` is passed it is finished here, retained in
        the :attr:`traces` ring, and — if a slow log is configured and
        the request crossed its threshold — appended there, whether the
        request succeeded or raised.
        """
        result: "dict | None" = None
        try:
            result = self.submit(query, trace=trace).result(timeout=timeout)
            return result
        finally:
            if trace.enabled:
                trace.finish()
                self.traces.add(trace)
                if self.slow_log is not None:
                    extra = {
                        "graph": query.graph_id,
                        "kind": query.kind,
                        "p": query.p,
                        "q": query.q,
                    }
                    if result is not None:
                        for field_name in ("method", "degraded", "cached"):
                            if field_name in result:
                                extra[field_name] = result[field_name]
                    if self.slow_log.maybe_record(trace, extra=extra):
                        self._incr("service.slow_queries")

    # ------------------------------------------------------------------
    # Shard side (cluster serving)
    # ------------------------------------------------------------------

    def shard_count(
        self,
        graph_id: str,
        fingerprint: str,
        p: int,
        q: int,
        ranges: "list[tuple[int, int]]",
        node_budget: "int | None" = None,
        time_budget: "float | None" = None,
        trace: "Trace" = NULL_TRACE,
    ) -> int:
        """Exact partial count over explicit root-edge id ranges.

        The shard half of the cluster scatter/gather: a coordinator
        sends ``[start, stop)`` edge-id ranges (ids are left-CSR
        offsets, the same space :meth:`BipartiteGraph.edge_index`
        defines) and this process counts only bicliques rooted at those
        edges.  ``fingerprint`` must match the resident graph's content
        fingerprint — partials over different graphs must never merge.

        Partials are cached under a ``shard_count`` key that folds in
        the ranges (budgets are excluded: a *completed* partial is exact
        regardless of what budget it ran under), so a re-scattered range
        that this shard already counted is answered from cache.
        """
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        with self._lock:
            registered = self._graphs.get(graph_id)
        if registered is None:
            raise UnknownGraph(graph_id)
        if fingerprint != registered.fingerprint:
            raise FingerprintMismatch(
                f"graph {graph_id!r}: coordinator expects fingerprint "
                f"{fingerprint[:12]}…, shard holds "
                f"{registered.fingerprint[:12]}…"
            )
        normalized = sorted((int(a), int(b)) for a, b in ranges)
        key = cache_key(
            registered.fingerprint, "shard_count", p, q,
            {"ranges": [list(r) for r in normalized]},
        )
        cached = self.cache.get(key)
        if cached is not None:
            return cached["value"]
        self._incr("cluster.shard_counts")
        if registered.engine is None:
            self._ensure_snapshot(registered)
        roots: "list[tuple[int, int]]" = []
        for start, stop in normalized:
            roots.extend(registered.graph.edges_in_range(start, stop))
        start_t = time.perf_counter()
        value = registered.engine.count_single_roots(
            p,
            q,
            roots,
            workers=self.engine_workers,
            pool=registered.pool,
            obs=self._obs,
            node_budget=node_budget,
            time_budget=time_budget,
            trace=trace,
        )
        self._observe(
            "service.engine_seconds",
            time.perf_counter() - start_t,
            labels={"engine": "shard_count"},
        )
        self.cache.put(key, {"value": value})
        return value

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            key, query, registered, future, trace, enqueued = item
            self._gauge("service.queue_depth", self._queue.qsize())
            wait = time.perf_counter() - enqueued
            trace.add_span("queue_wait", wait)
            self._observe("service.queue_wait_seconds", wait)
            try:
                result = self._run_query(query, registered, trace)
            except Exception as exc:  # noqa: BLE001 - delivered to the waiter
                future.set_exception(exc)
            else:
                self.cache.put(key, result)
                future.set_result(result)
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                self._queue.task_done()

    def _run_query(
        self,
        query: Query,
        registered: RegisteredGraph,
        trace: "Trace" = NULL_TRACE,
    ) -> dict:
        with trace.span("plan") as sp:
            plan = plan_query(
                registered.profile,
                query.kind,
                query.p,
                query.q,
                method=query.method,
                deadline=query.deadline,
                delta=query.delta,
                epsilon=query.epsilon,
                samples=query.samples,
                seed=query.seed,
                recently_mutated=registered.overlay_edges > 0,
                **self._planner_overrides,
            )
            if trace.enabled:
                sp.set("engine", plan.method)
                sp.set("reason", plan.reason)
                sp.set("exact", plan.exact)
                if plan.degraded:
                    sp.set("degraded", True)
                if plan.predicted_seconds is not None:
                    sp.set("predicted_seconds", round(plan.predicted_seconds, 6))
        start = time.perf_counter()
        degraded = plan.degraded
        method = plan.method
        try:
            value, extra = self._timed_plan(plan, query, registered, trace)
        except CountBudgetExceeded:
            if plan.fallback is None:
                raise
            self._incr("service.budget_exceeded")
            fallback = plan.fallback
            method = fallback.method
            degraded = True
            value, extra = self._timed_plan(
                fallback, query, registered, trace,
                degradation_reason="budget_exceeded",
            )
            plan = fallback
        elapsed = time.perf_counter() - start
        # A plan can also degrade from inside its run (an adaptive round
        # loop stopped by its time budget reports satisfied=False).
        if extra.pop("degraded", False):
            degraded = True
        if degraded:
            self._incr("service.degraded")
        self._add_time(f"service.compute.{query.kind}", elapsed)
        with trace.span("merge") as sp:
            response = {
                "graph": registered.name,
                "fingerprint": registered.fingerprint,
                "kind": query.kind,
                "p": query.p,
                "q": query.q,
                "value": value,
                "exact": plan.exact,
                "method": method,
                "degraded": degraded,
                "reason": plan.reason,
                "elapsed_ms": round(elapsed * 1000.0, 3),
                "cached": False,
            }
            response.update(extra)
        return response

    def _timed_plan(
        self,
        plan: QueryPlan,
        query: Query,
        registered: RegisteredGraph,
        trace: "Trace",
        degradation_reason: "str | None" = None,
    ) -> "tuple[int | float, dict]":
        """One engine run inside its ``engine:<method>`` span + histogram."""
        start = time.perf_counter()
        try:
            with trace.span(f"engine:{plan.method}") as sp:
                if trace.enabled and degradation_reason is not None:
                    sp.set("degradation_reason", degradation_reason)
                return self._execute_plan(plan, query, registered, trace=trace)
        finally:
            self._observe(
                "service.engine_seconds",
                time.perf_counter() - start,
                labels={"engine": plan.method},
            )

    def _execute_plan(
        self,
        plan: QueryPlan,
        query: Query,
        registered: RegisteredGraph,
        trace: "Trace" = NULL_TRACE,
    ) -> "tuple[int | float, dict]":
        """Run one plan; returns ``(value, extra response fields)``.

        Separated from the dispatch/fallback logic so tests can stub the
        engine run (e.g. to hold a request in flight deterministically).
        ``trace`` flows into the engines so their internal phases (core
        reduction, traversal, sampling rounds) nest under the
        ``engine:<method>`` span.
        """
        self._incr("service.engine_runs")
        self._incr(f"service.engine_runs.{plan.method}")
        p, q = query.p, query.q
        params = plan.params
        if plan.method == "delta":
            return self._delta_count(query, registered, trace)
        if registered.engine is None:
            self._ensure_snapshot(registered)
        graph = registered.graph
        if plan.method == "matrix":
            obs = self._obs if self._obs is not None else NULL_REGISTRY
            return matrix_count_single(graph, p, q, obs=obs, trace=trace), {}
        if plan.method == "epivoter":
            value = registered.engine.count_single(
                p,
                q,
                use_core=registered.pool is None,
                workers=self.engine_workers,
                pool=registered.pool,
                obs=self._obs,
                node_budget=params.get("node_budget"),
                time_budget=params.get("time_budget"),
                trace=trace,
            )
            return value, {}
        if plan.method == "stars":
            with trace.span("stars"):
                counts = BicliqueCounts(max(p, 2), max(q, 2))
                star_counts(graph, counts)
                return counts[p, q], {}
        if plan.method == "adaptive":
            result = adaptive_count(
                graph,
                p,
                q,
                delta=params.get("delta", 0.05),
                epsilon=params.get("epsilon", 0.05),
                max_samples=params.get("max_samples", 200_000),
                seed=params.get("seed"),
                time_budget=params.get("time_budget"),
                obs=self._obs,
                trace=trace,
            )
            lo, hi = result.interval
            return result.estimate, {
                "samples_used": result.samples_used,
                "satisfied": result.satisfied,
                "interval": [lo, hi],
                # An adaptive run that had to stop early delivered less
                # accuracy than asked: surface that as degradation.
                "degraded": not result.satisfied,
            }
        if plan.method == "hybrid":
            value = hybrid_count_single(
                graph, p, q,
                samples=params.get("samples", 20_000),
                seed=params.get("seed"),
                obs=self._obs,
                trace=trace,
            )
            return value, {"samples": params.get("samples")}
        if plan.method in ("zigzag", "zigzag++"):
            count_fn = (
                zigzag_count_single
                if plan.method == "zigzag"
                else zigzagpp_count_single
            )
            value = count_fn(
                graph, p, q,
                samples=params.get("samples", 20_000),
                seed=params.get("seed"),
                trace=trace,
            )
            return value, {"samples": params.get("samples")}
        raise ValueError(f"unexecutable plan method {plan.method!r}")

    def _delta_count(
        self,
        query: Query,
        registered: RegisteredGraph,
        trace: "Trace" = NULL_TRACE,
    ) -> "tuple[int, dict]":
        """Exact small-shape count from the maintained mutation totals.

        Pinned to the record's version: if the live state has already
        advanced (a mutation landed while this request waited in the
        queue), the maintained totals describe a *newer* graph than the
        cache key names, so the answer is counted on this version's own
        graph instead.  That record is retired: its pool, if any, was
        closed by the mutation, and a pool opened on it now would never
        be closed, so the count runs in-process on its snapshot engine,
        or on a throwaway engine over its view when it has none.
        """
        state = registered.state
        try:
            with trace.span("delta_totals"):
                value = state.maintained_count(
                    query.p, query.q, expected_version=registered.version
                )
            return value, {"maintained": True}
        except StaleVersion:
            self._incr("service.stale_totals_fallbacks")
            engine = registered.engine or EPivoter(registered.view)
            value = engine.count_single(
                query.p, query.q, obs=self._obs, trace=trace
            )
            return value, {"maintained": False}

    # ------------------------------------------------------------------
    # Lifecycle and metrics
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def shutdown(self, save_cache: bool = True) -> None:
        """Stop the worker threads, close graph pools, persist the cache."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=10)
        for registered in self.graphs().values():
            if registered.pool is not None:
                registered.pool.close()
        if save_cache and self.cache.path is not None:
            self.cache.save()

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _incr(self, name: str, amount: int = 1) -> None:
        if self._obs is not None and self._obs.enabled:
            self._obs.incr(name, amount)

    def _gauge(self, name: str, value: "int | float") -> None:
        if self._obs is not None and self._obs.enabled:
            self._obs.gauge(name, value)

    def _add_time(self, name: str, seconds: float) -> None:
        if self._obs is not None and self._obs.enabled:
            self._obs.add_time(name, seconds)

    def _observe(self, name: str, seconds: float, labels: "dict | None" = None) -> None:
        if self._obs is not None and self._obs.enabled:
            self._obs.observe(name, seconds, labels=labels)
