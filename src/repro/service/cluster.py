"""Sharded cluster serving: scatter/gather with an exact integer merge.

The multi-host lift of PR 1's process fan-out.  EPivoter roots one
search per edge, so any partition of the edge-id space into disjoint
ranges partitions the enumeration tree: shards count their ranges
independently and the coordinator sums the partials — exact Python
ints end to end, bit-identical to a single-node ``count_single``.

Topology (the PARBUTTERFLY rank-0 pattern, over HTTP instead of MPI):

* **shards** are ordinary ``repro-biclique serve`` processes started
  with ``--shard``, which enables the internal ``POST /v1/shard/count``
  endpoint (an exact partial count over explicit ``[start, stop)``
  edge-id ranges).
* **the coordinator** (``repro-biclique coordinate --shards ...``) is a
  :class:`ClusterExecutor` — a drop-in :class:`ServiceExecutor` whose
  exact ``epivoter`` plans scatter weighted root-edge ranges across the
  shards over persistent HTTP connections and merge the gathered
  partials.  Everything else (planner, cache, coalescing, estimator
  engines, tracing) is inherited: estimator plans run locally on the
  coordinator.

Exactness and failure semantics:

* Registration ships the degree-ordered edge list to every shard and
  verifies the returned content fingerprint matches the coordinator's —
  all shards provably hold the same graph before a single query runs.
  Every shard request carries the fingerprint again; a mismatch is a
  hard 409, never a silently wrong merge.
* The edge-id space is cut into ``len(shards) * RANGES_PER_WORKER``
  contiguous ranges of near-equal *weight* by the same partitioner that
  cuts local worker chunks (:func:`repro.utils.parallel.weighted_ranges`
  over per-root candidate-pair work), memoised on each version's
  engine, so losing a shard loses a re-scatterable set of small
  ranges, not half the query.
* A failed shard (connection refused/reset, timeout, 5xx) is marked
  unhealthy and its ranges are re-scattered across the survivors —
  still an exact merge.  When no survivor remains, or the remaining
  deadline cannot plausibly absorb the lost work, the coordinator
  degrades to the plan's estimator fallback and answers with
  ``degraded: true`` and a shard-loss reason.  A shard that reports
  ``budget_exceeded`` (HTTP 503) is healthy but out of time: that is
  the ordinary :class:`CountBudgetExceeded` degradation path, not a
  failure.
* Mutations (``PATCH /v1/graphs/<name>``) mirror registration: the raw
  batch is forwarded to every shard first, and the coordinator only
  applies it locally after the whole fleet unanimously reports the same
  post-mutation fingerprint (then verifies its own apply matches).  Any
  rejection or divergence is a :class:`ClusterMutationError` with the
  coordinator still on the old version — scatter requests keep carrying
  the old fingerprint, so a diverged shard answers 409, never a
  silently wrong merge.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from http.client import HTTPConnection, HTTPException
from typing import TYPE_CHECKING
from urllib.parse import quote

from repro.core.epivoter import CountBudgetExceeded
from repro.graph.bigraph import BipartiteGraph
from repro.obs.trace import NULL_TRACE
from repro.service.executor import (
    FingerprintMismatch,
    Query,
    RegisteredGraph,
    ServiceExecutor,
    UnknownGraph,
)
from repro.service.fingerprint import graph_fingerprint
from repro.service.planner import NODES_PER_SECOND, QueryPlan
from repro.utils.parallel import RANGES_PER_WORKER

if TYPE_CHECKING:
    from repro.obs.trace import Trace

__all__ = [
    "ShardError",
    "ClusterRegistrationError",
    "ClusterMutationError",
    "ShardClient",
    "ClusterExecutor",
]

#: Minimum wall-clock seconds of deadline left for a re-scatter round
#: to be worth attempting at all.
_MIN_RESCATTER_SECONDS = 0.01

#: A re-scatter is attempted only when the lost work is predicted to
#: fit in this share of the remaining deadline (room for the merge and
#: a possible estimator fallback).
_RESCATTER_DEADLINE_SHARE = 0.5


class ShardError(RuntimeError):
    """A shard request failed (unreachable, timed out, or 5xx)."""


class ClusterRegistrationError(RuntimeError):
    """Registering a graph on a shard failed or fingerprints diverged."""


class ClusterMutationError(RuntimeError):
    """Propagating a mutation to the shard fleet failed or diverged.

    Raised *before* the coordinator applies the batch locally whenever
    any shard rejects the PATCH or the shards' post-mutation
    fingerprints disagree: the coordinator stays on its old version, so
    it never serves a graph state the fleet does not unanimously hold.
    Shards that did apply the batch are now one version ahead — every
    subsequent scatter to them fails the fingerprint check (hard 409,
    never a silently wrong merge) until the operator re-registers the
    graph or replays the batch.
    """


class ShardClient:
    """One shard endpoint: persistent connections, retries, health.

    Connections are pooled (plain stdlib :class:`HTTPConnection`, one
    per concurrent request, reused across requests) so steady-state
    scatter rounds pay zero TCP handshakes.  Connection-level errors
    retry up to ``retries`` times on a fresh connection; *timeouts* do
    not retry — a retry against a deadline only burns what little time
    is left, and the caller's re-scatter logic owns that decision.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 1,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.healthy = True
        self.failures = 0
        self.last_error: "str | None" = None
        self._idle: "list[HTTPConnection]" = []
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str, **kwargs) -> "ShardClient":
        """Build a client from a ``host:port`` spec (host defaults to
        127.0.0.1 when the spec is just a port)."""
        host, _, port = spec.strip().rpartition(":")
        if not port:
            raise ValueError(f"shard spec {spec!r} needs host:port")
        return cls(host or "127.0.0.1", int(port), **kwargs)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:
        return f"ShardClient({self.address})"

    # -- connection pool ----------------------------------------------

    def _acquire(self, timeout: float) -> HTTPConnection:
        with self._lock:
            if self._idle:
                conn = self._idle.pop()
                conn.timeout = timeout
                if conn.sock is not None:
                    conn.sock.settimeout(timeout)
                return conn
        return HTTPConnection(self.host, self.port, timeout=timeout)

    def _release(self, conn: HTTPConnection) -> None:
        with self._lock:
            self._idle.append(conn)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- requests ------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        timeout: "float | None" = None,
    ) -> "tuple[int, dict]":
        """One JSON round trip; returns ``(status, decoded body)``.

        Raises :class:`ShardError` when the shard cannot be reached
        within ``retries`` fresh-connection attempts or the socket
        times out.  HTTP error statuses are *returned*, not raised —
        the caller decides what a 409 or 503 means.
        """
        effective = self.timeout if timeout is None else timeout
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        last_exc: "Exception | None" = None
        for _attempt in range(self.retries + 1):
            conn = self._acquire(effective)
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except TimeoutError as exc:
                conn.close()
                raise ShardError(
                    f"shard {self.address} timed out after {effective:.3f}s"
                ) from exc
            except (OSError, HTTPException) as exc:
                conn.close()
                last_exc = exc
                continue
            self._release(conn)
            try:
                document = json.loads(data) if data else {}
            except ValueError:
                document = {"error": data.decode(errors="replace")}
            return response.status, document
        raise ShardError(
            f"shard {self.address} unreachable: {last_exc}"
        ) from last_exc

    def describe(self) -> dict:
        return {
            "shard": self.address,
            "healthy": self.healthy,
            "failures": self.failures,
            "last_error": self.last_error,
        }


class ClusterExecutor(ServiceExecutor):
    """A :class:`ServiceExecutor` that scatters exact counts to shards.

    Drop-in for the HTTP server: the public API, planner, cache,
    coalescing, and estimator paths are all inherited.  Only exact
    ``epivoter`` plans change execution: instead of running the local
    engine, the coordinator scatters the engine's memoised weighted
    root-edge ranges across the shard fleet and sums the partials.

    The result cache needs no topology in its keys — an exact count is
    the same integer no matter how many shards computed it — so cached
    entries survive shard fleet changes, and the cache genuinely fronts
    the cluster.
    """

    def __init__(self, shards: "list[ShardClient]", **kwargs):
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        super().__init__(**kwargs)
        self._shards = list(shards)
        # Deadline feasibility scales with the fleet (the planner prices
        # exact runs against nodes_per_second * shards).
        self._planner_overrides["shards"] = len(shards)
        self._gauge("cluster.shards", len(shards))

    # ------------------------------------------------------------------
    # Registration: every shard first, fingerprint-verified
    # ------------------------------------------------------------------

    def register(
        self, graph: BipartiteGraph, name: "str | None" = None
    ) -> RegisteredGraph:
        """Register on every shard, verify fingerprints, then locally.

        Shards register *first*: once the graph is queryable locally, a
        scatter may begin immediately, so by then every shard must hold
        it.  The *client-id* edge list is what ships — every shard then
        holds the same mutable base as the coordinator, so a forwarded
        ``PATCH`` batch means the same edges everywhere.  Each shard
        degree-orders and fingerprints independently; any returned
        fingerprint that differs from the coordinator's is a
        :class:`ClusterRegistrationError` — the guarantee that merged
        partials all describe the same graph.
        """
        ordered = graph if graph.is_degree_ordered() else graph.degree_ordered()[0]
        fingerprint = graph_fingerprint(ordered)
        if name is None:
            name = fingerprint[:12]
        payload = {
            "name": name,
            "n_left": graph.n_left,
            "n_right": graph.n_right,
            "edges": [[u, v] for u, v in graph.edges()],
        }
        for client in self._shards:
            try:
                status, document = client.request("POST", "/v1/graphs", payload)
            except ShardError as exc:
                raise ClusterRegistrationError(
                    f"registering {name!r} on shard {client.address}: {exc}"
                ) from exc
            if status != 200:
                raise ClusterRegistrationError(
                    f"shard {client.address} rejected graph {name!r} "
                    f"(HTTP {status}): {document.get('error')}"
                )
            if document.get("fingerprint") != fingerprint:
                raise ClusterRegistrationError(
                    f"shard {client.address} fingerprint "
                    f"{str(document.get('fingerprint'))[:12]}… != coordinator "
                    f"{fingerprint[:12]}… for graph {name!r}"
                )
        # Register the client-id graph (not the ordered copy): the local
        # mutable base must share the shards' id space so PATCH batches
        # validate and apply identically on both sides.  Both hash to
        # the same fingerprint — degree ordering is deterministic.
        return super().register(graph, name=name)

    # ------------------------------------------------------------------
    # Mutation: every shard first, unanimity-verified, then locally
    # ------------------------------------------------------------------

    def mutate(
        self,
        name: str,
        add_edges=(),
        remove_edges=(),
        create_vertices: bool = False,
        trace: "Trace" = NULL_TRACE,
    ) -> dict:
        """Propagate one batch to every shard, then apply it locally.

        The raw batch is forwarded verbatim — normalisation and digest
        chaining are deterministic, so every shard independently arrives
        at the same post-mutation fingerprint.  Ordering is the mirror
        of :meth:`register`: shards move first, and the coordinator only
        advances once the whole fleet unanimously reports the same new
        fingerprint, which the coordinator's own apply must then match.
        Any rejection or divergence raises :class:`ClusterMutationError`
        with the coordinator still on the old version, so a query can
        never be served from a graph state the fleet does not share.
        The batch is pre-validated locally first — a malformed or
        vertex-unknown batch never reaches (and partially mutates) the
        fleet.  Held under the graph's state lock end to end, so
        concurrent PATCHes serialise into one cluster-wide version
        order.
        """
        with self._lock:
            registered = self._graphs.get(name)
        if registered is None:
            raise UnknownGraph(name)
        state = registered.state
        payload = {
            "add_edges": [[int(u), int(v)] for u, v in add_edges],
            "remove_edges": [[int(u), int(v)] for u, v in remove_edges],
            "create_vertices": bool(create_vertices),
        }
        with state.lock:
            state.validate_batch(add_edges, remove_edges, create_vertices)
            reports: "list[tuple[str, str]]" = []
            with trace.span("propagate", shards=len(self._shards)):
                for client in self._shards:
                    try:
                        status, document = client.request(
                            "PATCH",
                            f"/v1/graphs/{quote(name, safe='')}",
                            payload,
                        )
                    except ShardError as exc:
                        self._incr("cluster.mutation_failures")
                        raise ClusterMutationError(
                            f"mutating {name!r} on shard "
                            f"{client.address}: {exc}"
                        ) from exc
                    if status != 200:
                        self._incr("cluster.mutation_failures")
                        raise ClusterMutationError(
                            f"shard {client.address} rejected mutation of "
                            f"{name!r} (HTTP {status}): "
                            f"{document.get('error')}"
                        )
                    reports.append(
                        (client.address, str(document.get("fingerprint")))
                    )
            fingerprints = {fp for _, fp in reports}
            if len(fingerprints) != 1:
                self._incr("cluster.mutation_failures")
                raise ClusterMutationError(
                    f"shards diverged after mutating {name!r}: "
                    + ", ".join(f"{addr}={fp[:20]}" for addr, fp in reports)
                )
            response = super().mutate(
                name,
                add_edges=add_edges,
                remove_edges=remove_edges,
                create_vertices=create_vertices,
                trace=trace,
            )
            shard_fp = fingerprints.pop()
            if shard_fp != response["fingerprint"]:
                self._incr("cluster.mutation_failures")
                raise ClusterMutationError(
                    f"coordinator fingerprint "
                    f"{response['fingerprint'][:20]} != shard consensus "
                    f"{shard_fp[:20]} after mutating {name!r}"
                )
            response["shards_mutated"] = len(reports)
            return response

    # ------------------------------------------------------------------
    # Execution: scatter exact plans, inherit everything else
    # ------------------------------------------------------------------

    def _execute_plan(
        self,
        plan: QueryPlan,
        query: Query,
        registered: RegisteredGraph,
        trace: "Trace" = NULL_TRACE,
    ) -> "tuple[int | float, dict]":
        if plan.method != "epivoter":
            return super()._execute_plan(plan, query, registered, trace=trace)
        return self._scatter_count(plan, query, registered, trace)

    def _scatter_count(
        self,
        plan: QueryPlan,
        query: Query,
        registered: RegisteredGraph,
        trace: "Trace",
    ) -> "tuple[int, dict]":
        # Each version's record has its own engine, so the engine's
        # memoised cut is pinned to exactly this version's edge ids.
        if registered.engine is None:
            self._ensure_snapshot(registered)
        ranges = registered.engine.root_ranges(
            len(self._shards) * RANGES_PER_WORKER
        )
        if not ranges:  # empty graph: nothing to scatter
            return 0, {"shards_used": 0}
        time_budget = plan.params.get("time_budget")
        deadline_at = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self._incr("cluster.scatters")
        targets = [client for client in self._shards if client.healthy]
        if not targets:
            # All marked unhealthy: try the whole fleet anyway — a
            # recovered shard heals its flag on the first success.
            targets = list(self._shards)
        with trace.span(
            "scatter", shards=len(targets), ranges=len(ranges)
        ):
            assignment = {
                client: ranges[i :: len(targets)]
                for i, client in enumerate(targets)
            }
            assignment = {c: rs for c, rs in assignment.items() if rs}
        total = 0
        shards_used = 0
        rescatters = 0
        lost: "list[tuple[int, int, int]]" = []
        lost_reasons: "list[str]" = []
        with trace.span("gather", shards=len(assignment)) as gather_span:
            while assignment:
                partials, failed = self._gather_round(
                    assignment, query, registered, plan, deadline_at, trace
                )
                total += sum(partials)
                shards_used += len(partials)
                self._gauge(
                    "cluster.shards_healthy",
                    sum(1 for c in self._shards if c.healthy),
                )
                if not failed:
                    break
                lost = [r for _, rs in failed for r in rs]
                lost_reasons = [reason for reason, _ in failed]
                survivors = [
                    client
                    for client in assignment
                    if client.healthy
                ]
                decision = self._rescatter_decision(
                    lost, survivors, deadline_at
                )
                if decision is not None:
                    return self._degrade_shard_loss(
                        plan, query, registered, trace,
                        f"{'; '.join(lost_reasons)} ({decision})",
                    )
                self._incr("cluster.rescatters")
                rescatters += 1
                assignment = {
                    client: lost[i :: len(survivors)]
                    for i, client in enumerate(survivors)
                }
                assignment = {
                    c: rs for c, rs in assignment.items() if rs
                }
            if trace.enabled and rescatters:
                gather_span.set("rescatters", rescatters)
        extra = {"shards_used": shards_used}
        if rescatters:
            extra["rescatters"] = rescatters
        return total, extra

    def _gather_round(
        self,
        assignment: "dict[ShardClient, list[tuple[int, int, int]]]",
        query: Query,
        registered: RegisteredGraph,
        plan: QueryPlan,
        deadline_at: "float | None",
        trace: "Trace",
    ) -> "tuple[list[int], list[tuple[str, list[tuple[int, int, int]]]]]":
        """One scatter round: ``(partials, [(reason, lost ranges)...])``.

        A :class:`CountBudgetExceeded` from any shard propagates — the
        shard is healthy, the deadline is simply blown, and the
        inherited fallback machinery owns that degradation.
        """
        partials: "list[int]" = []
        failed: "list[tuple[str, list[tuple[int, int, int]]]]" = []
        with ThreadPoolExecutor(max_workers=len(assignment)) as pool:
            futures = {
                pool.submit(
                    self._shard_count_call,
                    client, query, registered, plan, shard_ranges, deadline_at,
                ): (client, shard_ranges)
                for client, shard_ranges in assignment.items()
            }
            for future in as_completed(futures):
                client, shard_ranges = futures[future]
                try:
                    value, elapsed = future.result()
                except ShardError as exc:
                    client.healthy = False
                    client.failures += 1
                    client.last_error = str(exc)
                    self._incr("cluster.shard_failures")
                    failed.append((str(exc), shard_ranges))
                    continue
                client.healthy = True
                client.last_error = None
                partials.append(value)
                trace.add_span(
                    f"shard:{client.address}", elapsed,
                    ranges=len(shard_ranges),
                )
        return partials, failed

    def _shard_count_call(
        self,
        client: ShardClient,
        query: Query,
        registered: RegisteredGraph,
        plan: QueryPlan,
        shard_ranges: "list[tuple[int, int, int]]",
        deadline_at: "float | None",
    ) -> "tuple[int, float]":
        """One ``POST /v1/shard/count``; returns ``(partial, seconds)``."""
        timeout = client.timeout
        body = {
            "graph": registered.name,
            "fingerprint": registered.fingerprint,
            "p": query.p,
            "q": query.q,
            "ranges": [[start, stop] for start, stop, _ in shard_ranges],
        }
        node_budget = plan.params.get("node_budget")
        if node_budget is not None:
            body["node_budget"] = node_budget
        if deadline_at is not None:
            # The socket timeout tracks the query deadline: a stalled
            # shard exhausts the deadline here, deterministically, and
            # the caller then decides between re-scatter and degrade.
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise ShardError(
                    f"shard {client.address}: deadline exhausted before send"
                )
            body["time_budget"] = remaining
            timeout = min(timeout, max(0.05, remaining))
        self._incr("cluster.shard_requests")
        start = time.perf_counter()
        status, document = client.request(
            "POST", "/v1/shard/count", body, timeout=timeout
        )
        elapsed = time.perf_counter() - start
        self._observe(
            "cluster.shard_seconds", elapsed, labels={"shard": client.address}
        )
        if status == 200:
            return int(document["value"]), elapsed
        if status == 503 and document.get("budget_exceeded"):
            raise CountBudgetExceeded(
                f"shard {client.address}: {document.get('error')}"
            )
        if status == 409:
            raise FingerprintMismatch(
                f"shard {client.address}: {document.get('error')}"
            )
        raise ShardError(
            f"shard {client.address} HTTP {status}: {document.get('error')}"
        )

    def _rescatter_decision(
        self,
        lost: "list[tuple[int, int, int]]",
        survivors: "list[ShardClient]",
        deadline_at: "float | None",
    ) -> "str | None":
        """None to re-scatter ``lost`` across ``survivors``, else why not."""
        if not survivors:
            return "no surviving shards"
        if deadline_at is None:
            return None
        remaining = deadline_at - time.monotonic()
        if remaining <= _MIN_RESCATTER_SECONDS:
            return f"deadline exhausted ({remaining:.3f}s left)"
        lost_weight = sum(weight for _, _, weight in lost)
        nps = self._planner_overrides.get("nodes_per_second", NODES_PER_SECOND)
        predicted = lost_weight / (nps * len(survivors))
        if predicted > remaining * _RESCATTER_DEADLINE_SHARE:
            return (
                f"re-scatter predicted {predicted:.3f}s > "
                f"{remaining:.3f}s deadline remainder"
            )
        return None

    def _degrade_shard_loss(
        self,
        plan: QueryPlan,
        query: Query,
        registered: RegisteredGraph,
        trace: "Trace",
        reason: str,
    ) -> "tuple[int | float, dict]":
        """Answer with the local estimator fallback, marked degraded.

        Partial sums are *never* returned as exact counts: a lost shard
        either re-scatters (exact) or lands here (estimate, flagged).
        """
        self._incr("cluster.degraded")
        fallback = plan.fallback
        if fallback is None:
            raise ShardError(f"shard loss with no fallback plan: {reason}")
        value, extra = super()._execute_plan(
            fallback, query, registered, trace=trace
        )
        extra.pop("degraded", None)
        return value, {
            **extra,
            "degraded": True,
            "method": fallback.method,
            "exact": fallback.exact,
            "reason": f"shard loss ({reason}); {fallback.method} fallback",
        }

    # ------------------------------------------------------------------
    # Health and lifecycle
    # ------------------------------------------------------------------

    def shard_health(self) -> "list[dict]":
        """Per-shard health records, surfaced at ``/healthz``."""
        return [client.describe() for client in self._shards]

    def shutdown(self, save_cache: bool = True) -> None:
        super().shutdown(save_cache=save_cache)
        for client in self._shards:
            client.close()
