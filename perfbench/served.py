"""``serve-read`` and ``serve-write``: load against a live ``serve`` process.

Both workloads boot ``repro-biclique serve --threads 2 --engine-workers
2`` as a subprocess, register the generated graphs over HTTP, and drive
it from this process with two client threads.  The program is
observed only from outside: response fields, the span trees that
``"trace": true`` returns, ``GET /v1/traces/<id>`` for PATCH traces, and
``GET /metrics`` counters.
"""

from __future__ import annotations

import http.client
import re
import threading
import time

import harness
import inputs
from stats import Tally, median, percentile, self_times, tail, walk_spans

#: Server set-ups per run (boot + registrations); ``setup_s`` is their
#: median and the last server carries the load.
SETUP_REPS = 5

#: Requests each way behind ``service.keepalive_stall_ms``.
KEEPALIVE_PROBES = 20

#: serve-write: the open-loop PATCH feed (batches per second and edge
#: toggles per batch).  At this rate the default 4096-edge compaction
#: bound is crossed every ~7 s, so a run sees several compaction and
#: pool re-ship cycles, and 30 s give the >= 100 writes a p90 needs.
WRITE_RATE = 4.0
WRITE_BATCH = 150

_VERSION_RE = re.compile(r"#v(\d+)-")


def _boot(root: str, graphs) -> "tuple[harness.Server, list[tuple[float, list[float]]]]":
    setups, server = [], None
    for rep in range(SETUP_REPS):
        if server is not None:
            server.stop()
        server = harness.Server(root).start()
        client = server.client()
        register_s = []
        for name, n_left, n_right, edges in graphs:
            t0 = time.perf_counter()
            harness.register(client, name, n_left, n_right, edges)
            register_s.append(time.perf_counter() - t0)
        setups.append((server.boot_s, register_s))
    return server, setups


class _Record:
    __slots__ = ("kind", "path", "body", "status", "payload", "latency", "error", "start")

    def __init__(self, kind, path, body, start):
        self.kind, self.path, self.body, self.start = kind, path, body, start
        self.status, self.payload, self.latency, self.error = None, {}, None, None


def _send(client: harness.Client, method: str, record: _Record, t_from: float) -> None:
    """Send one request; latency runs from ``t_from`` (send or due time)."""
    try:
        record.status, record.payload = client.request(method, record.path, record.body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        record.error = type(exc).__name__
    record.latency = time.perf_counter() - t_from


def _closed_loop(server, stream, until: float, trace: bool, records: list,
                 pause: float = 0.0) -> None:
    """One client: send the next request ``pause`` s after the previous answer."""
    client = server.client()
    serial = 0
    while time.perf_counter() < until:
        if serial and pause:
            time.sleep(pause)
        kind, path, body = next(stream)
        if trace:
            # Alternate traced and untraced requests, so the tracing
            # overhead compares like with like inside one run.
            body["trace"] = serial % 2 == 1
        serial += 1
        record = _Record(kind, path, body, time.perf_counter())
        records.append(record)  # list.append is atomic; order is not used
        _send(client, "POST", record, record.start)


def _account(record: _Record, tally: Tally) -> bool:
    """Count transport errors and non-2xx answers; True if answered 200."""
    if record.error is not None or record.status is None:
        tally.fail(f"transport:{record.error}")
        return False
    if record.status == 429:
        tally.fail("rejected:429")
        return False
    if not 200 <= record.status < 300:
        tally.fail(f"status:{record.status}")
        return False
    return True


def _ms(seconds_list) -> list:
    return [s * 1000.0 for s in seconds_list]


def _untraced(records) -> list:
    """Latencies of the requests sent without ``"trace": true``."""
    return [r.latency for r in records if not r.body.get("trace")]


def _summary_latency(values_s, want: float = 90.0) -> "tuple[float, float, float]":
    """``(p50_ms, tail_ms, tail_q)`` of a latency class."""
    values = _ms(values_s)
    value, q = tail(values, want)
    return percentile(values, 50.0), value, q


def _span_table(records) -> "tuple[dict, list]":
    """Self times by span name over every traced response, plus the trees."""
    selfs: "dict[str, list[float]]" = {}
    trees = []
    for record in records:
        doc = (record.payload or {}).get("trace")
        if doc:
            self_times(doc["spans"], selfs)
            trees.append((record, doc))
    return selfs, trees


def _p50(selfs: dict, name: str) -> float:
    values = selfs.get(name)
    return median(values) if values else 0.0


def _layers_common(selfs, trees, counters, setups) -> dict:
    """Per-layer metrics both served workloads report."""
    http_ms = [r.latency * 1000.0 - doc["duration_ms"] for r, doc in trees]
    queue = selfs.get("queue_wait") or [0.0]
    engine_spans: "dict[str, list[float]]" = {}
    for _r, doc in trees:
        for span in walk_spans(doc["spans"]):
            if span["name"].startswith("engine:"):
                engine_spans.setdefault(span["name"], []).append(span["duration_ms"])
    estimator = engine_spans.get("engine:hybrid", []) + engine_spans.get("engine:zigzag++", [])
    drawn = counters.get("zigzag.samples_drawn", 0)
    return {
        "service.http_ms": median(http_ms) if http_ms else 0.0,
        "service.admission_ms": _p50(selfs, "admission"),
        "service.cache_lookup_ms": _p50(selfs, "cache_lookup"),
        "service.queue_wait_ms_p50": percentile(queue, 50.0),
        "service.queue_wait_ms_p90": tail(queue, 90.0)[0],
        "service.plan_ms": _p50(selfs, "plan"),
        "service.merge_ms": _p50(selfs, "merge"),
        "service.cache_hit_ratio": (
            counters.get("cache.hits", 0)
            / max(1, counters.get("cache.hits", 0) + counters.get("cache.misses", 0))),
        "service.coalesced": counters.get("service.coalesced", 0),
        "service.rejected": counters.get("service.rejected", 0),
        "service.boot_s": median(s[0] for s in setups),
        "service.register_ms": median(x * 1000.0 for s in setups for x in s[1]),
        "core.epivoter.core_reduce_ms": _p50(selfs, "core_reduce"),
        "core.epivoter.traverse_ms": _p50(selfs, "traverse"),
        "core.matrix_ms": _p50(selfs, "closed_form"),
        "core.stars_ms": _p50(selfs, "stars"),
        "core.delta_ms": _p50(selfs, "delta_totals"),
        "core.estimator_ms": median(estimator) if estimator else 0.0,
        "core.zigzag.hit_ratio": (
            counters.get("zigzag.sample_hits", 0) / drawn if drawn else 0.0),
        "parallel.ships": counters.get("parallel.graph_ships", 0),
        "parallel.reships": counters.get("parallel.graph_reships", 0),
        "parallel.ship_mb": counters.get("parallel.graph_ship_bytes", 0) / 2**20,
        "parallel.pool_reuses": counters.get("parallel.pool_reuses", 0),
    }


def _plan_errors(trees) -> dict:
    """Actual engine seconds over the planner's ``predicted_seconds``."""
    ratios: "dict[str, list[float]]" = {}
    for _record, doc in trees:
        predicted = engine_ms = None
        method = None
        for span in walk_spans(doc["spans"]):
            attrs = span.get("attributes", {})
            if span["name"] == "plan" and attrs.get("predicted_seconds"):
                predicted, method = attrs["predicted_seconds"], attrs.get("engine")
            elif method and span["name"] == f"engine:{method}":
                engine_ms = span["duration_ms"]
                break
        if predicted and engine_ms is not None:
            ratios.setdefault(method, []).append(engine_ms / 1000.0 / predicted)
    return {
        f"service.plan_error.{m}": median(ratios[m]) if ratios.get(m) else 0.0
        for m in ("epivoter", "matrix")
    }


def _overhead_pct(records) -> float:
    """Median traced latency over median untraced latency of one class."""
    traced = [r.latency for r in records if r.body.get("trace")]
    plain = [r.latency for r in records if not r.body.get("trace")]
    if not traced or not plain:
        return 0.0
    return 100.0 * (median(traced) / median(plain) - 1.0)


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------


def _read_oracle(graphs) -> dict:
    """Exact counts up to (5, 5) for every graph, from one all-pairs walk."""
    from repro.core.epivoter import EPivoter
    from repro.graph.bigraph import BipartiteGraph

    oracle = {}
    for name, n_left, n_right, edges in graphs:
        ordered = BipartiteGraph(n_left, n_right, edges).degree_ordered()[0]
        counts = EPivoter(ordered).count_all(5, 5)
        for p in range(1, 6):
            for q in range(1, 6):
                oracle[(name, p, q)] = counts[p, q]
    return oracle


def _keepalive_stall(server, body: dict) -> float:
    """Median hit latency over one kept-alive connection minus over fresh ones.

    Taken on the idle server after the load: the same cached body is
    sent ``KEEPALIVE_PROBES`` times each way.
    """
    latencies = {}
    for keep_alive in (False, True):
        client = server.client(keep_alive)
        samples = []
        for _ in range(KEEPALIVE_PROBES):
            t0 = time.perf_counter()
            client.request("POST", "/v1/count", body)
            samples.append(time.perf_counter() - t0)
        client.close()
        latencies[keep_alive] = median(samples) * 1000.0
    return latencies[True] - latencies[False]


def _warm_pools(server, names) -> "list[_Record]":
    """Start every graph's engine-worker pool before the timed region.

    The workers fork on a pool's first EPivoter count and inherit the
    server's resident pages at that moment.  Forking them all right
    after registration makes the summed peak memory independent of
    which requests happened to come first.  The answers are checked
    with the rest.
    """
    client = server.client()
    records = []
    for name in names:
        record = _Record("warm", "/v1/count", {"graph": name, "p": 3, "q": 4, "seed": -1},
                         time.perf_counter())
        _send(client, "POST", record, record.start)
        records.append(record)
    return records


def run_read(root: str, seed: int, graphs, seconds: float, trace: bool) -> dict:
    oracle = _read_oracle(graphs)
    names = [g[0] for g in graphs]
    server, setups = _boot(root, graphs)
    records: "list[_Record]" = []
    repeats: "list[_Record]" = []
    with server:
        warm = _warm_pools(server, names)
        with harness.RssSampler(server) as rss:
            t0 = time.perf_counter()
            until = t0 + seconds
            threads = [
                threading.Thread(target=_closed_loop, args=(
                    server, inputs.read_requests(seed, names), until, trace, records)),
                threading.Thread(target=_closed_loop, args=(
                    server, inputs.repeat_requests(seed, names), until, trace, repeats,
                    inputs.REPEAT_PAUSE_S)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - t0
        counters = harness.counters(server.client())
        stall_ms = None
        if trace:
            stall_ms = _keepalive_stall(server, next(inputs.repeat_requests(seed, names))[2])

    tally = Tally()
    hits, exact, estimates, errors = [], [], [], []
    methods: "dict[str, int]" = {}
    completed = 0
    for record in warm + records + repeats:
        if not _account(record, tally):
            continue
        payload = record.payload
        want = oracle[(record.body["graph"], record.body["p"], record.body["q"])]
        if payload.get("exact"):
            tally.check(payload.get("value"), want,
                        f"{record.body['graph']}{record.body['p'], record.body['q']}")
        else:
            tally.ok()
            errors.append(100.0 * abs(payload["value"] - want) / want if want else 0.0)
        if record.kind in ("warm", "repeat"):
            if payload.get("cached"):
                hits.append(record)
            continue
        completed += 1
        methods[payload.get("method")] = methods.get(payload.get("method"), 0) + 1
        (exact if record.path == "/v1/count" else estimates).append(record)

    # Client-side class latencies; a traced run takes them from its
    # untraced half only.
    hit50, hit90, hit_q = _summary_latency(_untraced(hits))
    ex50, ex90, ex_q = _summary_latency([r.latency for r in exact])
    est50 = percentile(_ms(_untraced(estimates)), 50.0)
    requests = len(records) + len(repeats)
    properties = {
        "edges": [len(g[3]) for g in graphs],
        "requests": requests,
        "hit_share": round(len(hits) / max(1, requests), 3),
        "method_share": {m: round(n / max(1, requests), 3) for m, n in sorted(methods.items())},
        "samples": {"hit": len(hits), "exact": len(exact), "estimate": len(estimates),
                    "inexact": len(errors)},
        "percentiles": {"hit_tail": hit_q, "exact_tail": ex_q},
        "hit_p50_ms": hit50, "hit_p90_ms": hit90, "estimate_p50_ms": est50,
        "estimate_err_pct": median(errors) if errors else None,
        "failures": tally.reasons,
    }
    result = {"tally": tally, "properties": properties}
    if not trace:
        result["metrics"] = {
            "setup_s": median(b + sum(r) for b, r in setups),
            "peak_rss_mb": rss.peak_kb / 1024.0,
            "ok_ratio": 1.0 - tally.fail_ratio,
            "throughput_ops": completed / elapsed,
            "exact_p50_ms": ex50,
            "exact_p90_ms": ex90,
        }
        return result

    selfs, trees = _span_table(records + repeats)
    layers = _layers_common(selfs, trees, counters, setups)
    layers.update(_plan_errors(trees))
    with_deadline = [r for r in records if r.status == 200 and "deadline_ms" in r.body]
    layers.update({
        "service.degraded_ratio": (
            sum(1 for r in exact if r.payload.get("degraded")) / max(1, len(exact))),
        "service.deadline_miss_ratio": (
            sum(1 for r in with_deadline if r.payload["request_ms"] > r.body["deadline_ms"])
            / max(1, len(with_deadline))),
        "service.keepalive_stall_ms": stall_ms,
        "core.estimate_err_pct": median(errors) if errors else 0.0,
        "client.hit_p50_ms": hit50,
        "client.hit_p90_ms": hit90,
        "client.estimate_p50_ms": est50,
        "obs.trace_overhead_pct": _overhead_pct(hits),
    })
    result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# serve-write
# ----------------------------------------------------------------------


def _writer(server, batches, name: str, until: float, trace: bool, log: list) -> None:
    """Open loop: batch ``k`` is due at ``t0 + k / WRITE_RATE``."""
    client = server.client()
    t0 = time.perf_counter()
    k = 0
    while True:
        due = t0 + k / WRITE_RATE
        if due >= until:
            return
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        adds, removes = next(batches)
        record = _Record("write", f"/v1/graphs/{name}",
                         {"add_edges": [list(e) for e in adds],
                          "remove_edges": [list(e) for e in removes]},
                         time.perf_counter())
        _send(client, "PATCH", record, due)
        if trace and record.status == 200:
            status, doc = client.request("GET", f"/v1/traces/{record.payload['trace_id']}")
            if status == 200:
                record.payload["trace"] = doc
        log.append((record, record.start - due, adds, removes))
        k += 1


def _write_oracle(graphs, log, reads) -> dict:
    """From-scratch counts of every (version, shape) a read was answered at.

    Versions are rebuilt by replaying the PATCH batches in version
    order over the generated edge set, as the mutation smoke test does,
    and counted by the matrix engine's closed forms (the delta path the
    reads mostly take is incremental; the oracle never is).
    """
    from repro.core.matrix import matrix_count_all
    from repro.graph.bigraph import BipartiteGraph

    (_name, n_left, n_right, edges), = graphs
    batches = {}
    for record, _late, adds, removes in log:
        if record.status == 200 and record.payload.get("changed"):
            batches[record.payload["version"]] = (adds, removes)
    shapes: "dict[int, set]" = {}
    for version, p, q in reads:
        shapes.setdefault(version, set()).add((p, q))
    current = set(map(tuple, edges))
    version, oracle = 0, {}
    for target in sorted(shapes):
        while version < target:
            version += 1
            adds, removes = batches[version]
            current.difference_update(removes)
            current.update(adds)
        counts = matrix_count_all(BipartiteGraph(n_left, n_right, sorted(current)), 3, 3)
        for p, q in shapes[target]:
            oracle[(target, p, q)] = counts[p, q]
    return oracle


def _version(fingerprint: str) -> int:
    match = _VERSION_RE.search(fingerprint or "")
    return int(match.group(1)) if match else 0


def run_write(root: str, seed: int, graphs, seconds: float, trace: bool) -> dict:
    (name, n_left, n_right, edges), = graphs
    reads_stream = inputs.write_reads(seed, name)
    batches = inputs.write_batches(seed, n_left, n_right, edges, WRITE_BATCH)
    server, setups = _boot(root, graphs)
    records: "list[_Record]" = []
    log: list = []
    with server:
        with harness.RssSampler(server) as rss:
            t0 = time.perf_counter()
            until = t0 + seconds
            threads = [
                threading.Thread(target=_writer, args=(server, batches, name, until, trace, log)),
                threading.Thread(
                    target=_closed_loop, args=(server, reads_stream, until, trace, records)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - t0
        counters = harness.counters(server.client())

    tally = Tally()
    writes = []
    for record, *_rest in log:
        if _account(record, tally):
            tally.ok()
            writes.append(record.latency)
    answered = [r for r in records if _account(r, tally)]
    reads = {(_version(r.payload.get("fingerprint")), r.body["p"], r.body["q"]) for r in answered}
    oracle = _write_oracle(graphs, log, reads)
    exact, delta_reads = [], 0
    for record in answered:
        version = _version(record.payload.get("fingerprint"))
        p, q = record.body["p"], record.body["q"]
        tally.check(record.payload.get("value"), oracle[(version, p, q)], f"v{version}{p, q}")
        exact.append(record.latency)
        delta_reads += record.payload.get("method") == "delta"

    lateness = [late * 1000.0 for _r, late, *_rest in log]
    methods: "dict[str, int]" = {}
    for record in answered:
        methods[record.payload.get("method")] = methods.get(record.payload.get("method"), 0) + 1
    ex50, ex90, ex_q = _summary_latency(exact)
    w50, w90, w_q = _summary_latency(writes)
    properties = {
        "edges": [len(edges)],
        "reads": len(records),
        "writes": len(log),
        "compactions": counters.get("graph.compactions", 0),
        "method_share": {m: round(n / max(1, len(answered)), 3)
                         for m, n in sorted(methods.items())},
        "percentiles": {"exact_tail": ex_q, "write_tail": w_q},
        "write_p50_ms": w50, "write_p90_ms": w90,
        "lateness_ms_p50": percentile(lateness, 50.0) if lateness else None,
        "failures": tally.reasons,
    }
    result = {"tally": tally, "properties": properties}
    if not trace:
        result["metrics"] = {
            "setup_s": median(b + sum(r) for b, r in setups),
            "peak_rss_mb": rss.peak_kb / 1024.0,
            "ok_ratio": 1.0 - tally.fail_ratio,
            "throughput_ops": len(answered) / elapsed,
            "exact_p50_ms": ex50,
            "exact_p90_ms": ex90,
        }
        return result

    selfs, trees = _span_table(records)
    write_selfs, _ = _span_table([r for r, *_rest in log])
    layers = _layers_common(selfs, trees, counters, setups)
    mutations = counters.get("graph.mutations", 0)
    layers.update({
        "service.mutate_ms": _p50(write_selfs, "mutate"),
        "service.compact_ms": _p50(write_selfs, "compact"),
        "service.compactions": counters.get("graph.compactions", 0),
        "service.snapshot_builds_per_write": (
            counters.get("service.snapshot_builds", 0) / mutations if mutations else 0.0),
        "service.delta_share": delta_reads / max(1, len(answered)),
        "bench.write_lateness_ms": tail(lateness, 90.0)[0] if lateness else 0.0,
        "client.write_p50_ms": w50,
        "client.write_p90_ms": w90,
        "obs.trace_overhead_pct": _overhead_pct(
            [r for r in answered if r.payload.get("method") == "delta"]),
    })
    result["layers"] = layers
    return result
