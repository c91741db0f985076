"""``exact-allpairs``: the serial library job over three generated graphs.

The job is the paper's headline problem: ``count_all(g, 4, 4)`` plus a
few single cells up to (6, 6) on each graph, all in this process with
one thread.  The job repeats until its repetitions have taken the run's
seconds; one repetition is one exact answer for ``exact_p50_ms``.  Every
answer of every repetition is checked against an oracle computed after
the timed region.
"""

from __future__ import annotations

import resource
import time

from stats import Tally, median, tail

#: The all-pairs bound and the single cells of the job.
ALL_PAIRS = (4, 4)
SINGLE_CELLS = ((5, 5), (6, 6))
#: Set-ups before each job repetition; ``setup_s`` is the median of all
#: of them.  One set-up takes ~0.2 s of interpreter-bound work, and the
#: host's speed for such work drifts by a third over tens of seconds,
#: so the set-ups are spread over the whole run, as the jobs are,
#: instead of being taken together at its start.
SETUPS_PER_JOB = 2
MIN_JOB_REPS = 3


def _setup(graphs):
    """Build and degree-order every graph; ``(ordered, build_s, order_s)``."""
    from repro.graph.bigraph import BipartiteGraph

    ordered, build_s, order_s = [], 0.0, 0.0
    for _name, n_left, n_right, edges in graphs:
        t0 = time.perf_counter()
        graph = BipartiteGraph(n_left, n_right, edges)
        t1 = time.perf_counter()
        ordered.append(graph.degree_ordered()[0])
        t2 = time.perf_counter()
        build_s += t1 - t0
        order_s += t2 - t1
    return ordered, build_s, order_s


def _job(ordered, traced: bool):
    """One repetition; returns ``(answers, timings, registry, traces)``."""
    from repro.core.epivoter import EPivoter
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import NULL_TRACE, Trace

    obs = MetricsRegistry() if traced else None
    answers, traces = [], []
    all_s = single_s = 0.0
    for graph in ordered:
        engine = EPivoter(graph)
        t0 = time.perf_counter()
        counts = engine.count_all(*ALL_PAIRS, obs=obs)
        all_s += time.perf_counter() - t0
        cells = {(p, q): counts[p, q]
                 for p in range(1, ALL_PAIRS[0] + 1) for q in range(1, ALL_PAIRS[1] + 1)}
        for p, q in SINGLE_CELLS:
            trace = Trace("count_single") if traced else NULL_TRACE
            t0 = time.perf_counter()
            cells[("single", p, q)] = engine.count_single(p, q, obs=obs, trace=trace)
            single_s += time.perf_counter() - t0
            if traced:
                traces.append(trace.to_dict())
        answers.append(cells)
    return answers, {"count_all_s": all_s, "count_single_s": single_s}, obs, traces


def _graph_oracle(graph) -> dict:
    """Every answer of the job on one graph (see :func:`_oracle`)."""
    from repro.core.epivoter import EPivoter
    from repro.core.matrix import matrix_count_single, matrix_supported

    engine = EPivoter(graph, mode="scalar")
    cells = {}
    for p in range(1, ALL_PAIRS[0] + 1):
        for q in range(1, ALL_PAIRS[1] + 1):
            if matrix_supported(p, q):
                cells[(p, q)] = matrix_count_single(graph, p, q)
            else:
                cells[(p, q)] = engine.count_single(p, q, use_core=False)
    for p, q in SINGLE_CELLS:
        cells[("single", p, q)] = engine.count_single(p, q, use_core=False)
    return cells


def _oracle(ordered):
    """Expected answers from engines other than the job's own paths.

    Cells with a closed form (``min(p, q) <= 2`` and (3, 3)) come from
    the matrix engine.  The rest come from the scalar EPivoter twin's
    single-cell walk over the whole graph (``mode="scalar"``,
    ``use_core=False``).  It shares no traversal code with the frontier
    engine the job runs, and neither the all-pairs visitor nor the core
    reduction.
    """
    return [_graph_oracle(graph) for graph in ordered]


def run(graphs, seconds: float, trace: bool) -> dict:
    ordered, build_s, order_s = _setup(graphs)
    setups = [(build_s, order_s)]  # later set-ups' graphs are dropped

    # ``seconds`` counts job time; the set-ups between jobs come on top.
    reps = []
    while len(reps) < MIN_JOB_REPS or sum(r[0] for r in reps) < seconds:
        setups.extend(_setup(graphs)[1:] for _ in range(SETUPS_PER_JOB))
        # A traced run alternates untraced and traced repetitions, so
        # the tracing overhead compares like with like.
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        answers, timings, obs, traces = _job(ordered, traced)
        reps.append((time.perf_counter() - t0, answers, timings, obs, traces, traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = _oracle(ordered)
    tally = Tally()
    for _elapsed, answers, *_rest in reps:
        for got_cells, want_cells in zip(answers, expected):
            for key, want in want_cells.items():
                tally.check(got_cells.get(key), want, f"{key}")

    result = {"tally": tally, "properties": {
        "edges": [g.num_edges for g in ordered], "job_reps": len(reps)}}
    if not trace:
        # One job is one exact answer here; with a handful of
        # repetitions the tail percentile the samples support is the
        # median itself (stats.tail).
        job_ms = [r[0] * 1000.0 for r in reps]
        result["metrics"] = {
            "setup_s": median(b + o for b, o in setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - tally.fail_ratio,
            "throughput_ops": len(reps) / sum(r[0] for r in reps),
            "exact_p50_ms": median(job_ms),
            "exact_p90_ms": tail(job_ms, 90.0)[0],
        }
        return result

    from stats import self_times

    traced_reps = [r for r in reps if r[5]]
    plain_reps = [r for r in reps if not r[5]]
    last_obs = traced_reps[-1][3]
    counters, gauges = last_obs.counters, last_obs.gauges
    nodes = counters.get("epivoter.nodes_expanded", 0)
    prunes = counters.get("epivoter.prune_hits", 0)
    engine_s = traced_reps[-1][2]["count_all_s"] + traced_reps[-1][2]["count_single_s"]
    spans: "dict[str, list[float]]" = {}
    for rep in traced_reps:
        for doc in rep[4]:
            self_times(doc["spans"], spans)
    result["layers"] = {
        "graph.build_s": median(b for b, _o in setups),
        "graph.order_s": median(o for _b, o in setups),
        "graph.csr_mb": sum(g.nbytes for g in ordered) / 2**20,
        "graph.edges": sum(g.num_edges for g in ordered),
        "core.count_all_s": median(r[2]["count_all_s"] for r in reps),
        "core.count_single_s": median(r[2]["count_single_s"] for r in reps),
        "core.epivoter.nodes": nodes,
        "core.epivoter.nodes_per_s": nodes / engine_s if engine_s else 0.0,
        "core.epivoter.prune_ratio": prunes / (nodes + prunes) if nodes + prunes else 0.0,
        "core.epivoter.frontier_batches": counters.get("epivoter.frontier_batches", 0),
        "core.epivoter.arena_mb": gauges.get("epivoter.arena_bytes", 0) / 2**20,
        "core.epivoter.core_reduce_ms": median(spans.get("core_reduce", [0.0])),
        "core.epivoter.traverse_ms": median(spans.get("traverse", [0.0])),
        "obs.trace_overhead_pct": (
            100.0 * (median(r[0] for r in traced_reps) / median(r[0] for r in plain_reps) - 1.0)),
    }
    return result
