"""The repository benchmark: one workload per invocation, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload exact-allpairs --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload traced and reports the per-layer
table instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
line before it, prefixed ``properties:``, describes the run (edges per
graph, hit share, share of requests per engine method, tail
percentiles actually reported).  Every exact answer is checked against
an oracle computed outside the timed region; any mismatch exits 1.
See ``perfbench/NOTES.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

WORKLOADS = ("exact-allpairs", "serve-read", "serve-write")

#: Every end-to-end metric and its unit; an untraced run reports all
#: of them.  The workload modules return plain values; the units live
#: here only (the helper tests hold them equal to BENCHMARK.json).
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio", "throughput_ops": "1/s",
    "exact_p50_ms": "ms", "exact_p90_ms": "ms",
}

#: Every per-layer metric and its unit.  A traced run reports all of
#: them; a metric of a layer the workload does not exercise reads 0
#: (see NOTES.md, "Per-layer metrics").
PER_LAYER = {
    "graph.build_s": "s", "graph.order_s": "s", "graph.csr_mb": "MiB", "graph.edges": "count",
    "core.count_all_s": "s", "core.count_single_s": "s", "core.epivoter.nodes": "count",
    "core.epivoter.nodes_per_s": "1/s", "core.epivoter.prune_ratio": "ratio",
    "core.epivoter.frontier_batches": "count", "core.epivoter.arena_mb": "MiB",
    "core.epivoter.core_reduce_ms": "ms", "core.epivoter.traverse_ms": "ms",
    "core.matrix_ms": "ms", "core.stars_ms": "ms", "core.delta_ms": "ms",
    "core.estimator_ms": "ms", "core.estimate_err_pct": "%", "core.zigzag.hit_ratio": "ratio",
    "service.http_ms": "ms", "service.admission_ms": "ms", "service.cache_lookup_ms": "ms",
    "service.queue_wait_ms_p50": "ms", "service.queue_wait_ms_p90": "ms",
    "service.keepalive_stall_ms": "ms",
    "service.plan_ms": "ms", "service.merge_ms": "ms", "service.cache_hit_ratio": "ratio",
    "service.coalesced": "count", "service.rejected": "count",
    "service.plan_error.epivoter": "ratio", "service.plan_error.matrix": "ratio",
    "service.degraded_ratio": "ratio", "service.deadline_miss_ratio": "ratio",
    "service.mutate_ms": "ms", "service.compact_ms": "ms", "service.compactions": "count",
    "service.snapshot_builds_per_write": "ratio", "service.delta_share": "ratio",
    "service.boot_s": "s", "service.register_ms": "ms",
    "parallel.ships": "count", "parallel.reships": "count", "parallel.ship_mb": "MiB",
    "parallel.pool_reuses": "count",
    "obs.trace_overhead_pct": "%",
    "client.hit_p50_ms": "ms", "client.hit_p90_ms": "ms", "client.estimate_p50_ms": "ms",
    "client.write_p50_ms": "ms", "client.write_p90_ms": "ms",
    "bench.write_lateness_ms": "ms",
}


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a gauge of the host's speed.

    Reported under ``properties`` before and after the workload, so a
    run on a slowed-down host can be told apart from a slower program.
    """
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        samples.append((time.perf_counter() - t0) * 1000.0)
    return sorted(samples)[2]


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far (``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import inputs

    graphs = inputs.make_graphs(args.workload, args.seed)
    trace = bool(args.trace)
    host = {"loop_ms_before": host_loop_ms(), "steal_s": -steal_s()}
    if args.workload == "exact-allpairs":
        import library

        result = library.run(graphs, args.seconds, trace)
    else:
        import served

        run = served.run_read if args.workload == "serve-read" else served.run_write
        result = run(ROOT, args.seed, graphs, args.seconds, trace)

    measured, units = (result["layers"], PER_LAYER) if trace else (result["metrics"], END_TO_END)
    metrics = {name: {"value": measured.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    host["steal_s"] += steal_s()
    host["loop_ms_after"] = host_loop_ms()
    tally = result["tally"]
    properties = dict(result.get("properties", {}), host=host)
    print("properties: " + json.dumps(properties, sort_keys=True))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
