"""Command-line interface: ``repro-biclique``.

Subcommands mirror the library's main entry points:

* ``count``     — exact counting, all pairs or a single pair: EPivoter by
  default, or ``--method matrix`` for the closed-form sparse-matrix
  engine on small shapes (p, q <= 3);
* ``estimate``  — sampling estimates (ZigZag / ZigZag++ / hybrid);
* ``maximal``   — maximal biclique enumeration (EPMBCE);
* ``hcc``       — higher-order clustering coefficient profile;
* ``densest``   — (p, q)-biclique densest subgraph (peeling or exact);
* ``datasets``  — list the bundled synthetic stand-in datasets;
* ``serve``     — the HTTP counting service (see ``docs/service.md``);
  with ``--shard`` it also serves the internal partial-count endpoint
  a cluster coordinator scatters to;
* ``coordinate`` — the cluster coordinator: the same public HTTP API,
  with exact counts scattered as weighted root-edge ranges across
  ``--shards host:port,...`` and merged as exact integers.

Graphs come either from ``--dataset NAME`` (synthetic stand-ins) or
``--input FILE`` (edge-list format, see :mod:`repro.graph.io`).

Every graph-consuming subcommand accepts the observability flags:

* ``--stats`` prints the collected engine counters, phase timers, and
  per-worker skew after the normal output;
* ``--report FILE`` writes the full JSON run report (schema
  ``repro-run-report/1``, see ``docs/observability.md``);
* ``--json`` (``count`` / ``estimate`` only) replaces the human output
  with one machine-readable JSON document: counts matrix + run report.

Without any of these flags the engines receive the no-op registry and
run the exact uninstrumented code path.
"""

from __future__ import annotations

import argparse
import io
import sys

from repro.apps.clustering import hcc_profile
from repro.apps.densest import exact_densest, peeling_densest
from repro.core.epivoter import EPivoter
from repro.core.hybrid import hybrid_count_all
from repro.core.mbce import enumerate_maximal_bicliques
from repro.core.zigzag import zigzag_count_all, zigzagpp_count_all
from repro.graph.bigraph import BipartiteGraph
from repro.graph.datasets import available_datasets, dataset_spec, load_dataset
from repro.graph.io import read_edge_list
from repro.obs import (
    NULL_REGISTRY,
    Heartbeat,
    MemoryProbe,
    MetricsRegistry,
    RunReport,
    counts_to_dict,
)
from repro.utils.timer import timed

__all__ = ["main", "build_parser"]


def _load_graph(args: argparse.Namespace) -> BipartiteGraph:
    if args.dataset and args.input:
        raise SystemExit("use either --dataset or --input, not both")
    if args.dataset:
        return load_dataset(args.dataset)
    if args.input:
        graph, _, _ = read_edge_list(args.input)
        return graph
    raise SystemExit("a graph is required: pass --dataset NAME or --input FILE")


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="bundled synthetic dataset name")
    parser.add_argument("--input", help="edge-list file (u v per line)")


def _add_obs_arguments(
    parser: argparse.ArgumentParser, json_output: bool = False
) -> None:
    parser.add_argument(
        "--stats", action="store_true",
        help="print engine counters, phase timers, and per-worker stats",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write a JSON run report (schema repro-run-report/1) to FILE",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="emit a rate-limited progress heartbeat to stderr",
    )
    if json_output:
        parser.add_argument(
            "--json", action="store_true",
            help="print one JSON document (counts + run report) instead of text",
        )


def _print_counts(counts, limit_p: int, limit_q: int, stream) -> None:
    header = "p\\q " + " ".join(f"{q:>14d}" for q in range(1, limit_q + 1))
    print(header, file=stream)
    for p in range(1, limit_p + 1):
        cells = []
        for q in range(1, limit_q + 1):
            value = counts[p, q]
            if isinstance(value, float):
                cells.append(f"{value:>14.4g}")
            else:
                cells.append(f"{value:>14d}")
        print(f"{p:>3d} " + " ".join(cells), file=stream)


def _print_stats(report: RunReport, stream) -> None:
    """Human-readable rendering of a run report (the ``--stats`` block)."""
    print("--- run stats ---", file=stream)
    for name, seconds in sorted(report.timers.items()):
        print(f"phase {name:<28} {seconds:10.3f}s", file=stream)
    for name, value in sorted(report.counters.items()):
        print(f"counter {name:<26} {value:>12}", file=stream)
    for name, value in sorted(report.gauges.items()):
        print(f"gauge {name:<28} {value:>12}", file=stream)
    for name, value in sorted(report.memory.items()):
        mib = value / (1024 * 1024)
        print(f"memory {name:<27} {mib:>11.2f}M", file=stream)
    if report.workers:
        sampling = any("units" in worker for worker in report.workers)
        if sampling:
            # Estimator chunk workers: unit counts + per-pass draw shares.
            print("worker  phase                units  samples  wall_time", file=stream)
            for worker in report.workers:
                print(
                    f"{worker.get('worker', '?'):>6}"
                    f"  {worker.get('phase', '?'):<19}"
                    f"  {worker.get('units', 0):>5}"
                    f"  {worker.get('samples_drawn', 0):>7}"
                    f"  {worker.get('wall_time', 0.0):>8.3f}s",
                    file=stream,
                )
        else:
            print("worker  roots  nodes_expanded  prune_hits  wall_time", file=stream)
            for worker in report.workers:
                print(
                    f"{worker.get('worker', '?'):>6}"
                    f"  {worker.get('roots', 0):>5}"
                    f"  {worker.get('nodes_expanded', 0):>14}"
                    f"  {worker.get('prune_hits', 0):>10}"
                    f"  {worker.get('wall_time', 0.0):>8.3f}s",
                    file=stream,
                )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-biclique",
        description="(p, q)-biclique counting (SIGMOD 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="exact counting (EPivoter or matrix)")
    _add_graph_arguments(count)
    count.add_argument("-p", type=int, default=None, help="count only (p, q)")
    count.add_argument("-q", type=int, default=None)
    count.add_argument("--max-p", type=int, default=10)
    count.add_argument("--max-q", type=int, default=10)
    count.add_argument(
        "--method", choices=["epivoter", "matrix"], default="epivoter",
        help="exact engine: the EPivoter tree walk, or the closed-form "
        "sparse-matrix engine (min(p, q) <= 2 or (3, 3) only)",
    )
    count.add_argument("--pivot", choices=["product", "exact"], default="product")
    count.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for exact counting (0 = one per CPU)",
    )
    _add_obs_arguments(count, json_output=True)

    estimate = sub.add_parser("estimate", help="sampling estimates")
    _add_graph_arguments(estimate)
    estimate.add_argument(
        "--algorithm",
        choices=["zigzag", "zigzag++", "hybrid", "hybrid++"],
        default="zigzag++",
    )
    estimate.add_argument("--h-max", type=int, default=10)
    estimate.add_argument("--samples", type=int, default=100_000)
    estimate.add_argument("--seed", type=int, default=None)
    estimate.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the sampling (and hybrid exact) pass; "
        "estimates are bit-identical for any worker count (0 = one per CPU)",
    )
    estimate.add_argument(
        "--per-sample", action="store_true",
        help="use the per-sample reference walk instead of the batch kernel",
    )
    _add_obs_arguments(estimate, json_output=True)

    maximal = sub.add_parser("maximal", help="enumerate maximal bicliques")
    _add_graph_arguments(maximal)
    maximal.add_argument("--limit", type=int, default=50, help="print at most N")
    _add_obs_arguments(maximal)

    hcc_cmd = sub.add_parser("hcc", help="clustering coefficient profile")
    _add_graph_arguments(hcc_cmd)
    hcc_cmd.add_argument("--h-max", type=int, default=6)
    hcc_cmd.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for local counting (0 = one per CPU)",
    )
    _add_obs_arguments(hcc_cmd)

    densest = sub.add_parser("densest", help="densest subgraph")
    _add_graph_arguments(densest)
    densest.add_argument("-p", type=int, required=True)
    densest.add_argument("-q", type=int, required=True)
    densest.add_argument("--method", choices=["peeling", "exact"], default="peeling")
    _add_obs_arguments(densest)

    stats = sub.add_parser("stats", help="summary statistics of a graph")
    _add_graph_arguments(stats)
    _add_obs_arguments(stats)

    partition = sub.add_parser("partition", help="sparse/dense split (Alg. 9)")
    _add_graph_arguments(partition)
    partition.add_argument("--tau", type=float, default=None)
    partition.add_argument("--quantile", type=float, default=0.9)
    _add_obs_arguments(partition)

    adaptive = sub.add_parser(
        "adaptive", help="estimate one (p, q) to a target accuracy"
    )
    _add_graph_arguments(adaptive)
    adaptive.add_argument("-p", type=int, required=True)
    adaptive.add_argument("-q", type=int, required=True)
    adaptive.add_argument("--delta", type=float, default=0.05)
    adaptive.add_argument("--epsilon", type=float, default=0.05)
    adaptive.add_argument("--max-samples", type=int, default=100_000)
    adaptive.add_argument("--seed", type=int, default=None)
    adaptive.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for each sampling round (0 = one per CPU)",
    )
    _add_obs_arguments(adaptive)

    sub.add_parser("datasets", help="list bundled synthetic datasets")

    serve = sub.add_parser(
        "serve", help="start the HTTP counting service (docs/service.md)"
    )
    _add_graph_arguments(serve)  # optional preload; /v1/graphs works too
    serve.add_argument(
        "--name", default=None,
        help="registration name for the preloaded graph "
        "(default: the dataset name or a fingerprint prefix)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8750, help="0 picks a free port"
    )
    serve.add_argument(
        "--threads", type=int, default=2,
        help="request worker threads (bounds engine concurrency)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="admission queue capacity; a full queue answers 429",
    )
    serve.add_argument(
        "--engine-workers", type=int, default=None,
        help="worker processes for exact counting (0 = one per CPU); "
        "with >1 each registered graph keeps a resident process pool",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=1024,
        help="result cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--cache-file", default=None,
        help="JSON file to load the result cache from and save it to on exit",
    )
    serve.add_argument(
        "--trace-ring", type=int, default=256,
        help="finished request traces retained for GET /v1/traces",
    )
    serve.add_argument(
        "--slow-log", default=None,
        help="JSON-lines file receiving every traced request slower "
        "than --slow-ms",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=500.0,
        help="slow-query threshold in milliseconds (with --slow-log)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve.add_argument(
        "--shard", action="store_true",
        help="shard role: also serve the internal POST /v1/shard/count "
        "partial-count endpoint for a cluster coordinator",
    )
    serve.add_argument(
        "--compact-edges", type=int, default=None,
        help="compact a mutated graph's delta overlay into a fresh CSR "
        "base once it holds this many edges (default 4096)",
    )
    serve.add_argument(
        "--compact-fraction", type=float, default=None,
        help="also compact once the overlay exceeds this fraction of "
        "the base edge count (default 0.25)",
    )

    coordinate = sub.add_parser(
        "coordinate",
        help="serve the public API by scattering exact counts across "
        "--shard instances (docs/service.md)",
    )
    _add_graph_arguments(coordinate)  # optional preload, shipped to shards
    coordinate.add_argument(
        "--name", default=None,
        help="registration name for the preloaded graph "
        "(default: the dataset name or a fingerprint prefix)",
    )
    coordinate.add_argument(
        "--shards", required=True,
        help="comma-separated shard endpoints, e.g. "
        "127.0.0.1:8751,127.0.0.1:8752",
    )
    coordinate.add_argument(
        "--shard-timeout", type=float, default=30.0,
        help="per-shard request timeout in seconds",
    )
    coordinate.add_argument(
        "--shard-retries", type=int, default=1,
        help="fresh-connection retries per shard request "
        "(timeouts never retry)",
    )
    coordinate.add_argument(
        "--nodes-per-second", type=float, default=None,
        help="planner calibration override: per-shard exact-engine "
        "throughput in tree nodes/second",
    )
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument(
        "--port", type=int, default=8750, help="0 picks a free port"
    )
    coordinate.add_argument(
        "--threads", type=int, default=2,
        help="request worker threads (bounds concurrent scatters)",
    )
    coordinate.add_argument(
        "--queue-size", type=int, default=64,
        help="admission queue capacity; a full queue answers 429",
    )
    coordinate.add_argument(
        "--cache-capacity", type=int, default=1024,
        help="result cache entries (0 disables caching)",
    )
    coordinate.add_argument(
        "--cache-file", default=None,
        help="JSON file to load the result cache from and save it to on exit",
    )
    coordinate.add_argument(
        "--trace-ring", type=int, default=256,
        help="finished request traces retained for GET /v1/traces",
    )
    coordinate.add_argument(
        "--slow-log", default=None,
        help="JSON-lines file receiving every traced request slower "
        "than --slow-ms",
    )
    coordinate.add_argument(
        "--slow-ms", type=float, default=500.0,
        help="slow-query threshold in milliseconds (with --slow-log)",
    )
    coordinate.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    coordinate.add_argument(
        "--compact-edges", type=int, default=None,
        help="compact a mutated graph's delta overlay into a fresh CSR "
        "base once it holds this many edges (default 4096)",
    )
    coordinate.add_argument(
        "--compact-fraction", type=float, default=None,
        help="also compact once the overlay exceeds this fraction of "
        "the base edge count (default 0.25)",
    )
    return parser


def _report_arguments(args: argparse.Namespace) -> dict:
    """The invocation arguments, JSON-safe, without obs plumbing noise."""
    skip = {"command", "stats", "report", "json", "progress"}
    return {
        name: value
        for name, value in vars(args).items()
        if name not in skip and value is not None
    }


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: build the service stack and block."""
    from repro.service.cache import ResultCache
    from repro.service.executor import ServiceExecutor
    from repro.service.server import create_server, serve_forever

    obs = MetricsRegistry()
    cache = ResultCache(
        capacity=args.cache_capacity, obs=obs, path=args.cache_file
    )
    slow_log = None
    if args.slow_log:
        from repro.obs.trace import SlowQueryLog

        slow_log = SlowQueryLog(args.slow_log, threshold_ms=args.slow_ms)
        print(
            f"slow-query log: {args.slow_log} (threshold {args.slow_ms:g} ms)",
            file=sys.stderr,
        )
    compact_kwargs = {}
    if args.compact_edges is not None:
        compact_kwargs["compact_edges"] = args.compact_edges
    if args.compact_fraction is not None:
        compact_kwargs["compact_fraction"] = args.compact_fraction
    executor = ServiceExecutor(
        max_queue=args.queue_size,
        threads=args.threads,
        engine_workers=args.engine_workers,
        cache=cache,
        obs=obs,
        trace_ring=args.trace_ring,
        slow_log=slow_log,
        **compact_kwargs,
    )
    if args.dataset or args.input:
        graph = _load_graph(args)
        name = args.name or args.dataset or None
        registered = executor.register(graph, name=name)
        print(
            f"registered graph {registered.name!r}"
            f" ({registered.profile.num_edges} edges,"
            f" fingerprint {registered.fingerprint[:12]})",
            file=sys.stderr,
        )
    if args.cache_file and len(cache):
        print(f"result cache: {len(cache)} entries loaded", file=sys.stderr)
    server = create_server(
        args.host, args.port, executor, obs=obs, quiet=not args.verbose,
        shard=args.shard,
    )
    host, port = server.server_address[:2]
    # The readiness line goes to stdout, flushed, so wrappers (the CI
    # smoke script) can wait for it before sending requests.
    role = " (shard)" if args.shard else ""
    print(f"serving on http://{host}:{port}{role}", flush=True)
    serve_forever(server)
    return 0


def _run_coordinate(args: argparse.Namespace) -> int:
    """The ``coordinate`` subcommand: cluster coordinator over shards."""
    from repro.service.cache import ResultCache
    from repro.service.cluster import ClusterExecutor, ShardClient
    from repro.service.server import create_server, serve_forever

    obs = MetricsRegistry()
    cache = ResultCache(
        capacity=args.cache_capacity, obs=obs, path=args.cache_file
    )
    slow_log = None
    if args.slow_log:
        from repro.obs.trace import SlowQueryLog

        slow_log = SlowQueryLog(args.slow_log, threshold_ms=args.slow_ms)
    shards = [
        ShardClient.parse(
            spec, timeout=args.shard_timeout, retries=args.shard_retries
        )
        for spec in args.shards.split(",")
        if spec.strip()
    ]
    if not shards:
        raise SystemExit("--shards needs at least one host:port")
    compact_kwargs = {}
    if args.compact_edges is not None:
        compact_kwargs["compact_edges"] = args.compact_edges
    if args.compact_fraction is not None:
        compact_kwargs["compact_fraction"] = args.compact_fraction
    executor = ClusterExecutor(
        shards,
        max_queue=args.queue_size,
        threads=args.threads,
        engine_workers=1,  # exact work runs on the shards, not here
        cache=cache,
        obs=obs,
        nodes_per_second=args.nodes_per_second,
        trace_ring=args.trace_ring,
        slow_log=slow_log,
        **compact_kwargs,
    )
    print(
        "coordinating shards: "
        + ", ".join(client.address for client in shards),
        file=sys.stderr,
    )
    if args.dataset or args.input:
        graph = _load_graph(args)
        name = args.name or args.dataset or None
        registered = executor.register(graph, name=name)
        print(
            f"registered graph {registered.name!r} on "
            f"{len(shards)} shard(s)"
            f" ({registered.profile.num_edges} edges,"
            f" fingerprint {registered.fingerprint[:12]})",
            file=sys.stderr,
        )
    server = create_server(
        args.host, args.port, executor, obs=obs, quiet=not args.verbose
    )
    host, port = server.server_address[:2]
    print(f"coordinating on http://{host}:{port}", flush=True)
    serve_forever(server)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "coordinate":
        return _run_coordinate(args)

    if args.command == "datasets":
        out = sys.stdout
        print(f"{'name':<20} {'|U|':>8} {'|V|':>8} {'|E|':>8}  paper scale", file=out)
        for name in available_datasets():
            spec = dataset_spec(name)
            print(
                f"{name:<20} {spec.n_left:>8} {spec.n_right:>8} {spec.num_edges:>8}"
                f"  {spec.paper_n_left}x{spec.paper_n_right} ({spec.paper_num_edges} edges)",
                file=out,
            )
        return 0

    json_mode = bool(getattr(args, "json", False))
    want_obs = bool(args.stats or args.report or json_mode)
    # The engines see a real registry only when someone will read it;
    # otherwise they take the uninstrumented code path via the no-op twin.
    obs = MetricsRegistry() if want_obs else NULL_REGISTRY
    heartbeat = Heartbeat(label="search nodes") if args.progress else None
    # In --json mode the human-readable output is routed to a throwaway
    # buffer so stdout carries exactly one JSON document.
    out = io.StringIO() if json_mode else sys.stdout
    probe = MemoryProbe(obs).start() if want_obs else None

    # Phase timers always run (two perf_counter pairs), so the elapsed
    # line reports graph loading and computation separately even without
    # --stats; with it, the same numbers land in the report.
    phases: dict[str, float] = {}
    with timed("load", phases):
        graph = _load_graph(args)
    print(f"graph: {graph}", file=out)

    counts_payload: "dict | None" = None
    with timed("compute", phases):
        if args.command == "count":
            if (args.p is None) != (args.q is None):
                raise SystemExit("-p and -q must be given together")
            if args.method == "matrix":
                from repro.core.matrix import (
                    MATRIX_MAX_P,
                    MATRIX_MAX_Q,
                    matrix_count_all,
                    matrix_count_single,
                    matrix_supported,
                )

                if args.p is not None:
                    if not matrix_supported(args.p, args.q):
                        raise SystemExit(
                            "--method matrix supports min(p, q) <= 2 or (3, 3); "
                            f"({args.p}, {args.q}) needs --method epivoter"
                        )
                    value = matrix_count_single(graph, args.p, args.q, obs=obs)
                    counts_payload = {
                        "kind": "single", "p": args.p, "q": args.q, "value": value,
                    }
                    print(f"C({args.p},{args.q}) = {value}", file=out)
                else:
                    if args.max_p > MATRIX_MAX_P or args.max_q > MATRIX_MAX_Q:
                        raise SystemExit(
                            "--method matrix fills at most "
                            f"({MATRIX_MAX_P}, {MATRIX_MAX_Q}); pass "
                            "--max-p/--max-q <= 3 or use --method epivoter"
                        )
                    counts = matrix_count_all(
                        graph, args.max_p, args.max_q, obs=obs
                    )
                    counts_payload = counts_to_dict(counts)
                    _print_counts(counts, args.max_p, args.max_q, out)
            elif args.p is not None:
                engine = EPivoter(graph, pivot=args.pivot)
                value = engine.count_single(
                    args.p, args.q, workers=args.workers, obs=obs,
                    heartbeat=heartbeat,
                )
                counts_payload = {
                    "kind": "single", "p": args.p, "q": args.q, "value": value,
                }
                print(f"C({args.p},{args.q}) = {value}", file=out)
            else:
                engine = EPivoter(graph, pivot=args.pivot)
                counts = engine.count_all(
                    args.max_p, args.max_q, workers=args.workers, obs=obs,
                    heartbeat=heartbeat,
                )
                counts_payload = counts_to_dict(counts)
                _print_counts(counts, args.max_p, args.max_q, out)
        elif args.command == "estimate":
            if args.algorithm == "zigzag":
                counts = zigzag_count_all(
                    graph, args.h_max, args.samples, args.seed, obs=obs,
                    workers=args.workers, batch=not args.per_sample,
                )
            elif args.algorithm == "zigzag++":
                counts = zigzagpp_count_all(
                    graph, args.h_max, args.samples, args.seed, obs=obs,
                    workers=args.workers, batch=not args.per_sample,
                )
            else:
                estimator = "zigzag" if args.algorithm == "hybrid" else "zigzag++"
                counts = hybrid_count_all(
                    graph, args.h_max, args.samples, args.seed,
                    estimator=estimator, workers=args.workers, obs=obs,
                )
            counts_payload = counts_to_dict(counts)
            _print_counts(counts, args.h_max, args.h_max, out)
        elif args.command == "maximal":
            bicliques = enumerate_maximal_bicliques(graph, obs=obs)
            print(f"{len(bicliques)} maximal bicliques", file=out)
            for left, right in bicliques[: args.limit]:
                print(f"  {list(left)} x {list(right)}", file=out)
            if len(bicliques) > args.limit:
                print(f"  ... ({len(bicliques) - args.limit} more)", file=out)
        elif args.command == "hcc":
            profile = hcc_profile(graph, args.h_max, workers=args.workers)
            for k, value in sorted(profile.items()):
                print(f"hcc({k},{k}) = {value:.6f}", file=out)
        elif args.command == "densest":
            if args.method == "peeling":
                result = peeling_densest(graph, args.p, args.q)
            else:
                result = exact_densest(graph, args.p, args.q)
            print(
                f"density = {result.density:.4f} over {result.num_vertices} vertices"
                f" ({result.biclique_count} bicliques)",
                file=out,
            )
        elif args.command == "stats":
            from repro.graph.statistics import summarize

            summary = summarize(graph)
            for field_name in (
                "n_left", "n_right", "num_edges", "mean_degree_left",
                "mean_degree_right", "max_degree_left", "max_degree_right",
                "density", "num_components", "degeneracy",
            ):
                value = getattr(summary, field_name)
                rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
                print(f"{field_name:<18} {rendered}", file=out)
        elif args.command == "partition":
            from repro.core.hybrid import partition_graph

            ordered = graph.degree_ordered()[0]
            sparse, dense, weights = partition_graph(
                ordered, tau=args.tau, quantile=args.quantile
            )
            obs.gauge("hybrid.sparse_vertices", len(sparse))
            obs.gauge("hybrid.dense_vertices", len(dense))
            print(
                f"sparse region: {len(sparse)} vertices; "
                f"dense region: {len(dense)} vertices; "
                f"max weight {max(weights, default=0)}",
                file=out,
            )
        elif args.command == "adaptive":
            from repro.core.adaptive import adaptive_count

            result = adaptive_count(
                graph, args.p, args.q,
                delta=args.delta, epsilon=args.epsilon,
                max_samples=args.max_samples, seed=args.seed,
                obs=obs, workers=args.workers,
            )
            lo, hi = result.interval
            status = "met" if result.satisfied else "sample cap reached"
            print(
                f"C({args.p},{args.q}) ~= {result.estimate:.1f} "
                f"[{lo:.1f}, {hi:.1f}] after {result.samples_used} samples ({status})",
                file=out,
            )

    if heartbeat is not None:
        heartbeat.finish()
    if probe is not None:
        probe.stop()

    total = phases["load"] + phases["compute"]
    print(
        f"elapsed: load {phases['load']:.3f}s compute {phases['compute']:.3f}s"
        f" total {total:.3f}s",
        file=out,
    )

    if want_obs:
        obs.add_time("load", phases["load"])
        obs.add_time("compute", phases["compute"])
        # The same phase durations also land in a labelled histogram so
        # every run report carries a valid (if small) histograms section.
        for phase_name in ("load", "compute"):
            obs.observe(
                "cli.phase_seconds", phases[phase_name],
                labels={"phase": phase_name},
            )
        report = RunReport.from_registry(
            obs,
            command=args.command,
            arguments=_report_arguments(args),
            graph={
                "n_left": graph.n_left,
                "n_right": graph.n_right,
                "num_edges": graph.num_edges,
            },
        )
        report.counts = counts_payload
        if args.report:
            report.write(args.report)
        if args.stats:
            _print_stats(report, out)
        if json_mode:
            print(report.to_json(), file=sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
