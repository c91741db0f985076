"""Micro-benchmark: frontier-batched EPivoter vs the scalar walk.

One seeded Chung–Lu graph, full (4, 4) count matrix, both engine
modes.  The frontier engine expands the same enumeration tree
level-synchronously — candidate sets live in one contiguous arena per
level and the set intersections run as batched numpy kernels — so it
must be bit-identical to the scalar walk.  Both timings and their
ratio are recorded for the trajectory, not asserted: the ratio moves
with host load, and absolute speed is guarded by the repository
benchmark (``perfbench/``).

A secondary workload (the DBLP golden dataset, when its file is
present) is recorded the same way.

Run directly (numpy required, no pytest)::

    python benchmarks/bench_epivoter.py --out BENCH_epivoter.json

The equality contract runs before any timing: the two count matrices
must match bit-for-bit or the benchmark aborts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.epivoter import EPivoter  # noqa: E402
from repro.graph.datasets import available_datasets, load_dataset  # noqa: E402
from repro.graph.generators import chung_lu_bipartite  # noqa: E402

#: The main workload: heavy-tailed degrees give the enumeration
#: tree both wide levels (where batching pays) and deep tails, and a
#: ~1 s scalar baseline keeps best-of-N timings stable.
GRAPH_PARAMS = dict(n_left=1500, n_right=1500, num_edges=9000, seed=3793)

#: Recorded-only real-graph workload (skipped if the file is absent).
TRAJECTORY_DATASET = "DBLP"

MAX_P = MAX_Q = 4


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _compare(graph, repeats: int) -> dict:
    scalar = EPivoter(graph, mode="scalar")
    frontier = EPivoter(graph, mode="frontier")

    # Equality contract first: timing a wrong engine is worthless.
    scalar_counts = scalar.count_all(MAX_P, MAX_Q)
    frontier_counts = frontier.count_all(MAX_P, MAX_Q)
    assert frontier_counts == scalar_counts, (
        "frontier/scalar count matrices differ on the benchmark graph"
    )

    scalar_seconds = _best_of(
        lambda: scalar.count_all(MAX_P, MAX_Q), repeats
    )
    frontier_seconds = _best_of(
        lambda: frontier.count_all(MAX_P, MAX_Q), repeats
    )
    return {
        "max_p": MAX_P,
        "max_q": MAX_Q,
        "nonzero_cells": sum(1 for _ in scalar_counts.nonzero()),
        "scalar_seconds": scalar_seconds,
        "frontier_seconds": frontier_seconds,
        "speedup": scalar_seconds / frontier_seconds,
    }


def run(repeats: int = 3) -> dict:
    graph = chung_lu_bipartite(**GRAPH_PARAMS)
    main_workload = _compare(graph, repeats)

    trajectory = None
    if TRAJECTORY_DATASET in available_datasets():
        trajectory = _compare(load_dataset(TRAJECTORY_DATASET), repeats)
        trajectory["dataset"] = TRAJECTORY_DATASET

    return {
        "schema": "repro-bench-epivoter/1",
        "title": "frontier-batched EPivoter vs the scalar walk",
        "graph": GRAPH_PARAMS,
        "repeats": repeats,
        "chung_lu": main_workload,
        "trajectory": trajectory,
        "created_unix": time.time(),
    }


def _report_line(label: str, entry: dict) -> str:
    return (
        f"{label:18s} scalar {entry['scalar_seconds']*1000:8.2f}ms"
        f"  frontier {entry['frontier_seconds']*1000:8.2f}ms"
        f"  speedup {entry['speedup']:6.2f}x"
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_epivoter.json"),
        help="where to write the JSON report (default: ./BENCH_epivoter.json)",
    )
    args = parser.parse_args(argv)

    document = run()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    print(_report_line("chung-lu", document["chung_lu"]))
    if document["trajectory"] is not None:
        print(_report_line(TRAJECTORY_DATASET, document["trajectory"]))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
