"""Micro-benchmark: sparse-matrix kernels vs EPivoter on small (p, q).

:func:`repro.core.matrix.matrix_count_single` against
``EPivoter.count_single`` on every matrix shape the repository
benchmark serves — (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
(2, 5) and (5, 2) — on one seeded Chung–Lu graph, so both the left-side
``(2, q)`` folds and the right-side ``(p, 2)`` folds are checked.  The
timings are recorded for the trajectory, not asserted: absolute speed is guarded by the repository benchmark
(``perfbench/``), and EPivoter's core reduction makes its runtime
shape-dependent in ways a single ratio threshold would flake on.

Run directly (scipy required, no pytest)::

    python benchmarks/bench_matrix.py --out BENCH_matrix.json

The equality contract runs before any timing: every matrix cell must
be bit-identical to EPivoter's on the benchmark graph, or the
benchmark aborts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.epivoter import EPivoter  # noqa: E402
from repro.core.matrix import matrix_count_single  # noqa: E402
from repro.graph.generators import chung_lu_bipartite  # noqa: E402

#: The benchmark graph: dense enough that pair overlaps are non-trivial,
#: small enough that the EPivoter comparison runs in seconds.
GRAPH_PARAMS = dict(n_left=400, n_right=400, num_edges=6000, seed=0xB1C)

SMALL_CELLS = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2))


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(repeats: int = 3) -> dict:
    graph = chung_lu_bipartite(**GRAPH_PARAMS)

    # Equality contract first: timing a wrong kernel is worthless.
    engine = EPivoter(graph)
    counts = {}
    for p, q in SMALL_CELLS:
        matrix_value = matrix_count_single(graph, p, q)
        epivoter_value = engine.count_single(p, q)
        assert matrix_value == epivoter_value, (
            f"({p}, {q}) mismatch: matrix {matrix_value} vs "
            f"EPivoter {epivoter_value}"
        )
        counts[p, q] = matrix_value

    cells = []
    for p, q in SMALL_CELLS:
        m_seconds = _best_of(lambda: matrix_count_single(graph, p, q), repeats)
        e_seconds = _best_of(lambda: engine.count_single(p, q), repeats)
        cells.append(
            {
                "p": p,
                "q": q,
                "count": counts[p, q],
                "matrix_seconds": m_seconds,
                "epivoter_seconds": e_seconds,
            }
        )

    return {
        "schema": "repro-bench-matrix/2",
        "title": "matrix kernels vs EPivoter on small (p, q)",
        "graph": GRAPH_PARAMS,
        "repeats": repeats,
        "cells": cells,
        "created_unix": time.time(),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_matrix.json"),
        help="where to write the JSON report (default: ./BENCH_matrix.json)",
    )
    args = parser.parse_args(argv)

    document = run()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    for cell in document["cells"]:
        print(
            f"({cell['p']},{cell['q']}) count  epivoter"
            f" {cell['epivoter_seconds']*1000:8.2f}ms"
            f"  matrix {cell['matrix_seconds']*1000:8.2f}ms"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
