"""Shared substrates: combinatorics, RNG, timing, max-flow, parallelism."""

from repro.utils.combinatorics import binomial, binomial_row, falling_factorial
from repro.utils.maxflow import DinicMaxFlow
from repro.utils.parallel import (
    merge_counts,
    merge_local_counts,
    resolve_workers,
    root_edge_weights,
    run_chunked,
    weighted_ranges,
)
from repro.utils.rng import as_generator, spawn
from repro.utils.timer import Stopwatch, timed

__all__ = [
    "binomial",
    "binomial_row",
    "falling_factorial",
    "DinicMaxFlow",
    "as_generator",
    "spawn",
    "Stopwatch",
    "timed",
    "merge_counts",
    "merge_local_counts",
    "resolve_workers",
    "root_edge_weights",
    "run_chunked",
    "weighted_ranges",
]
