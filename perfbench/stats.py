"""Pure helpers: percentiles, span self time, failure accounting.

Nothing here imports the program under test, so the helpers' own tests
(``perfbench/test_helpers.py``) run without it.
"""

from __future__ import annotations

import math
import threading
from statistics import median

__all__ = ["TAIL_SAMPLES", "Tally", "median", "percentile", "self_times",
           "supported_percentile", "tail", "walk_spans"]

#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def supported_percentile(n: int, want: float) -> float:
    """The highest percentile up to ``want`` with ``TAIL_SAMPLES`` beyond it.

    ``n * (1 - q/100) >= TAIL_SAMPLES`` gives ``q <= 100 * (1 - 10/n)``.
    Below 20 samples not even the median is supported; the median is
    reported anyway, as the least-bad summary.
    """
    if n <= 0:
        raise ValueError("no samples")
    return max(50.0, min(want, 100.0 * (1.0 - TAIL_SAMPLES / n)))


def tail(values, want: float = 90.0) -> "tuple[float, float]":
    """``(value, q)``: the ``want``-th percentile, or the highest supported."""
    q = supported_percentile(len(values), want)
    return percentile(values, q), q


def self_times(span: dict, out: "dict[str, list[float]] | None" = None):
    """Self time per span name over one span tree, in milliseconds.

    A span's self time is its duration minus the part of its interval
    that its children cover (the union of the children's intervals,
    clipped to the parent), so overlapping or cross-thread children are
    not double-subtracted.  Returns ``{name: [self_ms, ...]}``.
    """
    if out is None:
        out = {}
    start = span.get("offset_ms") or 0.0
    duration = span.get("duration_ms") or 0.0
    end = start + duration
    intervals = []
    for child in span.get("children", ()):
        c_start = max(start, child.get("offset_ms") or 0.0)
        c_end = min(end, (child.get("offset_ms") or 0.0) + (child.get("duration_ms") or 0.0))
        if c_end > c_start:
            intervals.append((c_start, c_end))
        self_times(child, out)
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(intervals):
        if c_end <= cursor:
            continue
        covered += c_end - max(c_start, cursor)
        cursor = c_end
    out.setdefault(span["name"], []).append(max(0.0, duration - covered))
    return out


def walk_spans(span: dict):
    """Every span of a tree, depth first, parents before children."""
    yield span
    for child in span.get("children", ()):
        yield from walk_spans(child)


class Tally:
    """Attempted/failed accounting for one workload.

    A failure is anything the caller reports through :meth:`fail`: a
    non-2xx response, a 429, a transport error or timeout, or an exact
    answer that differs from the oracle.  Mismatches are also counted
    apart, because any mismatch makes the benchmark exit non-zero.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.reasons: "dict[str, int]" = {}

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, got, want, what: str = "exact") -> bool:
        """Count one exact answer; a mismatch is a failure."""
        if got == want:
            self.ok()
            return True
        with self._lock:
            self.mismatches += 1
        self.fail(f"mismatch:{what}")
        return False

    @property
    def correct(self) -> bool:
        return self.mismatches == 0

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
