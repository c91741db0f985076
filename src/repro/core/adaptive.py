"""Adaptive sampling with (epsilon, delta) accuracy guarantees.

Theorem 4.11 of the paper bounds the sample size needed for a relative
error ``delta`` at confidence ``1 - epsilon``:

    T >= (Z / rho)^2 * ln(1 / epsilon) / (2 * delta^2)

with ``Z`` the largest per-sample hit count and ``rho`` the zigzag-to-
biclique hit ratio — both unknown upfront.  This module operationalises
the theorem as the paper's discussion suggests practitioners do: sample
in geometrically growing rounds, plug the *empirical* ``Z`` and ``rho``
into the bound after each round, and stop once the drawn sample size
satisfies it (or a hard cap is reached).

The result carries the estimate, an empirical Hoeffding confidence
interval, and the round trace, so callers can see the adaptation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.zigzag import _ENGINES, _denominator
from repro.graph.bigraph import BipartiteGraph
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACE, Trace
from repro.utils.rng import as_generator

__all__ = ["AdaptiveEstimate", "adaptive_count"]


@dataclass
class AdaptiveEstimate:
    """Result of an adaptive estimation run."""

    p: int
    q: int
    estimate: float
    samples_used: int
    satisfied: bool
    half_width: float
    rounds: list[tuple[int, float]] = field(default_factory=list)
    #: The empirical required sample size from Theorem 4.11 at the end.
    required_samples: float = float("inf")

    @property
    def interval(self) -> tuple[float, float]:
        """Hoeffding confidence interval around the estimate."""
        return (max(0.0, self.estimate - self.half_width), self.estimate + self.half_width)


def _required_samples(z_max: float, rho: float, delta: float, epsilon: float) -> float:
    if rho <= 0 or z_max <= 0:
        return float("inf")
    return (z_max / rho) ** 2 * math.log(1.0 / epsilon) / (2.0 * delta**2)


def adaptive_count(
    graph: BipartiteGraph,
    p: int,
    q: int,
    delta: float = 0.05,
    epsilon: float = 0.05,
    estimator: str = "zigzag",
    initial_samples: int = 500,
    max_samples: int = 200_000,
    seed: "int | None | np.random.Generator" = None,
    obs: "MetricsRegistry | None" = None,
    workers: "int | None" = None,
    time_budget: "float | None" = None,
    trace: Trace = NULL_TRACE,
) -> AdaptiveEstimate:
    """Estimate the (p, q) count to relative error ``delta`` w.p. ``1-epsilon``.

    Runs the chosen zigzag estimator in doubling rounds until the
    empirical Theorem 4.11 bound is met or ``max_samples`` is exhausted;
    ``satisfied`` on the result says which.  Requires ``min(p, q) >= 2``
    (star cells are exact, no sampling needed).

    ``time_budget`` caps the wall-clock seconds spent across rounds: the
    round loop stops at the deadline and the best-so-far estimate is
    returned with ``satisfied=False`` (unless the accuracy bound happened
    to be met already).  A round in flight is never interrupted — the
    deadline is checked between rounds — so the overshoot is at most one
    round; the service planner's degradation path relies on this to turn
    a tight deadline into a coarser answer instead of an error.

    ``obs`` records the adaptation itself — rounds run, samples drawn to
    convergence, the final Theorem 4.11 requirement — on top of the
    underlying zigzag engine's counters.

    ``workers`` fans each round's unit sampling out over processes; the
    round estimates (and therefore the adaptation trace) are bit-identical
    to a serial run with the same seed, because the engines use per-unit
    RNG streams.
    """
    if min(p, q) < 2:
        raise ValueError("adaptive sampling applies to min(p, q) >= 2; star cells are exact")
    if not (0 < delta < 1 and 0 < epsilon < 1):
        raise ValueError("delta and epsilon must be in (0, 1)")
    if initial_samples < 1 or max_samples < initial_samples:
        raise ValueError("need 1 <= initial_samples <= max_samples")
    if estimator not in ("zigzag", "zigzag++"):
        raise ValueError("estimator must be 'zigzag' or 'zigzag++'")
    if time_budget is not None and time_budget < 0:
        raise ValueError("time_budget must be non-negative")
    deadline = (
        time.monotonic() + time_budget if time_budget is not None else None
    )
    rng = as_generator(seed)
    ordered = graph if graph.is_degree_ordered() else graph.degree_ordered()[0]
    engine_cls = _ENGINES[estimator]
    level = min(p, q) - engine_cls.cell_offset
    denominator = _denominator(engine_cls.kind, p, q)

    total_drawn = 0
    round_samples = initial_samples
    rounds: list[tuple[int, float]] = []
    estimate = 0.0
    z_max = 0.0
    zigzag_total = 0.0
    required = float("inf")
    # Weighted-average across rounds: each round is an independent
    # unbiased estimate; weight by its sample count.
    weighted_sum = 0.0
    while total_drawn < max_samples:
        if deadline is not None and time.monotonic() >= deadline:
            break  # best-so-far: satisfied stays False unless already met
        round_samples = min(round_samples, max_samples - total_drawn)
        with trace.span(
            "round", index=len(rounds), samples=round_samples
        ):
            engine = engine_cls(
                ordered, max(p, q), round_samples, rng, levels=[level], obs=obs,
                workers=workers,
            )
            counts = engine.run()
        round_estimate = counts[p, q]
        weighted_sum += round_estimate * round_samples
        total_drawn += round_samples
        estimate = weighted_sum / total_drawn
        rounds.append((total_drawn, estimate))
        zigzag_total = engine.stats.zigzag_totals.get(level, 0.0)
        z_max = max(z_max, engine.stats.max_hit.get((p, q), 0.0))
        if zigzag_total == 0:
            # No zigzags at this level anywhere: the count is exactly 0.
            _flush_adaptive_stats(obs, rounds, total_drawn, 0.0, True)
            return AdaptiveEstimate(
                p, q, 0.0, total_drawn, True, 0.0, rounds, 0.0
            )
        rho = denominator * estimate / zigzag_total if estimate > 0 else 0.0
        required = _required_samples(z_max, rho, delta, epsilon)
        if total_drawn >= required:
            break
        round_samples *= 2

    # Hoeffding half width on the mean hit count, scaled to count units.
    if z_max > 0 and total_drawn > 0:
        mean_half_width = z_max * math.sqrt(
            math.log(2.0 / epsilon) / (2.0 * total_drawn)
        )
        half_width = mean_half_width * zigzag_total / denominator
    else:
        half_width = 0.0
    _flush_adaptive_stats(obs, rounds, total_drawn, required, total_drawn >= required)
    return AdaptiveEstimate(
        p,
        q,
        estimate,
        total_drawn,
        total_drawn >= required,
        half_width,
        rounds,
        required,
    )


def _flush_adaptive_stats(
    obs: "MetricsRegistry | None",
    rounds: list,
    samples_used: int,
    required: float,
    satisfied: bool,
) -> None:
    if obs is None or not obs.enabled:
        return
    obs.incr("adaptive.rounds", len(rounds))
    obs.incr("adaptive.samples_to_convergence", samples_used)
    if required != float("inf"):
        obs.gauge("adaptive.required_samples", required)
    obs.gauge("adaptive.satisfied", int(satisfied))
