"""The query planner: pick an engine per request, degrade under deadlines.

The paper frames exact vs. approximate counting as a latency/accuracy
trade-off (EPivoter's shared traversal, §3, vs. the ZigZag estimators,
§4, vs. the hybrid split, §5).  The planner operationalises that
trade-off per request:

======================  ==========================================  ===========
request                  condition                                   plan
======================  ==========================================  ===========
``count`` / ``estimate`` pending mutation overlay, ``min(p, q) <= 2``  ``delta`` — exact answer straight from the incrementally maintained degree/overlap histograms (:class:`repro.service.mutation.DeltaTotals`); no engine, no snapshot rebuild
``count`` / ``estimate`` ``min(p, q) == 1``                          ``stars`` — star counts are a closed form over the degree histogram, exact and effectively free
``count`` / ``estimate`` small shape (``min(p, q) <= 2`` or (3, 3)), pair matrix affordable  ``matrix`` — closed-form sparse products (:mod:`repro.core.matrix`), exact; guarded by ``pair_work`` vs ``_MATRIX_MAX_PAIR_WORK`` and the deadline, falling through to EPivoter/estimators otherwise (for ``estimate``, an accuracy budget still wins: ``adaptive`` comes first)
``count``                no deadline, or predicted exact time fits   ``epivoter`` with ``node_budget`` / ``time_budget`` armed from the deadline, estimator fallback attached
``count``                deadline too tight for exact                ``zigzag++`` sized to the deadline, ``degraded=True``
``estimate``             accuracy budget (``delta`` / ``epsilon``)   ``adaptive`` with ``time_budget`` = the deadline
``estimate``             no accuracy budget, exact sparse pass fits  ``hybrid`` (exact sparse region + sampled dense region)
``estimate``             otherwise                                   ``zigzag++``, samples clipped to the deadline (clipping below the request — or below the documented default — marks ``degraded=True``)
======================  ==========================================  ===========

Cost inputs come from :class:`GraphProfile`, computed once at graph
registration: edge count, max degrees, and ``root_cost`` — the summed
root-edge weights of :func:`repro.utils.parallel.root_edge_weight`,
i.e. the total first-level candidate-pair work of an EPivoter run, the
same quantity the hybrid partitioner reasons with (Definition 5.1).
Predicted runtimes divide these by calibratable throughput constants;
they only need to be right to an order of magnitude, because every
exact plan carries a *runtime* safety net too: the armed
``time_budget`` / ``node_budget`` abort a mispredicted exact run with
:class:`~repro.core.epivoter.CountBudgetExceeded` and the executor
switches to the attached fallback plan, marking the response
``degraded``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.graph.bigraph import BipartiteGraph

__all__ = [
    "GraphProfile",
    "QueryPlan",
    "plan_query",
    "NODES_PER_SECOND",
    "SAMPLES_PER_SECOND",
]

#: Calibration constants: conservative throughputs.  Ballpark figures
#: are all the planner needs (see module docstring); override per call
#: for calibrated deployments.  The exact-path figure was recalibrated
#: for the frontier-batched EPivoter, which expands 220k-750k tree
#: nodes/s on the reference workloads (the old per-node scalar walk
#: managed ~100k); 250k is the conservative end of that range.
NODES_PER_SECOND = 250_000.0
SAMPLES_PER_SECOND = 30_000.0

#: Fraction of the deadline the exact path may consume before the plan
#: prefers an estimator upfront (leaves room for a fallback run).
_EXACT_DEADLINE_SHARE = 0.5

#: Exact-time prediction multiplier on a recently mutated graph: the
#: exact engines must first materialise, re-order, and re-ship a
#: snapshot of the mutated view, and the profile (frozen at the last
#: compaction) underprices the walk.
_MUTATED_EXACT_PENALTY = 2.0

#: Sample budget clamp for deadline-sized estimator runs.
_MIN_SAMPLES = 200
_MAX_DEADLINE_SAMPLES = 200_000
_DEFAULT_SAMPLES = 20_000

#: ``hybrid`` is only planned when the exact sparse-region pass is
#: predicted to fit in this many seconds (the estimators cover the rest).
_HYBRID_EXACT_SECONDS = 2.0

#: Matrix-engine calibration: pair-matrix multiply-adds per second, the
#: flat scipy setup floor (so millisecond deadlines deterministically
#: reject the fast path), and the hard cap on ``pair_work`` beyond which
#: ``M = A @ A.T`` is considered too dense to materialise.
MATRIX_PAIRS_PER_SECOND = 2_000_000.0
_MATRIX_MIN_SECONDS = 0.005
_MATRIX_MAX_PAIR_WORK = 25_000_000
#: The (3, 3) anchored pass re-reads the pair matrix per anchor; price
#: it as a constant factor over the plain pair-matrix build.
_MATRIX_33_WORK_FACTOR = 8.0


@dataclass(frozen=True)
class GraphProfile:
    """Dataset statistics the planner prices queries with.

    Computed once per registration (``root_cost`` is an O(E) pass of
    binary searches) and immutable thereafter.
    """

    n_left: int
    n_right: int
    num_edges: int
    max_degree_left: int
    max_degree_right: int
    #: Summed first-level candidate-pair work over all root edges — the
    #: planner's proxy for EPivoter's traversal size.
    root_cost: int
    #: ``sum(d^2)`` over the opposite side's degrees: the multiply-add
    #: cost (and nnz bound) of the matrix engine's ``A @ A.T`` per side.
    pair_work_left: int = 0
    pair_work_right: int = 0

    @classmethod
    def from_graph(cls, graph: "BipartiteGraph") -> "GraphProfile":
        """Profile a **degree-ordered** graph (the executor orders first)."""
        from repro.graph.bigraph import LEFT, RIGHT
        from repro.graph.sparse import pair_work
        from repro.utils.parallel import root_edge_weight

        root_cost = sum(
            root_edge_weight(graph, u, v) for u, v in graph.edges()
        )
        return cls(
            n_left=graph.n_left,
            n_right=graph.n_right,
            num_edges=graph.num_edges,
            max_degree_left=max(graph.degrees_left(), default=0),
            max_degree_right=max(graph.degrees_right(), default=0),
            root_cost=root_cost,
            pair_work_left=pair_work(graph, LEFT),
            pair_work_right=pair_work(graph, RIGHT),
        )

    def to_dict(self) -> dict:
        return {
            "n_left": self.n_left,
            "n_right": self.n_right,
            "num_edges": self.num_edges,
            "max_degree_left": self.max_degree_left,
            "max_degree_right": self.max_degree_right,
            "root_cost": self.root_cost,
            "pair_work_left": self.pair_work_left,
            "pair_work_right": self.pair_work_right,
        }


@dataclass
class QueryPlan:
    """One executable decision: which engine, with which parameters.

    ``exact`` says whether the produced value is an exact integer.
    ``degraded`` marks plans that already deliver less than the request
    asked for (an estimate instead of an exact count, or fewer samples
    than requested).  ``fallback`` is the pre-computed degradation plan
    an exact run switches to when its runtime budgets trip.
    """

    method: str  # "epivoter" | "matrix" | "stars" | "zigzag++" | "zigzag" | "hybrid" | "adaptive"
    params: dict = field(default_factory=dict)
    exact: bool = False
    degraded: bool = False
    reason: str = ""
    fallback: "QueryPlan | None" = None
    #: The planner's runtime prediction for this engine, in seconds
    #: (None where no cost model applies, e.g. stars / forced plans).
    #: Recorded on the request trace's ``plan`` span so a mispredicted
    #: plan can be diagnosed from the trace alone.
    predicted_seconds: "float | None" = None


def _deadline_samples(
    deadline: "float | None",
    requested: "int | None",
    samples_per_second: float,
) -> tuple[int, int, bool]:
    """Sample budget for a deadline: ``(fit, want, undercut)``.

    ``want`` is the requested budget, or ``_DEFAULT_SAMPLES`` when the
    request left it to the service.  ``undercut`` is True whenever the
    deadline clips the run below ``want`` — including below the
    *default*: a caller who asked for nothing specific was still
    promised the documented default, so delivering less is degradation
    either way.
    """
    want = requested if requested is not None else _DEFAULT_SAMPLES
    if deadline is None:
        return want, want, False
    fit = int(deadline * samples_per_second)
    fit = max(_MIN_SAMPLES, min(fit, _MAX_DEADLINE_SAMPLES))
    if fit < want:
        return fit, want, True
    return want, want, False


def _matrix_plan(
    profile: GraphProfile,
    p: int,
    q: int,
    deadline: "float | None",
) -> "QueryPlan | None":
    """A ``matrix`` plan for this shape, or None when it does not apply.

    Applies when the shape has a closed form (``min(p, q) <= 2`` beyond
    stars, or (3, 3)), the pair matrix is
    affordable (``pair_work`` under ``_MATRIX_MAX_PAIR_WORK`` — the
    memory guard for a too-dense ``M``), and the predicted time fits the
    deadline share.  Star shapes are left to the ``stars`` plan, which
    needs no matrix at all.
    """
    from repro.core.matrix import matrix_supported

    if min(p, q) == 1 or not matrix_supported(p, q):
        return None
    if p == 2 and q != 2:
        work = profile.pair_work_left
    elif q == 2 and p != 2:
        work = profile.pair_work_right
    else:  # (2, 2) and (3, 3) pick the cheaper side
        work = min(profile.pair_work_left, profile.pair_work_right)
    if p == 3 and q == 3:
        work = int(work * _MATRIX_33_WORK_FACTOR)
    if work > _MATRIX_MAX_PAIR_WORK:
        return None
    predicted = _MATRIX_MIN_SECONDS + work / MATRIX_PAIRS_PER_SECOND
    if deadline is not None and predicted > deadline * _EXACT_DEADLINE_SHARE:
        return None
    return QueryPlan(
        method="matrix",
        exact=True,
        reason=(
            f"closed-form matrix engine for ({p}, {q}) "
            f"(pair work {work}, predicted {predicted:.3f}s)"
        ),
        predicted_seconds=predicted,
    )


def plan_query(
    profile: GraphProfile,
    kind: str,
    p: int,
    q: int,
    method: str = "auto",
    deadline: "float | None" = None,
    delta: "float | None" = None,
    epsilon: "float | None" = None,
    samples: "int | None" = None,
    seed: "int | None" = None,
    nodes_per_second: float = NODES_PER_SECOND,
    samples_per_second: float = SAMPLES_PER_SECOND,
    shards: int = 1,
    recently_mutated: bool = False,
) -> QueryPlan:
    """Choose the engine and parameters for one query (see module table).

    ``kind`` is ``"count"`` (the caller wants an exact answer if at all
    affordable) or ``"estimate"`` (an estimator is acceptable from the
    start).  ``method`` forces a specific engine and skips the table —
    the planner still arms deadline budgets where the engine supports
    them.  ``deadline`` is wall-clock seconds for the whole computation.

    ``shards`` scales the *exact-path* throughput: a cluster
    coordinator scattering root-edge ranges across N shards finishes an
    EPivoter pass roughly N times faster, so deadline feasibility is
    judged against ``nodes_per_second * shards``.  Estimator plans run
    locally on the coordinator and are priced single-node regardless.

    ``recently_mutated`` signals a pending (uncompacted) delta overlay.
    Shapes with maintained totals (``min(p, q) <= 2``) are answered
    exactly from them (``method="delta"``) without touching any engine;
    other shapes pay a snapshot-rebuild penalty on their exact-time
    prediction, biasing degradable queries toward estimators until the
    overlay compacts.
    """
    if kind not in ("count", "estimate"):
        raise ValueError("kind must be 'count' or 'estimate'")
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if deadline is not None and deadline <= 0:
        raise ValueError("deadline must be positive seconds")
    if shards < 1:
        raise ValueError("shards must be positive")
    exact_nps = nodes_per_second * shards

    estimator_plan = _estimator_plan(
        profile, p, q, deadline, delta, epsilon, samples, seed,
        nodes_per_second, samples_per_second,
    )

    if method != "auto":
        return _forced_plan(
            method, profile, p, q, deadline, delta, epsilon, samples, seed,
            exact_nps, samples_per_second, estimator_plan,
        )

    # A pending overlay with maintained totals beats every engine: the
    # answer is exact (satisfies any accuracy budget), O(histogram), and
    # needs no snapshot rebuild.
    if recently_mutated and min(p, q) <= 2:
        return QueryPlan(
            method="delta", exact=True,
            reason=(
                "pending mutation overlay: exact answer from the "
                "incrementally maintained wedge/butterfly totals"
            ),
        )

    # Star cells are exact closed forms for both kinds.
    if min(p, q) == 1:
        return QueryPlan(
            method="stars", exact=True,
            reason="min(p, q) == 1: exact star counts from the degree histogram",
        )

    if kind == "estimate":
        return estimator_plan

    # kind == "count": closed-form matrix engine ahead of the tree walk
    # whenever the shape qualifies and M is affordable.
    matrix_plan = _matrix_plan(profile, p, q, deadline)
    if matrix_plan is not None:
        return matrix_plan

    # Otherwise exact if the deadline (when any) plausibly allows.  On a
    # recently mutated graph the exact path must first rebuild and
    # re-ship a snapshot of the mutated view, and the stale profile
    # underprices the walk — penalise the prediction accordingly.
    predicted = profile.root_cost / exact_nps
    mutated_note = ""
    if recently_mutated:
        predicted *= _MUTATED_EXACT_PENALTY
        mutated_note = " on a recently mutated graph (estimators preferred until compaction)"
    if deadline is not None and predicted > deadline * _EXACT_DEADLINE_SHARE:
        return replace(
            estimator_plan,
            degraded=True,
            reason=(
                f"deadline {deadline:.3f}s too tight for exact counting"
                f"{mutated_note} (predicted {predicted:.3f}s); degraded to "
                f"{estimator_plan.method}"
            ),
            # The rejected exact prediction: the number that explains
            # *why* this plan degraded, surfaced on the trace.
            predicted_seconds=predicted,
        )
    return _exact_plan(
        p, q, deadline, predicted, exact_nps, estimator_plan
    )


def _exact_plan(
    p: int,
    q: int,
    deadline: "float | None",
    predicted: float,
    nodes_per_second: float,
    fallback: QueryPlan,
) -> QueryPlan:
    params: dict = {}
    reason = f"exact EPivoter (predicted {predicted:.3f}s)"
    if deadline is not None:
        # Runtime safety net: the node budget mirrors the time budget so
        # even a stalled clock cannot let the run overshoot unboundedly.
        params["time_budget"] = deadline
        params["node_budget"] = max(1, int(deadline * nodes_per_second * 4))
        reason += f", budgets armed for the {deadline:.3f}s deadline"
    fb = replace(
        fallback,
        degraded=True,
        reason="exact run exceeded its budget; estimator fallback",
    )
    return QueryPlan(
        method="epivoter", params=params, exact=True, reason=reason,
        fallback=fb, predicted_seconds=predicted,
    )


def _estimator_plan(
    profile: GraphProfile,
    p: int,
    q: int,
    deadline: "float | None",
    delta: "float | None",
    epsilon: "float | None",
    samples: "int | None",
    seed: "int | None",
    nodes_per_second: float,
    samples_per_second: float,
) -> QueryPlan:
    """The best estimator for this request (the table's lower half)."""
    if min(p, q) == 1:
        return QueryPlan(
            method="stars", exact=True,
            reason="min(p, q) == 1: exact star counts from the degree histogram",
        )
    if delta is not None or epsilon is not None:
        params = {
            "delta": delta if delta is not None else 0.05,
            "epsilon": epsilon if epsilon is not None else 0.05,
            "max_samples": samples if samples is not None else _MAX_DEADLINE_SAMPLES,
        }
        if seed is not None:
            params["seed"] = seed
        if deadline is not None:
            params["time_budget"] = deadline
        return QueryPlan(
            method="adaptive", params=params,
            reason="accuracy budget given: adaptive rounds to the Thm 4.11 bound",
        )
    # No accuracy budget: an exact closed form beats any estimator when
    # the shape and the pair-matrix guard allow it.
    matrix_plan = _matrix_plan(profile, p, q, deadline)
    if matrix_plan is not None:
        return matrix_plan
    fit_samples, want_samples, undercut = _deadline_samples(
        deadline, samples, samples_per_second
    )
    params = {"samples": fit_samples}
    if seed is not None:
        params["seed"] = seed
    sparse_exact_seconds = profile.root_cost / nodes_per_second
    if (
        deadline is None
        and sparse_exact_seconds <= _HYBRID_EXACT_SECONDS
    ):
        return QueryPlan(
            method="hybrid", params=params,
            reason=(
                "no deadline and the exact sparse-region pass fits "
                f"(predicted {sparse_exact_seconds:.3f}s): hybrid EP/ZZ++"
            ),
        )
    reason = "ZigZag++ sampling"
    if undercut:
        asked = "requested" if samples is not None else "default"
        reason = (
            f"deadline fits {fit_samples} of the {asked} {want_samples} "
            "samples; degraded ZigZag++"
        )
    return QueryPlan(
        method="zigzag++", params=params, degraded=undercut, reason=reason,
    )


def _forced_plan(
    method: str,
    profile: GraphProfile,
    p: int,
    q: int,
    deadline: "float | None",
    delta: "float | None",
    epsilon: "float | None",
    samples: "int | None",
    seed: "int | None",
    nodes_per_second: float,
    samples_per_second: float,
    estimator_plan: QueryPlan,
) -> QueryPlan:
    """Honour an explicit ``method`` while still arming runtime budgets."""
    if method == "epivoter":
        predicted = profile.root_cost / nodes_per_second
        return _exact_plan(
            p, q, deadline, predicted, nodes_per_second, estimator_plan
        )
    if method == "stars":
        if min(p, q) != 1:
            raise ValueError("method 'stars' requires min(p, q) == 1")
        return QueryPlan(method="stars", exact=True, reason="forced")
    if method == "delta":
        if min(p, q) > 2:
            raise ValueError(
                "method 'delta' maintains totals only for min(p, q) <= 2; "
                f"got ({p}, {q})"
            )
        return QueryPlan(method="delta", exact=True, reason="forced")
    if method == "matrix":
        from repro.core.matrix import matrix_supported

        if not matrix_supported(p, q):
            raise ValueError(
                "method 'matrix' has closed forms only for "
                f"min(p, q) <= 2 and (3, 3); got ({p}, {q})"
            )
        return QueryPlan(method="matrix", exact=True, reason="forced")
    if method == "adaptive":
        params = {
            "delta": delta if delta is not None else 0.05,
            "epsilon": epsilon if epsilon is not None else 0.05,
            "max_samples": samples if samples is not None else _MAX_DEADLINE_SAMPLES,
        }
        if seed is not None:
            params["seed"] = seed
        if deadline is not None:
            params["time_budget"] = deadline
        return QueryPlan(method="adaptive", params=params, reason="forced")
    if method in ("zigzag", "zigzag++", "hybrid"):
        fit_samples, want_samples, undercut = _deadline_samples(
            deadline, samples, samples_per_second
        )
        params = {"samples": fit_samples}
        if seed is not None:
            params["seed"] = seed
        # A forced run that clips its samples is still degraded — keep
        # the undercut detail so responses and /metrics can explain it.
        reason = "forced"
        if undercut:
            asked = "requested" if samples is not None else "default"
            reason = (
                f"forced; deadline fits {fit_samples} of the {asked} "
                f"{want_samples} samples"
            )
        return QueryPlan(
            method=method, params=params, degraded=undercut, reason=reason,
        )
    raise ValueError(f"unknown method {method!r}")
