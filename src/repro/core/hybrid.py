"""The hybrid counting framework (Section 5, Algorithm 9).

The sampling estimators shine in dense regions (an h-zigzag is likely to
hit a biclique), while EPivoter shines in sparse regions (few enumerated
bicliques).  The hybrid algorithm:

1. partitions the left side into a *sparse* region ``S`` and a *dense*
   region ``D`` with the peeling weight rule of Algorithm 9;
2. counts exactly with EPivoter over root edges whose left endpoint is in
   ``S``;
3. estimates with ZigZag or ZigZag++ over the subgraphs owned by ``D``.

Every biclique is attributed to the region of its minimal left vertex
under the degree ordering, so the two partial counts add up without
overlap (the paper's "thanks to the degree ordering" argument).
"""

from __future__ import annotations

import numpy as np

from repro.core.counts import BicliqueCounts
from repro.core.epivoter import EPivoter
from repro.core.zigzag import (
    _ENGINES,
    star_counts,
    zigzag_count_all,
    zigzagpp_count_all,
)
from repro.graph.bigraph import BipartiteGraph
from repro.graph.intersect import as_int64, exclusive_cumsum
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACE, Trace
from repro.utils.parallel import GraphPool, root_edge_weights

__all__ = [
    "partition_graph",
    "vertex_weights",
    "hybrid_count_all",
    "hybrid_count_single",
]


def vertex_weights(graph: BipartiteGraph) -> list[int]:
    """The peeling weights ``w(u)`` of Definition 5.1 / Algorithm 9.

    ``w(u) = sum over v in N(u) of |N^{>u}(v)| * |N^{>v}(u)|`` — the number
    of ordering-neighbor edge pairs rooted at each of ``u``'s edges, a
    cheap proxy for how much enumeration work the edge-rooted searches of
    EPivoter would spend on ``u``.  Requires a degree-ordered graph; runs
    in ``O(|E|)``: each term is the weight
    :func:`repro.utils.parallel.root_edge_weights` gives edge ``(u, v)``.
    """
    # w(u) sums u's root-edge weights; u's edges are the contiguous
    # edge-id range indptr[u]:indptr[u + 1], so each sum is a difference
    # of one exact int64 running total.
    indptr = as_int64(graph.csr_buffers()[0])
    running = exclusive_cumsum(root_edge_weights(graph))
    return (running[indptr[1:]] - running[indptr[:-1]]).tolist()


def partition_graph(
    graph: BipartiteGraph,
    tau: "float | None" = None,
    quantile: float = 0.9,
) -> tuple[set[int], set[int], list[int]]:
    """Split the left side into sparse ``S`` and dense ``D`` regions.

    ``tau`` is the weight threshold of Algorithm 9 (``w(u) > tau`` goes to
    the dense region).  When omitted it defaults to the ``quantile`` of
    the positive weights, which reproduces the paper's observation
    (Table 5) that the sparse region holds most vertices but few
    butterflies.

    Returns ``(sparse, dense, weights)``.
    """
    weights = vertex_weights(graph)
    if tau is None:
        positive = sorted(w for w in weights if w > 0)
        if not positive:
            tau = 0.0
        else:
            index = min(len(positive) - 1, int(quantile * len(positive)))
            tau = float(positive[index])
    sparse = {u for u in range(graph.n_left) if weights[u] <= tau}
    dense = {u for u in range(graph.n_left) if weights[u] > tau}
    return sparse, dense, weights


def hybrid_count_all(
    graph: BipartiteGraph,
    h_max: int = 10,
    samples: int = 100_000,
    seed: "int | None | np.random.Generator" = None,
    estimator: str = "zigzag",
    tau: "float | None" = None,
    quantile: float = 0.9,
    pivot: str = "product",
    workers: "int | None" = None,
    obs: "MetricsRegistry | None" = None,
) -> BicliqueCounts:
    """Hybrid EP + sampling estimate of all (p, q) counts up to ``h_max``.

    ``estimator`` selects the dense-region algorithm: ``"zigzag"`` (the
    paper's EP/ZZ) or ``"zigzag++"`` (EP/ZZ++).  ``workers`` parallelises
    both regions: the exact sparse-region EPivoter pass merges integer
    partials, and the dense-region sampler uses per-unit RNG streams, so
    results for any worker count match the serial run exactly —
    bit-identical given the same seed.

    ``obs`` records the partition sizes (``hybrid.sparse_vertices`` /
    ``hybrid.dense_vertices``) and per-region time (phase timers
    ``hybrid.partition`` / ``hybrid.exact_sparse`` /
    ``hybrid.estimate_dense``) on top of the engines' own counters.
    """
    if estimator not in ("zigzag", "zigzag++"):
        raise ValueError("estimator must be 'zigzag' or 'zigzag++'")
    reg = obs if obs is not None else NULL_REGISTRY
    ordered = graph if graph.is_degree_ordered() else graph.degree_ordered()[0]
    with reg.phase("hybrid.partition"):
        sparse, dense, _ = partition_graph(ordered, tau=tau, quantile=quantile)
    reg.gauge("hybrid.sparse_vertices", len(sparse))
    reg.gauge("hybrid.dense_vertices", len(dense))
    counts = BicliqueCounts(h_max, h_max)
    if sparse:
        with reg.phase("hybrid.exact_sparse"):
            exact_part = EPivoter(ordered, pivot=pivot).count_all(
                h_max, h_max, left_region=sparse, workers=workers, obs=obs
            )
        for p, q, value in exact_part.items():
            counts.add(p, q, value)
    if dense:
        estimate_fn = zigzag_count_all if estimator == "zigzag" else zigzagpp_count_all
        with reg.phase("hybrid.estimate_dense"):
            # The seed passes through untouched so an all-dense hybrid run
            # reproduces the pure sampler's estimate bit for bit.
            sampled_part = estimate_fn(
                ordered, h_max=h_max, samples=samples, seed=seed,
                left_region=dense, obs=obs, workers=workers,
            )
        for p, q, value in sampled_part.items():
            counts.add(p, q, value)
    return counts


def hybrid_count_single(
    graph: BipartiteGraph,
    p: int,
    q: int,
    samples: int = 100_000,
    seed: "int | None | np.random.Generator" = None,
    estimator: str = "zigzag",
    tau: "float | None" = None,
    quantile: float = 0.9,
    workers: "int | None" = None,
    obs: "MetricsRegistry | None" = None,
    trace: "Trace" = NULL_TRACE,
    pool: "GraphPool | None" = None,
    engine: "EPivoter | None" = None,
) -> float:
    """Hybrid estimate of one (p, q) count (the §5 remark).

    EPivoter counts the sparse-region contribution exactly with single-pair
    pruning bounds; the dense region is sampled at the single relevant
    zigzag level only.

    The service executor passes its resident graph's ``engine`` (an
    :class:`EPivoter` over the degree-ordered graph, reused instead of
    built per call) and ``pool`` (a :class:`GraphPool` holding that
    graph), on which both regions then run.
    """
    if estimator not in ("zigzag", "zigzag++"):
        raise ValueError("estimator must be 'zigzag' or 'zigzag++'")
    if min(p, q) < 1:
        raise ValueError("p and q must be positive")
    reg = obs if obs is not None else NULL_REGISTRY
    if engine is None:
        ordered = graph if graph.is_degree_ordered() else graph.degree_ordered()[0]
        engine = EPivoter(ordered)
    ordered = engine.graph
    with reg.phase("hybrid.partition"), trace.span("partition"):
        sparse, dense, _ = partition_graph(ordered, tau=tau, quantile=quantile)
    reg.gauge("hybrid.sparse_vertices", len(sparse))
    reg.gauge("hybrid.dense_vertices", len(dense))
    total = 0.0
    if sparse:
        with reg.phase("hybrid.exact_sparse"), trace.span(
            "exact_sparse", vertices=len(sparse)
        ):
            total += engine.count_all(
                p, q, left_region=sparse, workers=workers, obs=obs, pool=pool
            )[p, q]
    if dense:
        with reg.phase("hybrid.estimate_dense"), trace.span(
            "estimate_dense", vertices=len(dense)
        ):
            if min(p, q) == 1:
                star_part = BicliqueCounts(max(p, 2), max(q, 2))
                star_counts(ordered, star_part, dense)
                total += star_part[p, q]
            else:
                engine_cls = _ENGINES[estimator]
                level = min(p, q) - engine_cls.cell_offset
                sampler = engine_cls(
                    ordered,
                    max(p, q),
                    samples,
                    seed,
                    levels=[level],
                    unit_filter=dense,
                    obs=obs,
                    workers=workers,
                    pool=pool,
                )
                total += sampler.run()[p, q]
    return total
