"""The ZigZag and ZigZag++ sampling estimators (Algorithms 7–8).

Both estimators decompose the graph into local neighborhood subgraphs,
count h-zigzags exactly in each with the DP of :mod:`repro.core.dpcount`,
draw uniform zigzag samples allocated proportionally across subgraphs, and
convert zigzag "hits" (samples that induce a biclique) into unbiased
(p, q)-biclique count estimates via Theorem 4.4.

* **ZigZag** (Algorithm 7) uses one subgraph per *edge* ``e(u, v)`` — the
  ordering-neighborhood graph ``G'_e`` — and samples ``(h-1)``-zigzags:
  a (p, q)-biclique whose lexicographically smallest edge is ``e``
  corresponds to a (p-1, q-1)-biclique of ``G'_e``.
* **ZigZag++** (Algorithm 8) uses one subgraph per *left vertex* ``w`` —
  the 2-hop graph ``G_w`` — and samples ``h``-zigzags whose head edge
  leaves ``w``: a (p, q)-biclique whose smallest left vertex is ``w``
  contains ``C(q, p)`` (resp. ``C(p-1, q-1)``) such zigzags.

Cells with ``min(p, q) = 1`` (stars) are computed exactly in closed form;
sampling covers ``2 <= min(p, q) <= h_max``.  The proportional sample
allocation is randomised with a multinomial draw, which keeps the global
estimator exactly unbiased (DESIGN.md §4).

Hot-path engineering (beyond the paper)
---------------------------------------
The estimation driver is organised around *units* — one subgraph family
member (an edge for ZigZag, a left vertex for ZigZag++) — and is
deterministic at unit granularity:

* **per-unit RNG streams**: one ``np.random.SeedSequence`` child per
  unit (plus one for the multinomial allocation), so a unit's samples
  depend only on the seed and the unit — not on which process drew them
  or in which order.  Serial and parallel runs with the same seed are
  **bit-identical**.  Children are built on first use, so a call pays
  only for the units it samples.
* **batched unit building**: units are built ``UNIT_BATCH`` at a time;
  :func:`repro.graph.subgraph.two_hop_graphs` /
  :func:`~repro.graph.subgraph.edge_neighborhood_graphs` cut every side
  with numpy gathers and :func:`repro.graph.bigraph.csr_induce_many`
  induces the whole batch in one pass.
* **batch sampling**: each unit draws all its allocated samples per
  level through :meth:`ZigzagDP.sample_batch` — one vectorised
  inverse-CDF walk (Algorithm 6) for the whole allocation.
* **exact totals counted once per graph**: a unit's level-h zigzag total
  depends only on the graph, the unit and h — never on the seed, the
  sample count or the DP's top level (each table level is built from the
  one below it only).  So the totals pass memoises them on the ordered
  graph object itself (:func:`_memo_lookup` / :func:`_memo_publish`),
  keyed by ``(kind, level)``: one flat float64 array over all units plus
  a filled mask.  Zigzag, zigzag++, hybrid's dense pass and every
  adaptive round share it; a repeat estimate on the same graph builds DP
  state only for the units it samples.  The memo lives and dies with the
  graph object, so a mutated graph version starts with an empty one.
* **unit state lasts one pass**: built ``(LocalSubgraph, ZigzagDP)``
  state is used where it is built and dropped (:func:`_unit_states`),
  so a pass holds at most one ``UNIT_BATCH`` of it and nothing outlives
  a call, in the parent or in a resident pool worker.  The sampling
  pass rebuilds the units it samples (``zigzag.dp_rebuild_cells``).
* **unit fan-out**: ``workers=`` chunks the units over processes via
  :class:`repro.utils.parallel.GraphPool`; the graph ships once for both
  passes and per-unit partial sums merge back in unit order, preserving
  float-accumulation order exactly.  ``pool=`` runs both passes on a
  caller's resident pool instead (the service executor passes each
  graph's), which ships nothing and is left open.  Each pass has one
  chunk function (:func:`_totals_chunk`, :func:`_sampling_chunk`); a
  serial run calls it in-process on a single chunk.
* **no star pass for one cell**: the closed-form star cells are
  computed only by the all-cells estimators; a caller that names its
  sampled ``levels`` (:func:`_estimate_single`, hybrid's and adaptive's
  single cell) reads one cell with ``min(p, q) >= 2`` and skips them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.counts import BicliqueCounts
from repro.core.dpcount import ZigzagDP
from repro.graph.bigraph import BipartiteGraph
from repro.graph.intersect import as_int64, common_neighborhood, is_subset_sorted
from repro.graph.subgraph import LocalSubgraph, edge_neighborhood_graphs, two_hop_graphs
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACE, Trace
from repro.utils.combinatorics import binomial
from repro.utils.parallel import (
    RANGES_PER_WORKER,
    GraphPool,
    resolve_workers,
    split_worker_results,
    weighted_ranges,
    worker_graph,
    worker_warmup_seconds,
)
from repro.utils.rng import spawn_sequences

__all__ = [
    "zigzag_count_all",
    "zigzagpp_count_all",
    "zigzag_count_single",
    "zigzagpp_count_single",
    "SamplingStats",
    "star_counts",
]

#: Units whose local subgraphs are induced together by one
#: :func:`~repro.graph.bigraph.csr_induce_many` call: enough to spread
#: its fixed numpy cost thin, few enough to bound the gathered rows.
UNIT_BATCH = 32

#: Guards every totals memo: creation, lookups and publishes.  Misses are
#: computed outside it, so it is only ever held for array copies.
_MEMO_LOCK = threading.Lock()


@dataclass
class SamplingStats:
    """Diagnostics collected during estimation (Table 4 of the paper).

    ``zigzag_totals[h]`` is the total number of (level-h) zigzags across
    all subgraphs; ``max_hit[(p, q)]`` is the largest per-sample biclique
    count ``Z = max c_{p,q}(Z_i)`` observed; ``samples[h]`` the realised
    sample count.
    """

    zigzag_totals: dict[int, float] = field(default_factory=dict)
    max_hit: dict[tuple[int, int], float] = field(default_factory=dict)
    samples: dict[int, int] = field(default_factory=dict)

    def merge(self, other: "SamplingStats") -> "SamplingStats":
        """Fold another (partial) stats object into this one, in place.

        Totals and sample counts add, per-cell maxima take the larger
        value — all order-independent operations, so merging per-chunk
        partials in any order reproduces a serial run's stats exactly.
        Returns ``self`` for chaining.
        """
        for level, total in other.zigzag_totals.items():
            self.zigzag_totals[level] = self.zigzag_totals.get(level, 0.0) + total
        for pair, value in other.max_hit.items():
            if value > self.max_hit.get(pair, 0.0):
                self.max_hit[pair] = value
        for level, drawn in other.samples.items():
            self.samples[level] = self.samples.get(level, 0) + drawn
        return self

    def z_over_rho_squared(self, p: int, q: int, estimate: float, level: int, denom: int) -> float:
        """The sampling-hardness ratio ``(Z / rho)^2`` of Theorem 4.11."""
        total = self.zigzag_totals.get(level, 0.0)
        if not total or not estimate:
            return float("inf")
        rho = denom * estimate / total
        z = self.max_hit.get((p, q), 0.0)
        if rho == 0:
            return float("inf")
        return (z / rho) ** 2


def _binomial_histogram_sum(histogram: np.ndarray, k: int) -> int:
    """``sum over vertices of C(degree, k)`` from a degree histogram.

    One exact-integer binomial per *distinct* degree instead of one per
    vertex; the multiplication by the degree's multiplicity stays in
    Python integers, so the star cells remain exact.
    """
    return sum(
        int(multiplicity) * binomial(degree, k)
        for degree, multiplicity in enumerate(histogram)
        if multiplicity
    )


def star_counts(
    graph: BipartiteGraph,
    counts: BicliqueCounts,
    left_region: "set[int] | None" = None,
) -> None:
    """Fill the exact closed-form cells with ``min(p, q) = 1``.

    Without a region: ``C_{1,q} = sum_u C(d(u), q)`` and
    ``C_{p,1} = sum_v C(d(v), p)``, computed over a ``np.bincount``
    degree histogram (one binomial per distinct degree).  With
    ``left_region`` only the stars whose *minimal left vertex* lies in
    the region are counted — the attribution rule the hybrid algorithm
    uses to keep regions disjoint (every biclique belongs to the region
    of its smallest left vertex under the degree ordering).
    """
    if left_region is None:
        left_hist = np.bincount(np.asarray(graph.degrees_left(), dtype=np.int64))
        right_hist = np.bincount(np.asarray(graph.degrees_right(), dtype=np.int64))
        for q in range(1, counts.max_q + 1):
            counts.add(1, q, _binomial_histogram_sum(left_hist, q))
        for p in range(2, counts.max_p + 1):
            counts.add(p, 1, _binomial_histogram_sum(right_hist, p))
        return
    region_degrees = np.asarray(
        [graph.degree_left(u) for u in left_region], dtype=np.int64
    )
    region_hist = np.bincount(region_degrees) if region_degrees.size else region_degrees
    for q in range(1, counts.max_q + 1):
        counts.add(1, q, _binomial_histogram_sum(region_hist, q))
    # (p, 1) stars: choose a right vertex v and p of its neighbors; the
    # star belongs to the region of the smallest chosen neighbor, so for
    # each neighbor u (rank r from the end) it is the minimum of
    # C(#later neighbors, p - 1) stars.
    for v in range(graph.n_right):
        adj = graph.neighbors_right(v)
        degree = len(adj)
        for rank, u in enumerate(adj):
            if u not in left_region:
                continue
            later = degree - rank - 1
            for p in range(2, counts.max_p + 1):
                counts.add(p, 1, binomial(later, p - 1))


# ----------------------------------------------------------------------
# Hit testing
# ----------------------------------------------------------------------


def _hit_pools(local: BipartiteGraph, left: list[int], right: list[int]):
    """If ``(left, right)`` induces a biclique in ``local``, return the
    sizes of the extension pools ``(|N(L) \\ R|, |N(R) \\ L|)``; else None.
    """
    # Fold the left side's CSR rows; the kernel short-circuits the fold
    # as soon as the running intersection drops below |right|.
    common_right = common_neighborhood(
        [local.row_left(u) for u in left], limit=len(right)
    )
    if not common_right or not is_subset_sorted(sorted(right), common_right):
        return None
    common_left = common_neighborhood([local.row_right(v) for v in right])
    return len(common_right) - len(right), len(common_left) - len(left)


def _hit_pools_batch(
    local: BipartiteGraph, lefts: np.ndarray, rights: np.ndarray
) -> list:
    """:func:`_hit_pools` over a ``(k, h)`` sample matrix, memoised.

    Repeated zigzags (common in dense units, where few distinct zigzags
    absorb many draws) run the intersection kernels once; the per-sample
    result list keeps the original draw order, so downstream accumulation
    runs in draw order.
    """
    pools = []
    memo: dict[tuple[bytes, bytes], "tuple[int, int] | None"] = {}
    for row in range(lefts.shape[0]):
        key = (lefts[row].tobytes(), rights[row].tobytes())
        cached = memo.get(key, memo)
        if cached is memo:  # sentinel: None is a valid cached value
            cached = memo[key] = _hit_pools(
                local, lefts[row].tolist(), rights[row].tolist()
            )
        pools.append(cached)
    return pools


# ----------------------------------------------------------------------
# Per-unit machinery (shared by the serial path and chunk workers)
# ----------------------------------------------------------------------


def _build_units(graph: BipartiteGraph, kind: str, units: list) -> "list[LocalSubgraph]":
    """Build the subgraph family members of ``units``, induced together."""
    if kind == "zigzag":
        return edge_neighborhood_graphs(graph, [graph.edge_at(unit) for unit in units])
    return two_hop_graphs(graph, units)


def _dp_state(kind: str, max_level: int, local: LocalSubgraph, acct: dict):
    """A unit's ``(LocalSubgraph, ZigzagDP, head_range)``; its DP cell
    count is charged to ``acct``."""
    if local.num_edges == 0:
        return (local, None, None)
    dp = ZigzagDP(local.graph, max_level)
    # Two directed-edge tables (A and B) per DP level.
    acct["dp_cells"] += 2 * dp.num_edges * max_level
    # The 2-hop subgraph owner w has local left id 0 by construction.
    head = dp.head_range_for_left(0) if kind == "zigzagpp" else None
    return (local, dp, head)


def _unit_states(
    graph: BipartiteGraph, kind: str, max_level: int, units: list, acct: dict
):
    """Yield the built ``(LocalSubgraph, ZigzagDP, head_range)`` of each
    unit, in order.

    Each run of ``UNIT_BATCH`` units has its subgraphs induced together
    and each unit's DP built as the caller reaches it.  Nothing is kept:
    a state is dropped once the caller moves past it, so a pass holds at
    most one batch of unit state, and the sampling pass rebuilds every
    unit it samples.
    """
    for start in range(0, len(units), UNIT_BATCH):
        for local in _build_units(graph, kind, units[start : start + UNIT_BATCH]):
            yield _dp_state(kind, max_level, local, acct)


def _estimate_unit(
    state,
    kind: str,
    h_max: int,
    levels: "tuple[int, ...]",
    alloc_row,
    seed_seq: np.random.SeedSequence,
    acct: dict,
):
    """Draw one unit's allocated samples and accumulate its hit weights.

    Returns ``(sums, max_hit, hits)`` where ``sums[(p, q)]`` is the sum
    of per-sample biclique weights in draw order (so merging units in
    unit order reproduces a flat serial accumulation bit for bit).  The
    unit's generator comes from its own spawned ``seed_seq``, making the
    result independent of chunking and worker count.
    """
    local, dp, head = state
    rng = np.random.default_rng(seed_seq)
    cell_base = 1 if kind == "zigzag" else 0
    sums: dict[tuple[int, int], float] = {}
    max_hit: dict[tuple[int, int], float] = {}
    hits = 0
    for col, level in enumerate(levels):
        k = int(alloc_row[col])
        if not k:
            continue
        lefts, rights = dp.sample_batch(level, k, rng, head)
        pools = _hit_pools_batch(local.graph, lefts, rights)
        acct["batches"] += 1
        if k > acct["batch_max"]:
            acct["batch_max"] = k
        base = level + cell_base
        for pair in pools:
            if pair is None:
                continue
            hits += 1
            pool_right, pool_left = pair
            for extra in range(0, min(pool_right, h_max - base) + 1):
                weight = binomial(pool_right, extra)
                cell = (base, base + extra)
                sums[cell] = sums.get(cell, 0.0) + weight
                if weight > max_hit.get(cell, 0.0):
                    max_hit[cell] = float(weight)
            for extra in range(1, min(pool_left, h_max - base) + 1):
                weight = binomial(pool_left, extra)
                cell = (base + extra, base)
                sums[cell] = sums.get(cell, 0.0) + weight
                if weight > max_hit.get(cell, 0.0):
                    max_hit[cell] = float(weight)
    return sums, max_hit, hits


def _denominator(kind: str, p: int, q: int) -> int:
    """Zigzags per (p, q)-biclique in the unit's local frame (Thm 4.4)."""
    if kind == "zigzag":
        return binomial(max(p, q) - 1, min(p, q) - 1)
    if p <= q:
        return binomial(q, p)
    return binomial(p - 1, q - 1)


def _new_acct() -> dict:
    return {"dp_cells": 0, "batches": 0, "batch_max": 0}


def _acct_stats(acct: dict) -> dict:
    """Fold an acct dict into worker-stat counter/gauge form."""
    return {
        "counters": {
            "zigzag.dp_table_cells": acct["dp_cells"],
            "zigzag.sample_batches": acct["batches"],
        },
        "gauges": {"zigzag.batch_max_size": acct["batch_max"]},
    }


def _memo_lookup(
    graph: BipartiteGraph, kind: str, levels: "tuple[int, ...]", unit_ids: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Memoised totals of ``unit_ids``: a ``(units, levels)`` array and
    the mask of units known at every level (other rows are zero)."""
    totals = np.zeros((unit_ids.size, len(levels)), dtype=np.float64)
    filled = np.ones(unit_ids.size, dtype=bool)
    with _MEMO_LOCK:
        memo = graph._zigzag_totals or {}
        for col, level in enumerate(levels):
            entry = memo.get((kind, level))
            if entry is None:
                filled[:] = False
                continue
            values, known = entry
            totals[:, col] = values[unit_ids]
            filled &= known[unit_ids]
    return totals, filled


def _memo_publish(
    graph: BipartiteGraph,
    kind: str,
    levels: "tuple[int, ...]",
    unit_ids: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Merge freshly computed ``(units, levels)`` totals into the memo.

    One lock covers the values and the mask, so a concurrent lookup
    never sees a unit marked known before its value is written.
    """
    n_units = graph.num_edges if kind == "zigzag" else graph.n_left
    with _MEMO_LOCK:
        if graph._zigzag_totals is None:
            graph._zigzag_totals = {}
        memo = graph._zigzag_totals
        for col, level in enumerate(levels):
            entry = memo.get((kind, level))
            if entry is None:
                entry = memo[(kind, level)] = (
                    np.zeros(n_units, dtype=np.float64),
                    np.zeros(n_units, dtype=bool),
                )
            values, known = entry
            values[unit_ids] = rows[:, col]
            known[unit_ids] = True


def _totals_chunk(payload, graph: "BipartiteGraph | None" = None):
    """Exact per-level zigzag totals of one chunk of units (the DP pass).

    Pool workers read the pool's graph; a serial run passes its own.
    """
    kind, max_level, levels, units, collect = payload
    if graph is None:
        graph = worker_graph()
    acct = _new_acct()
    start = time.perf_counter()
    rows = []
    for _, dp, head in _unit_states(graph, kind, max_level, units, acct):
        if dp is None:
            rows.append([0.0] * len(levels))
        else:
            rows.append([float(dp.zigzag_count(level, head)) for level in levels])
    if not collect:
        return rows, None
    stats = _acct_stats(acct)
    stats.update(
        phase="zigzag.dp_pass",
        units=len(units),
        wall_time=time.perf_counter() - start,
        warmup_seconds=worker_warmup_seconds(),
    )
    return rows, stats


def _sampling_chunk(payload, graph: "BipartiteGraph | None" = None):
    """Sample one chunk of ``(row, unit, alloc_row, seed_seq)`` items in
    order, each unit with its own stream.

    Returns ``([(row, sums, hits), ...], stats)``; the stats carry the
    chunk's :class:`SamplingStats` partial (every unit's per-cell maximum
    hit) under ``"sampling"``.  Graph as in :func:`_totals_chunk`.
    """
    kind, h_max, max_level, levels, items, collect = payload
    if graph is None:
        graph = worker_graph()
    acct = _new_acct()
    start = time.perf_counter()
    partial = SamplingStats()
    results = []
    states = _unit_states(graph, kind, max_level, [item[1] for item in items], acct)
    for (row, _unit, alloc_row, seed_seq), state in zip(items, states):
        sums, max_hit, hits = _estimate_unit(
            state, kind, h_max, levels, alloc_row, seed_seq, acct
        )
        results.append((row, sums, hits))
        partial.merge(SamplingStats(max_hit=max_hit))
    if not collect:
        # The stats partial must ride back even without observability:
        # the parent's SamplingStats.max_hit feeds adaptive sampling.
        return results, {"sampling": partial}
    stats = _acct_stats(acct)
    # The sampling pass rebuilds the units the totals pass built (or
    # read from the memo): charge its cells apart, so
    # ``zigzag.dp_table_cells`` counts each unit's totals build once.
    counters = stats["counters"]
    counters["zigzag.dp_rebuild_cells"] = counters.pop("zigzag.dp_table_cells")
    stats.update(
        phase="zigzag.sampling_pass",
        units=len(items),
        wall_time=time.perf_counter() - start,
        warmup_seconds=worker_warmup_seconds(),
        samples_drawn=sum(sum(item[2]) for item in items),
        sample_hits=sum(hits for _, _, hits in results),
        sampling=partial,
    )
    return results, stats


# ----------------------------------------------------------------------
# Shared estimation driver
# ----------------------------------------------------------------------


class _Estimator:
    """Two-pass proportional-allocation zigzag estimation engine.

    Subclasses define the subgraph family (``kind``) and its sampled
    levels; everything else — DP construction, multinomial allocation,
    per-unit-stream batch sampling, process fan-out, unbiased scaling —
    is shared between ZigZag and ZigZag++.
    """

    #: Subgraph family: ``"zigzag"`` (per edge) or ``"zigzagpp"`` (per
    #: left vertex); also selects hit-cell mapping and denominators.
    kind = "zigzag"
    #: Sampled levels map to cells with min(p, q) = level + cell_offset.
    cell_offset = 0

    def __init__(
        self,
        graph: BipartiteGraph,
        h_max: int,
        samples: int,
        seed: "int | None | np.random.Generator | np.random.SeedSequence" = None,
        levels: "list[int] | None" = None,
        unit_filter: "set[int] | None" = None,
        obs: "MetricsRegistry | None" = None,
        workers: "int | None" = None,
        pool: "GraphPool | None" = None,
    ):
        if h_max < 2:
            raise ValueError("h_max must be at least 2")
        if samples < 1:
            raise ValueError("samples must be positive")
        self.graph = graph
        self.h_max = h_max
        self.samples = samples
        self.seed = seed
        # A caller naming its levels reads only sampled cells, so the
        # closed-form star cells are computed for all-cells runs only.
        self.stars = levels is None
        self.levels = levels if levels is not None else self.default_levels()
        self.unit_filter = unit_filter
        self.stats = SamplingStats()
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.workers = workers
        self.pool = pool

    # Subclass hooks -----------------------------------------------------

    def default_levels(self) -> list[int]:
        raise NotImplementedError

    def units(self) -> list[int]:
        """Identifiers of the subgraph family (edge index / left vertex)."""
        raise NotImplementedError

    # Driver -------------------------------------------------------------

    def run(self) -> BicliqueCounts:
        obs = self.obs
        track = obs.enabled
        counts = BicliqueCounts(self.h_max, self.h_max)
        if self.stars:
            star_counts(self.graph, counts, self.unit_filter)
        units = self.units()
        levels = tuple(self.levels)
        max_level = max(levels, default=0)
        if track:
            obs.incr("zigzag.units", len(units))
            obs.gauge_max("zigzag.levels", len(levels))
        if max_level == 0 or not units:
            return counts
        n_workers = min(resolve_workers(self.workers), len(units))
        pool = self.pool
        own_pool = None
        try:
            if pool is None and n_workers > 1:
                pool = own_pool = GraphPool(self.graph, n_workers, obs if track else None)
            if pool is not None and track:
                obs.gauge_max("parallel.workers", pool.max_workers)
            # Pass 1: exact zigzag totals per unit and per level.
            with obs.phase("zigzag.dp_pass"):
                totals = self._totals_pass(units, levels, max_level, pool)
            level_totals = totals.sum(axis=0)
            for col, level in enumerate(levels):
                self.stats.zigzag_totals[level] = float(level_totals[col])
            # Deterministic streams: child 0 allocates, child 1 + i
            # samples unit i — a pure function of the seed and the unit,
            # independent of chunking and worker count.  Children are
            # built on first use, so only the sampled units pay for one.
            children = spawn_sequences(self.seed, len(units) + 1)
            alloc_rng = np.random.default_rng(children[0])
            allocation = np.zeros_like(totals, dtype=np.int64)
            for col, level in enumerate(levels):
                if level_totals[col] <= 0:
                    continue
                probs = totals[:, col] / level_totals[col]
                allocation[:, col] = alloc_rng.multinomial(self.samples, probs)
                self.stats.samples[level] = int(allocation[:, col].sum())
            active = [int(row) for row in np.flatnonzero(allocation.any(axis=1))]
            drawn_total = int(allocation.sum())
            # Pass 2: per-unit-stream sampling and in-order accumulation.
            start = time.perf_counter()
            with obs.phase("zigzag.sampling_pass"):
                results = self._sampling_pass(
                    units, levels, max_level, allocation, active, children, pool
                )
            elapsed = time.perf_counter() - start
            sums: dict[tuple[int, int], float] = {}
            hits = 0
            for _row, unit_sums, unit_hits in results:
                hits += unit_hits
                for pair, value in unit_sums.items():
                    sums[pair] = sums.get(pair, 0.0) + value
        finally:
            if own_pool is not None:
                own_pool.close()
        for (p, q), total in sums.items():
            level = min(p, q) - self.cell_offset
            zigzags = self.stats.zigzag_totals.get(level, 0.0)
            drawn = self.stats.samples.get(level, 0)
            if not zigzags or not drawn:
                continue
            estimate = zigzags * total / (drawn * _denominator(self.kind, p, q))
            counts.add(p, q, estimate)
        if track:
            obs.incr("zigzag.samples_drawn", drawn_total)
            obs.incr("zigzag.sample_hits", hits)
            # Misses (zero-estimate samples): the zero-estimate rate of a
            # run is sample_misses / samples_drawn.
            obs.incr("zigzag.sample_misses", drawn_total - hits)
            if elapsed > 0:
                obs.gauge("zigzag.samples_per_sec", drawn_total / elapsed)
        return counts

    def _totals_pass(self, units, levels, max_level, pool) -> np.ndarray:
        """Exact per-unit totals: memoised rows from the graph's memo,
        the rest computed (serially or over the pool) and published."""
        unit_ids = np.asarray(units, dtype=np.int64)
        totals, filled = _memo_lookup(self.graph, self.kind, levels, unit_ids)
        missing = np.flatnonzero(~filled)
        if self.obs.enabled:
            self.obs.incr("zigzag.totals_memo_hits", len(units) - missing.size)
            self.obs.incr("zigzag.totals_memo_misses", missing.size)
        rows = self._run_pass(
            _totals_chunk, (self.kind, max_level, levels),
            [units[i] for i in missing.tolist()], pool,
        )
        if missing.size:
            rows = np.asarray(rows, dtype=np.float64)
            totals[missing] = rows
            _memo_publish(self.graph, self.kind, levels, unit_ids[missing], rows)
        return totals

    def _sampling_pass(
        self, units, levels, max_level, allocation, active, children, pool
    ) -> list:
        """Sample every allocated unit; returns in-unit-order results."""
        items = [
            (row, units[row], tuple(int(k) for k in allocation[row]), children[row + 1])
            for row in active
        ]
        return self._run_pass(
            _sampling_chunk, (self.kind, self.h_max, max_level, levels), items, pool
        )

    def _run_pass(self, worker, head: tuple, items: list, pool) -> list:
        """Run one pass's chunk ``worker`` over ``items``, results in order.

        With a pool, ``items`` are cut into in-order chunks and each
        worker's stats are recorded per worker; otherwise (or with
        nothing to fan out) ``worker`` runs in-process on one chunk and
        its counters fold straight into the totals, with no per-worker
        entry.  Either way the ``"sampling"`` partials merge into
        :attr:`stats`.
        """
        obs = self.obs
        collect = obs.enabled
        if pool is not None and items:
            chunks = _in_order_chunks(items, pool.max_workers)
            if collect:
                obs.gauge_max("parallel.chunks", len(chunks))
            parts = split_worker_results(
                pool.map(worker, [head + (chunk, collect) for chunk in chunks]),
                obs, self.stats,
            )
            return [result for part in parts for result in part]
        results, stats = worker(head + (items, collect), self.graph)
        if stats is not None:
            if "sampling" in stats:
                self.stats.merge(stats["sampling"])
            for name, value in stats.get("counters", {}).items():
                obs.incr(name, value)
            for name, value in stats.get("gauges", {}).items():
                obs.gauge_max(name, value)
        return results


def _in_order_chunks(items: list, n_workers: int) -> list[list]:
    """Contiguous unit-weight chunks of ``items`` for the pool fan-out.

    Per-unit results are merged back in unit order, so the chunks must
    preserve it; more chunks than workers lets the pool rebalance when
    allocation concentrates on a few dense units.
    """
    cut = weighted_ranges([1] * len(items), n_workers * RANGES_PER_WORKER)
    return [items[start:stop] for start, stop, _ in cut]


class _ZigZag(_Estimator):
    """Per-edge neighborhood subgraphs (Algorithm 7)."""

    kind = "zigzag"
    cell_offset = 1  # local level h' serves cells with min(p, q) = h' + 1

    def default_levels(self) -> list[int]:
        return list(range(1, self.h_max))

    def units(self) -> list[int]:
        graph = self.graph
        if self.unit_filter is None:
            return list(range(graph.num_edges))
        in_region = np.zeros(graph.n_left, dtype=bool)
        in_region[list(self.unit_filter)] = True
        # Edge ids are left-CSR offsets: edge k's left end owns slot k.
        owners = np.repeat(in_region, np.diff(as_int64(graph.csr_buffers()[0])))
        return np.flatnonzero(owners).tolist()


class _ZigZagPP(_Estimator):
    """Per-vertex 2-hop subgraphs (Algorithm 8)."""

    kind = "zigzagpp"
    cell_offset = 0  # level h serves cells with min(p, q) = h

    def default_levels(self) -> list[int]:
        return list(range(2, self.h_max + 1))

    def units(self) -> list[int]:
        vertices = range(self.graph.n_left)
        if self.unit_filter is None:
            return list(vertices)
        return [w for w in vertices if w in self.unit_filter]


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def _prepare(graph: BipartiteGraph) -> BipartiteGraph:
    if graph.is_degree_ordered():
        return graph
    ordered, _, _ = graph.degree_ordered()
    return ordered


def zigzag_count_all(
    graph: BipartiteGraph,
    h_max: int = 10,
    samples: int = 100_000,
    seed: "int | None | np.random.Generator" = None,
    return_stats: bool = False,
    left_region: "set[int] | None" = None,
    obs: "MetricsRegistry | None" = None,
    workers: "int | None" = None,
):
    """Estimate all (p, q)-biclique counts with ZigZag (Algorithm 7).

    ``samples`` is the per-level sample budget ``T``; ``left_region``
    optionally restricts the root edges to those whose left endpoint lies
    in the region (used by the hybrid algorithm, which passes a dense
    region of an already degree-ordered graph).

    ``workers`` fans the per-edge units out over processes (0 = one per
    CPU); thanks to per-unit RNG streams the estimate is **bit-identical**
    for any worker count given the same seed.

    Returns a :class:`BicliqueCounts` (float cells for sampled levels,
    exact integers for ``min(p, q) = 1``), plus :class:`SamplingStats`
    when ``return_stats`` is set.  ``obs`` collects sampling counters
    (samples drawn, hit/miss split, DP table and rebuild cells,
    samples/sec) and phase timers.
    """
    ordered = _prepare(graph)
    engine = _ZigZag(
        ordered, h_max, samples, seed, unit_filter=left_region, obs=obs,
        workers=workers,
    )
    counts = engine.run()
    if return_stats:
        return counts, engine.stats
    return counts


def zigzagpp_count_all(
    graph: BipartiteGraph,
    h_max: int = 10,
    samples: int = 100_000,
    seed: "int | None | np.random.Generator" = None,
    return_stats: bool = False,
    left_region: "set[int] | None" = None,
    obs: "MetricsRegistry | None" = None,
    workers: "int | None" = None,
):
    """Estimate all (p, q)-biclique counts with ZigZag++ (Algorithm 8)."""
    ordered = _prepare(graph)
    engine = _ZigZagPP(
        ordered, h_max, samples, seed, unit_filter=left_region, obs=obs,
        workers=workers,
    )
    counts = engine.run()
    if return_stats:
        return counts, engine.stats
    return counts


#: Estimator name (as the hybrid, adaptive and service layers spell it)
#: to its engine class.
_ENGINES = {"zigzag": _ZigZag, "zigzag++": _ZigZagPP}


def _estimate_single(
    estimator: str,
    graph: BipartiteGraph,
    p: int,
    q: int,
    samples: int,
    seed,
    workers: "int | None" = None,
    trace: "Trace" = NULL_TRACE,
    obs: "MetricsRegistry | None" = None,
    pool: "GraphPool | None" = None,
) -> float:
    """One (p, q) estimate sampling only the level it needs (§4.2).

    The body of both ``*_count_single`` functions; the service executor
    calls it directly to hand the engine its metrics registry and the
    graph's resident ``pool`` (a :class:`GraphPool` already holding the
    degree-ordered graph), on which both passes then run.  With
    ``min(p, q) >= 2`` the star cells are never read, so they are not
    computed.
    """
    if min(p, q) < 1:
        raise ValueError("p and q must be positive")
    ordered = _prepare(graph)
    counts = BicliqueCounts(max(p, 2), max(q, 2))
    if min(p, q) == 1:
        with trace.span("stars"):
            star_counts(ordered, counts)
            return counts[p, q]
    engine_cls = _ENGINES[estimator]
    with trace.span("sampling", samples=samples):
        engine = engine_cls(
            ordered, max(p, q), samples, seed,
            levels=[min(p, q) - engine_cls.cell_offset], obs=obs,
            workers=workers, pool=pool,
        )
        return engine.run()[p, q]


def zigzag_count_single(
    graph: BipartiteGraph,
    p: int,
    q: int,
    samples: int = 100_000,
    seed: "int | None | np.random.Generator" = None,
    workers: "int | None" = None,
    trace: "Trace" = NULL_TRACE,
) -> float:
    """Estimate one (p, q) count with ZigZag, sampling only the needed level.

    Implements the paper's remark in §4.2: a single pair needs zigzags of
    one length only, ``h = min(p, q)`` (here ``h - 1`` in the local
    subgraphs).
    """
    return _estimate_single(
        "zigzag", graph, p, q, samples, seed, workers, trace
    )


def zigzagpp_count_single(
    graph: BipartiteGraph,
    p: int,
    q: int,
    samples: int = 100_000,
    seed: "int | None | np.random.Generator" = None,
    workers: "int | None" = None,
    trace: "Trace" = NULL_TRACE,
) -> float:
    """Estimate one (p, q) count with ZigZag++ (single sampled level)."""
    return _estimate_single(
        "zigzag++", graph, p, q, samples, seed, workers, trace
    )
