"""EPivoter: exact (p, q)-biclique counting for all pairs (Algorithms 2–3).

The algorithm roots one search at every edge ``e(u, v)`` of the
degree-ordered graph — the lexicographically smallest edge of every
biclique it is responsible for — and explores the edge-pivot enumeration
tree of Algorithm 2.  Each tree node carries six sets:

* ``C_l, C_r`` — candidates, every one adjacent to the whole opposite
  partial biclique;
* ``P_l, P_r`` — vertices of chosen *pivot edges*: any subset of them may
  be kept or dropped, each choice yielding a distinct biclique;
* ``H_l, H_r`` — *held* vertices every represented biclique must contain.

At a leaf (no edge between the candidate sides) the bicliques represented
by the node are counted in closed form with binomial coefficients, which
is how EPivoter counts without enumerating (Section 3.3).  The six cases
of Theorem 3.4 map onto: the pivot branch (cases 1–4), the non-neighbor
edge branches (case 6), and the one-sided candidate loops (case 5).

The tree is walked with an **explicit stack**, not Python recursion, so
the engine never mutates the interpreter recursion limit and arbitrarily deep
enumeration trees (large near-complete blocks) run within CPython's
default limits.  Because each root's subtree is independent and every
biclique is counted under exactly one root (Theorem 3.5), root edges can
also be fanned out over worker processes: pass ``workers=N`` to any entry
point and the partial results are merged exactly (integer cells stay
Python integers).

Two traversal engines expand the same tree (see ``mode`` on
:class:`EPivoter`):

* the **vertex-list walk** — the explicit-stack, node-at-a-time loop in
  :meth:`EPivoter._run_sets`, whose leaves carry vertex identities.  It
  serves per-vertex counts, the uniform sampler, the paper's ``"exact"``
  pivot rule, and small graphs; size-level visitors ride along through
  an adapter that reduces each leaf to set sizes;
* the **frontier** engine (:mod:`repro.core.frontier`) — a
  level-synchronous rewrite that expands whole batches of tree nodes
  with vectorised numpy kernels, bit-identical to the walk in counts,
  traversal counters, and budget behaviour, several times faster on
  real graphs.

Counts are exact Python integers in both engines.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.core.counts import BicliqueCounts
from repro.graph.bigraph import BipartiteGraph
from repro.graph.core_decomposition import core_for_biclique
from repro.graph.intersect import intersect_size, intersect_sorted
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACE
from repro.utils.combinatorics import binomial
from repro.utils.parallel import (
    CHUNKS_PER_WORKER,
    add_worker_warmup,
    chunk_root_edges,
    merge_counts,
    merge_local_counts,
    resolve_workers,
    run_chunked,
    split_worker_results,
    worker_cache,
    worker_graph,
    worker_warmup_seconds,
)

if TYPE_CHECKING:
    from repro.obs.progress import Heartbeat
    from repro.obs.trace import Trace

__all__ = [
    "EPivoter",
    "CountBudgetExceeded",
    "count_all",
    "count_single",
    "count_local",
]


class CountBudgetExceeded(RuntimeError):
    """Raised when an exact count exceeds its node or wall-clock budget.

    Mirrors :class:`repro.baselines.bclist.EnumerationBudgetExceeded`: the
    traversal is abandoned cleanly mid-run with no engine state to clean
    up (the engine holds no mutable counting state), so callers — the
    service planner's degradation path in particular — can catch this and
    fall back to an estimator.
    """


#: Wall-clock deadline checks happen every this many expanded nodes, so
#: an armed deadline costs one ``perf_counter`` per block, not per node.
_DEADLINE_CHECK_MASK = 255

# Size-prune bounds for a single traversal, as (max_p, max_q, min_p, min_q).
# A branch is cut when its held set already exceeds every requested p (or
# q), or when it can no longer reach the smallest requested p (or q).
# ``None`` disables pruning (all-pairs counting).  Bounds are passed per
# traversal — the engine itself holds no mutable counting state, so a
# failed or targeted call can never poison a later one.
Bounds = "tuple[int, int, int, int] | None"

#: ``mode="auto"`` picks the frontier engine only when the graph is big
#: enough for batching to amortise the numpy call overhead; below this
#: many edges the vertex-list walk wins outright.
_FRONTIER_AUTO_MIN_EDGES = 64


class EPivoter:
    """Reusable EPivoter engine bound to one degree-ordered graph.

    Parameters
    ----------
    graph:
        The input graph.  If it is not degree-ordered it is relabelled
        internally (results are invariant under relabelling).
    pivot:
        ``"product"`` (default) picks the pivot edge maximising
        ``d_{G'}(u) * d_{G'}(v)``, a cheap surrogate for the paper's exact
        ``|N(e, G')|``; ``"exact"`` computes the paper's criterion.
        Correctness does not depend on the choice, only tree size.
    mode:
        Which traversal engine expands the tree.  ``"frontier"`` forces
        the level-synchronous vectorised engine
        (:mod:`repro.core.frontier`; product pivot only), ``"scalar"``
        forces the node-at-a-time vertex-list walk, and ``"auto"``
        (default) picks the frontier engine for global counts on graphs
        with at least ``64`` edges and the walk otherwise.  Both engines
        expand the identical tree and produce bit-identical counts;
        local (per-vertex) counting always runs the walk, which needs
        vertex identities.

    All counting entry points accept ``workers``: ``None``/``1`` run
    serially in-process, ``N > 1`` fan the root edges out over ``N``
    worker processes (``0`` = one per CPU).  Parallel results equal the
    serial ones cell-for-cell.
    """

    def __init__(
        self, graph: BipartiteGraph, pivot: str = "product", mode: str = "auto"
    ):
        if pivot not in ("product", "exact"):
            raise ValueError("pivot must be 'product' or 'exact'")
        if mode not in ("auto", "frontier", "scalar"):
            raise ValueError("mode must be 'auto', 'frontier', or 'scalar'")
        if mode == "frontier" and pivot != "product":
            raise ValueError("frontier mode implements the 'product' pivot rule only")
        self.pivot = pivot
        self.mode = mode
        if graph.is_degree_ordered():
            self.graph = graph
        else:
            self.graph, _, _ = graph.degree_ordered()
        self._adj_left_cache: "list[set[int]] | None" = None
        self._adj_right_cache: "list[set[int]] | None" = None
        self._frontier_graph = None

    # Adjacency sets are the vertex-list walk's working representation;
    # built lazily so frontier-only engines skip the O(n + m) set build.
    @property
    def _adj_left(self) -> "list[set[int]]":
        if self._adj_left_cache is None:
            g = self.graph
            self._adj_left_cache = [
                set(g.neighbors_left(u)) for u in range(g.n_left)
            ]
        return self._adj_left_cache

    @property
    def _adj_right(self) -> "list[set[int]]":
        if self._adj_right_cache is None:
            g = self.graph
            self._adj_right_cache = [
                set(g.neighbors_right(v)) for v in range(g.n_right)
            ]
        return self._adj_right_cache

    def _use_frontier(self) -> bool:
        """Whether size-level traversals run the frontier engine."""
        if self.mode == "scalar" or self.pivot != "product":
            return False
        if self.mode == "frontier":
            return True
        return self.graph.num_edges >= _FRONTIER_AUTO_MIN_EDGES

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def count_all(
        self,
        max_p: "int | None" = None,
        max_q: "int | None" = None,
        left_region: "set[int] | None" = None,
        workers: "int | None" = None,
        obs: "MetricsRegistry | None" = None,
        heartbeat: "Heartbeat | None" = None,
        pool: "object | None" = None,
    ) -> BicliqueCounts:
        """Count (p, q)-bicliques for **all** pairs with ``p, q >= 1``.

        ``max_p`` / ``max_q`` cap the *stored* matrix (default: the sides'
        maximum possible biclique dimensions); the traversal itself is
        shared by all pairs, which is EPivoter's whole point.  Branches
        whose held sets already exceed the stored matrix are pruned: every
        leaf below them has fixed sizes at least the held sizes, so they
        cannot contribute to any stored cell.

        ``left_region`` restricts the roots to edges whose left endpoint
        lies in the region, i.e. counts only the bicliques whose minimal
        left vertex (degree ordering) is in the region — the attribution
        rule of the hybrid algorithm (Section 5).  Root-edge attribution
        is also what makes ``workers`` sound: each process owns a chunk of
        roots, and no biclique is counted under two roots.

        ``obs`` collects engine counters (nodes expanded, prune hits per
        bound, max stack depth) and — on parallel runs — per-worker stat
        dicts; ``heartbeat`` receives one tick per expanded node (serial
        runs only).
        """
        if max_p is None:
            max_p = max(self.graph.degrees_right(), default=1)
        if max_q is None:
            max_q = max(self.graph.degrees_left(), default=1)
        max_p = max(1, max_p)
        max_q = max(1, max_q)
        bounds = (max_p, max_q, 1, 1)
        track = obs is not None and obs.enabled

        n_workers = resolve_workers(workers)
        if pool is not None:
            n_workers = max(n_workers, getattr(pool, "max_workers", 1))
        if n_workers > 1:
            chunks = self._root_chunks(n_workers, left_region)
            if len(chunks) > 1:
                if track:
                    obs.gauge_max("parallel.workers", n_workers)
                    obs.gauge_max("parallel.chunks", len(chunks))
                payloads = [
                    (self.pivot, self.mode, max_p, max_q, chunk, track)
                    for chunk in chunks
                ]
                parts = run_chunked(
                    _count_all_chunk, payloads, n_workers, graph=self.graph,
                    obs=obs, pool=pool,
                )
                return merge_counts(split_worker_results(parts, obs))

        counts = BicliqueCounts(max_p, max_q)
        self._run(
            _matrix_visitor(counts, max_p, max_q),
            left_region=left_region,
            bounds=bounds,
            obs=obs,
            heartbeat=heartbeat,
        )
        return counts

    def count_single(
        self,
        p: int,
        q: int,
        use_core: bool = True,
        workers: "int | None" = None,
        obs: "MetricsRegistry | None" = None,
        heartbeat: "Heartbeat | None" = None,
        node_budget: "int | None" = None,
        time_budget: "float | None" = None,
        pool: "object | None" = None,
        trace: "Trace" = NULL_TRACE,
    ) -> int:
        """Count (p, q)-bicliques for one pair, with the §3.3 pruning.

        ``use_core`` first shrinks the graph to its (q, p)-core, which is
        sound because every (p, q)-biclique survives the reduction.

        ``node_budget`` caps the expanded search nodes and ``time_budget``
        the wall-clock seconds; exceeding either raises
        :class:`CountBudgetExceeded`.  On parallel runs each worker
        applies the budgets to its own chunk traversal (the first worker
        to trip re-raises in the coordinator), so a blown budget surfaces
        after at most one chunk's worth of overshoot.

        ``pool`` is a :class:`repro.utils.parallel.GraphPool` already
        holding *this engine's* graph: the service executor registers a
        resident graph once and reuses the pool per request, so the CSR
        buffers ship to the workers once per registration, not once per
        query.  ``pool`` implies the parallel path (and is incompatible
        with ``use_core``, which would traverse a different graph).
        """
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        if pool is not None and use_core:
            raise ValueError(
                "pool reuse requires use_core=False: the pool holds the "
                "engine's full graph, not the per-query core"
            )
        track = obs is not None and obs.enabled
        deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        engine = self
        if use_core:
            with trace.span("core_reduce") as sp:
                core, _, _ = core_for_biclique(self.graph, p, q)
                if track:
                    obs.gauge_max("epivoter.core_left", core.n_left)
                    obs.gauge_max("epivoter.core_right", core.n_right)
                    obs.gauge_max("epivoter.core_edges", core.num_edges)
                if trace.enabled:
                    sp.set("core_edges", core.num_edges)
                if core.num_edges == 0:
                    return 0
                engine = EPivoter(core, pivot=self.pivot, mode=self.mode)

        n_workers = resolve_workers(workers)
        if pool is not None:
            n_workers = max(n_workers, getattr(pool, "max_workers", 1))
        if n_workers > 1:
            chunks = engine._root_chunks(n_workers, None)
            if len(chunks) > 1:
                if track:
                    obs.gauge_max("parallel.workers", n_workers)
                    obs.gauge_max("parallel.chunks", len(chunks))
                payloads = [
                    (engine.pivot, engine.mode, p, q, chunk, track,
                     node_budget, time_budget)
                    for chunk in chunks
                ]
                with trace.span(
                    "traverse", workers=n_workers, chunks=len(chunks)
                ):
                    parts = run_chunked(
                        _count_single_chunk,
                        payloads,
                        n_workers,
                        graph=engine.graph,
                        obs=obs,
                        pool=pool,
                    )
                    return sum(split_worker_results(parts, obs))

        visit, box = _single_cell_visitor(p, q)
        with trace.span("traverse", workers=1):
            engine._run(
                visit,
                bounds=(p, q, p, q),
                obs=obs,
                heartbeat=heartbeat,
                node_budget=node_budget,
                deadline=deadline,
                trace=trace,
            )
        return box[0]

    def count_single_roots(
        self,
        p: int,
        q: int,
        roots: "list[tuple[int, int]]",
        workers: "int | None" = None,
        obs: "MetricsRegistry | None" = None,
        node_budget: "int | None" = None,
        time_budget: "float | None" = None,
        pool: "object | None" = None,
        trace: "Trace" = NULL_TRACE,
    ) -> int:
        """Count (p, q)-bicliques rooted at an explicit edge subset.

        The partial-count primitive behind cluster shards: every
        (p, q)-biclique is counted exactly once across any partition of
        the full edge set (the PR 1 root-edge fan-out argument), so
        summing ``count_single_roots`` over disjoint root ranges equals
        :meth:`count_single` on the whole graph, bit for bit.  No core
        reduction is applied — the roots are ids into *this* graph.
        """
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        if not roots:
            return 0
        track = obs is not None and obs.enabled
        deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        n_workers = resolve_workers(workers)
        if pool is not None:
            n_workers = max(n_workers, getattr(pool, "max_workers", 1))
        if n_workers > 1:
            chunks = chunk_root_edges(
                self.graph, roots, n_workers * CHUNKS_PER_WORKER
            )
            if len(chunks) > 1:
                if track:
                    obs.gauge_max("parallel.workers", n_workers)
                    obs.gauge_max("parallel.chunks", len(chunks))
                payloads = [
                    (self.pivot, self.mode, p, q, chunk, track,
                     node_budget, time_budget)
                    for chunk in chunks
                ]
                with trace.span(
                    "traverse", workers=n_workers, chunks=len(chunks),
                    roots=len(roots),
                ):
                    parts = run_chunked(
                        _count_single_chunk,
                        payloads,
                        n_workers,
                        graph=self.graph,
                        obs=obs,
                        pool=pool,
                    )
                    return sum(split_worker_results(parts, obs))

        visit, box = _single_cell_visitor(p, q)
        with trace.span("traverse", workers=1, roots=len(roots)):
            self._run(
                visit,
                bounds=(p, q, p, q),
                roots=roots,
                obs=obs,
                node_budget=node_budget,
                deadline=deadline,
                trace=trace,
            )
        return box[0]

    def count_local(
        self,
        p: int,
        q: int,
        workers: "int | None" = None,
        obs: "MetricsRegistry | None" = None,
        node_budget: "int | None" = None,
        time_budget: "float | None" = None,
    ) -> tuple[list[int], list[int]]:
        """Per-vertex (p, q)-biclique counts (Section 6).

        Returns ``(left_counts, right_counts)`` in the *engine's* (degree-
        ordered) labelling: ``left_counts[u]`` is the number of (p, q)-
        bicliques containing left vertex ``u``.
        """
        result = self.count_local_many(
            [(p, q)], workers=workers, obs=obs,
            node_budget=node_budget, time_budget=time_budget,
        )
        return result[(p, q)]

    def count_local_many(
        self,
        pairs: "list[tuple[int, int]]",
        workers: "int | None" = None,
        obs: "MetricsRegistry | None" = None,
        node_budget: "int | None" = None,
        time_budget: "float | None" = None,
    ) -> dict[tuple[int, int], tuple[list[int], list[int]]]:
        """Per-vertex counts for several (p, q) pairs in one traversal.

        The enumeration tree does not depend on (p, q), so a whole
        clustering-coefficient profile costs a single EPivoter pass.
        Size pruning is applied with the loosest bounds across the pairs.

        ``node_budget`` / ``time_budget`` bound the traversal exactly
        like :meth:`count_single`'s budgets do, so the service layer can
        bound local-count fan-outs too; exceeding either raises
        :class:`CountBudgetExceeded` (per chunk on parallel runs).
        """
        if not pairs:
            raise ValueError("pairs must be non-empty")
        if any(p < 1 or q < 1 for p, q in pairs):
            raise ValueError("p and q must be positive")
        track = obs is not None and obs.enabled
        deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )

        n_workers = resolve_workers(workers)
        if n_workers > 1:
            chunks = self._root_chunks(n_workers, None)
            if len(chunks) > 1:
                if track:
                    obs.gauge_max("parallel.workers", n_workers)
                    obs.gauge_max("parallel.chunks", len(chunks))
                payloads = [
                    (self.pivot, self.mode, tuple(pairs), chunk, track,
                     node_budget, time_budget)
                    for chunk in chunks
                ]
                parts = run_chunked(
                    _count_local_chunk,
                    payloads,
                    n_workers,
                    graph=self.graph,
                    obs=obs,
                )
                return merge_local_counts(split_worker_results(parts, obs))

        g = self.graph
        result = {
            pair: ([0] * g.n_left, [0] * g.n_right) for pair in pairs
        }
        self._run_sets(
            _local_leaf_visitor(result), bounds=_pairs_bounds(pairs), obs=obs,
            node_budget=node_budget, deadline=deadline,
        )
        return result

    # ------------------------------------------------------------------
    # Size-level traversal (global counting)
    # ------------------------------------------------------------------

    def _root_chunks(
        self, n_workers: int, left_region: "set[int] | None"
    ) -> list[list[tuple[int, int]]]:
        """Balanced root-edge chunks for ``n_workers`` processes."""
        g = self.graph
        roots = [
            (u, v)
            for u, v in g.edges()
            if left_region is None or u in left_region
        ]
        return chunk_root_edges(g, roots, n_workers * CHUNKS_PER_WORKER)

    def _run(
        self,
        visit: "Callable[[int, int, int, int, int], None]",
        left_region: "set[int] | None" = None,
        bounds: Bounds = None,
        roots: "list[tuple[int, int]] | None" = None,
        obs: "MetricsRegistry | None" = None,
        heartbeat: "Heartbeat | None" = None,
        node_budget: "int | None" = None,
        deadline: "float | None" = None,
        trace=None,
    ) -> None:
        """Dispatch one size-level traversal to the frontier engine or
        the vertex-list walk.

        ``visit(free_l, fixed_l, free_r, fixed_r, multiplier)`` adds
        ``multiplier * C(free_l, p - fixed_l) * C(free_r, q - fixed_r)``
        to every (p, q) cell, where ``free_*``/``fixed_*`` are set sizes.
        Both engines expand the *same* enumeration tree and describe the
        same multiset of leaves (frontier batches and deduplicates them),
        so counts are bit-identical either way.  ``trace`` is only
        consumed by the frontier engine (``frontier_expand`` spans); the
        walk has no per-level structure to time.
        """
        if self._use_frontier():
            from repro.core import frontier

            g = self.graph
            if roots is None:
                roots = g.edges()
            root_list = [
                (u, v)
                for u, v in roots
                if left_region is None or u in left_region
            ]
            if self._frontier_graph is None:
                self._frontier_graph = frontier.FrontierGraph(g)
            frontier.run_frontier(
                self._frontier_graph,
                root_list,
                visit,
                bounds=bounds,
                obs=obs,
                heartbeat=heartbeat,
                node_budget=node_budget,
                deadline=deadline,
                trace=trace,
            )
            return
        self._run_sets(
            _size_leaves(visit),
            left_region=left_region,
            bounds=bounds,
            roots=roots,
            obs=obs,
            heartbeat=heartbeat,
            node_budget=node_budget,
            deadline=deadline,
        )

    def _choose_pivot(
        self,
        edges: list[tuple[int, int]],
        deg_l: dict[int, int],
        deg_r: dict[int, int],
        cand_l: list[int],
        cand_r: list[int],
    ) -> tuple[int, int]:
        if self.pivot == "product":
            return max(edges, key=lambda e: (deg_l[e[0]] - 1) * (deg_r[e[1]] - 1))
        # Exact |N(e, G')|: pairs of (u', v') in G' with u' in N(v)\{u},
        # v' in N(u)\{v} and (u', v') an edge of G'.  Candidate lists are
        # sorted (children are filtered from sorted parents), so every
        # side is one galloping intersection between a CSR row and the
        # candidate list.
        g = self.graph
        best, best_score = edges[0], -1
        for u, v in edges:
            left_side = [x for x in intersect_sorted(g.row_right(v), cand_l) if x != u]
            right_side = [y for y in intersect_sorted(g.row_left(u), cand_r) if y != v]
            score = sum(intersect_size(g.row_left(x), right_side) for x in left_side)
            if score > best_score:
                best, best_score = (u, v), score
        return best

    # ------------------------------------------------------------------
    # The vertex-list walk (local counts, the sampler, small graphs)
    # ------------------------------------------------------------------

    def _run_sets(
        self,
        on_leaf,
        left_region: "set[int] | None" = None,
        bounds: Bounds = None,
        roots: "list[tuple[int, int]] | None" = None,
        obs: "MetricsRegistry | None" = None,
        heartbeat: "Heartbeat | None" = None,
        node_budget: "int | None" = None,
        deadline: "float | None" = None,
    ) -> None:
        """Walk the tree over ``roots``; leaves receive vertex lists.

        ``on_leaf(free_l, fixed_l, free_r, fixed_r, extra_pool, extra_min)``
        describes the bicliques ``(X ∪ fixed_l, Y ∪ fixed_r ∪ S)`` with
        ``X ⊆ free_l``, ``Y ⊆ free_r``, ``S ⊆ extra_pool``,
        ``|S| >= extra_min``.  Size-level visitors ride along through
        :func:`_size_leaves`.

        ``roots`` defaults to every edge of the graph; the parallel layer
        passes per-chunk subsets, and ``left_region`` keeps only roots
        whose left endpoint lies in it.  The walk is an explicit-stack
        DFS — no Python recursion, so depth is bounded only by memory.
        Leaf order differs from the recursive formulation, which is
        immaterial: every visitor accumulates by commutative
        (exact-integer) addition.

        With ``obs`` enabled the traversal accumulates its counters in
        locals and flushes them once at the end, so instrumentation adds
        one branch per node when on and nothing but the default-argument
        check when off.  ``heartbeat.tick()`` fires per expanded node.

        ``node_budget`` / ``deadline`` (an absolute ``time.monotonic()``
        timestamp) abandon the walk with :class:`CountBudgetExceeded`.
        The deadline is polled every ``_DEADLINE_CHECK_MASK + 1`` nodes
        so an armed budget costs one integer compare per node, not a
        clock read.
        """
        g = self.graph
        adj_left = self._adj_left
        adj_right = self._adj_right
        if bounds is None:
            max_p = max_q = None
            min_p = min_q = 1
        else:
            max_p, max_q, min_p, min_q = bounds
        if roots is None:
            roots = g.edges()
        track = obs is not None and obs.enabled
        budgeted = node_budget is not None or deadline is not None
        budget_nodes = 0
        n_roots = nodes = leaves = 0
        pivot_branches = edge_branches = 0
        prune_size = prune_reach_l = prune_reach_r = 0
        max_depth = 0
        stack: list[
            tuple[list[int], list[int], list[int], list[int], list[int], list[int]]
        ] = []
        push = stack.append
        if deadline is not None and time.monotonic() >= deadline:
            raise CountBudgetExceeded(
                "deadline expired before the traversal started"
            )
        for root_u, root_v in roots:
            if left_region is not None and root_u not in left_region:
                continue
            n_roots += 1
            push(
                (
                    list(g.higher_neighbors_of_right(root_v, root_u)),
                    list(g.higher_neighbors_of_left(root_u, root_v)),
                    [], [root_u], [], [root_v],
                )
            )
            while stack:
                if track:
                    nodes += 1
                    if len(stack) > max_depth:
                        max_depth = len(stack)
                if budgeted:
                    budget_nodes += 1
                    if node_budget is not None and budget_nodes > node_budget:
                        raise CountBudgetExceeded(
                            f"node budget of {node_budget} exhausted"
                        )
                    if (
                        deadline is not None
                        and (budget_nodes & _DEADLINE_CHECK_MASK) == 0
                        and time.monotonic() >= deadline
                    ):
                        raise CountBudgetExceeded(
                            f"deadline hit after {budget_nodes} nodes"
                        )
                if heartbeat is not None:
                    heartbeat.tick()
                cand_l, cand_r, p_l, h_l, p_r, h_r = stack.pop()  # scalar-pop-ok: vertex-list walk
                if max_p is not None:
                    if len(h_l) > max_p or len(h_r) > max_q:
                        prune_size += 1
                        continue
                    if len(p_l) + len(h_l) + len(cand_l) < min_p:
                        prune_reach_l += 1
                        continue
                    if len(p_r) + len(h_r) + len(cand_r) < min_q:
                        prune_reach_r += 1
                        continue
                cand_r_set = set(cand_r)
                # Edges of the candidate-induced subgraph G', plus
                # per-vertex degrees within G'.
                edges: list[tuple[int, int]] = []
                deg_l: dict[int, int] = {}
                deg_r: dict[int, int] = {}
                for x in cand_l:
                    # Sorted so edge order (and hence pivot tie-breaks
                    # and stack order) is deterministic and matches the
                    # frontier engine's (x-position, y-value) order.
                    hits = sorted(adj_left[x] & cand_r_set)
                    if hits:
                        deg_l[x] = len(hits)
                        for y in hits:
                            deg_r[y] = deg_r.get(y, 0) + 1
                            edges.append((x, y))
                if not edges:
                    leaves += 1
                    if cand_l and cand_r:
                        # No edges across: a biclique takes free left
                        # candidates or >= 1 right candidates, not both.
                        on_leaf(p_l + cand_l, h_l, p_r, h_r, [], 0)
                        on_leaf(p_l, h_l, p_r, h_r, cand_r, 1)
                    else:
                        on_leaf(p_l + cand_l, h_l, p_r + cand_r, h_r, [], 0)
                    continue

                pivot_u, pivot_v = self._choose_pivot(
                    edges, deg_l, deg_r, cand_l, cand_r
                )
                nbr_v = adj_right[pivot_v]
                nbr_u = adj_left[pivot_u]

                # Local reordering: non-neighbors of the pivot first on
                # each side.
                far_l = [x for x in cand_l if x not in nbr_v]
                far_r = [y for y in cand_r if y not in nbr_u]
                new_l = far_l + [x for x in cand_l if x in nbr_v]
                new_r = far_r + [y for y in cand_r if y in nbr_u]
                pos_l = {x: i for i, x in enumerate(new_l)}
                pos_r = {y: i for i, y in enumerate(new_r)}

                # Case 6: branch on every candidate edge not fully inside
                # the pivot's neighborhood.
                for x, y in edges:
                    if x in nbr_v and y in nbr_u:
                        continue
                    adj_y = adj_right[y]
                    adj_x = adj_left[x]
                    px, py = pos_l[x], pos_r[y]
                    # Filter the *sorted* parent lists (same subset as
                    # filtering new_l/new_r — pos carries the local
                    # order), so candidate lists stay sorted at every
                    # node and the exact pivot can use the CSR kernel.
                    sub_l = [c for c in cand_l if pos_l[c] > px and c in adj_y]
                    sub_r = [c for c in cand_r if pos_r[c] > py and c in adj_x]
                    edge_branches += 1
                    push((sub_l, sub_r, p_l, h_l + [x], p_r, h_r + [y]))

                # Cases 1-4: the pivot branch; pivot endpoints become free.
                sub_l = [c for c in cand_l if c in nbr_v and c != pivot_u]
                sub_r = [c for c in cand_r if c in nbr_u and c != pivot_v]
                pivot_branches += 1
                push((sub_l, sub_r, p_l + [pivot_u], h_l, p_r + [pivot_v], h_r))

                # Case 5: bicliques using candidates of one side only,
                # holding at least one non-neighbor of the pivot; the
                # k-th non-neighbor is held with only the candidates
                # after it free, which keeps the representation unique.
                for k, w in enumerate(far_l, 1):
                    on_leaf(p_l + new_l[k:], h_l + [w], p_r, h_r, [], 0)
                for k, w in enumerate(far_r, 1):
                    on_leaf(p_l, h_l, p_r + new_r[k:], h_r + [w], [], 0)
        if track:
            _flush_traversal_stats(
                obs,
                n_roots,
                nodes,
                leaves,
                pivot_branches,
                edge_branches,
                prune_size,
                prune_reach_l,
                prune_reach_r,
                max_depth,
            )


# ----------------------------------------------------------------------
# Shared leaf visitors and per-chunk workers (module-level: the workers
# must be picklable for ProcessPoolExecutor).
# ----------------------------------------------------------------------


def _flush_traversal_stats(
    obs: MetricsRegistry,
    roots: int,
    nodes: int,
    leaves: int,
    pivot_branches: int,
    edge_branches: int,
    prune_size: int,
    prune_reach_l: int,
    prune_reach_r: int,
    max_depth: int,
) -> None:
    """Fold one traversal's local tallies into the registry."""
    obs.incr("epivoter.roots", roots)
    obs.incr("epivoter.nodes_expanded", nodes)
    obs.incr("epivoter.leaves", leaves)
    obs.incr("epivoter.pivot_branches", pivot_branches)
    obs.incr("epivoter.edge_branches", edge_branches)
    obs.incr("epivoter.prune_hits", prune_size + prune_reach_l + prune_reach_r)
    obs.incr("epivoter.prune.size_bound", prune_size)
    obs.incr("epivoter.prune.reach_left", prune_reach_l)
    obs.incr("epivoter.prune.reach_right", prune_reach_r)
    obs.gauge_max("epivoter.max_stack_depth", max_depth)


def _worker_stats(obs: MetricsRegistry, roots: int, wall_time: float) -> dict:
    """One worker's stat dict, shipped back with its partial result.

    ``nodes_expanded``/``prune_hits`` are surfaced at the top level for
    skew inspection; the full counter/gauge snapshots ride along so the
    coordinator's merged totals match a serial run.  ``warmup_seconds``
    is the one-off cost of attaching the pool's shared graph and building
    the engine — amortised across every chunk the worker handles.
    """
    return {
        "roots": roots,
        "wall_time": wall_time,
        "warmup_seconds": worker_warmup_seconds(),
        "nodes_expanded": obs.counters.get("epivoter.nodes_expanded", 0),
        "prune_hits": obs.counters.get("epivoter.prune_hits", 0),
        "counters": dict(obs.counters),
        "gauges": dict(obs.gauges),
    }


def _chunk_engine(pivot: str, mode: str = "auto") -> EPivoter:
    """This worker's engine over the pool's shared graph, built once.

    The pool ships the graph a single time (see
    :mod:`repro.utils.parallel`); the engine built from it is memoised in
    the worker cache so later chunks reuse its adjacency sets instead of
    rebuilding them per chunk.  The shipped graph is already
    degree-ordered, so construction never relabels.
    """
    cache = worker_cache()
    key = ("epivoter", pivot, mode)
    engine = cache.get(key)
    if engine is None:
        start = time.perf_counter()
        engine = EPivoter(worker_graph(), pivot=pivot, mode=mode)
        add_worker_warmup(time.perf_counter() - start)
        cache[key] = engine
    return engine


def _matrix_visitor(counts: BicliqueCounts, max_p: int, max_q: int):
    """A size-level visitor accumulating into a count matrix.

    The contribution of one leaf factors into a left vector over rows
    and a right vector over columns; both depend only on
    ``(free, fixed)``, which repeats heavily across leaves, so the
    vectors are memoised.  Rows/columns in a factor list are in range
    by construction, letting the inner loop hit the cell lists
    directly instead of going through the bound-checked ``add``.
    """
    cells = counts._cells
    left_factors: dict = {}
    right_factors: dict = {}

    def _factor(free: int, fixed: int, bound: int) -> list:
        return [
            (fixed + k, binomial(free, k))
            for k in range(max(0, 1 - fixed), min(free, bound - fixed) + 1)
        ]

    def visit(free_l: int, fixed_l: int, free_r: int, fixed_r: int, multiplier: int) -> None:
        lkey = (free_l, fixed_l)
        lf = left_factors.get(lkey)
        if lf is None:
            lf = left_factors[lkey] = _factor(free_l, fixed_l, max_p)
        rkey = (free_r, fixed_r)
        rf = right_factors.get(rkey)
        if rf is None:
            rf = right_factors[rkey] = _factor(free_r, fixed_r, max_q)
        for row, left_ways in lf:
            weighted = left_ways * multiplier
            cell_row = cells[row]
            for col, right_ways in rf:
                cell_row[col] += weighted * right_ways

    def _run_factor(lo: int, hi: int, fixed: int, bound: int) -> list:
        # sum_{free=lo..hi} C(free, k), closed form (hockey stick).
        return [
            (fixed + k, binomial(hi + 1, k + 1) - binomial(lo, k + 1))
            for k in range(max(0, 1 - fixed), bound - fixed + 1)
        ]

    def left_run(lo: int, hi: int, fixed_l: int, free_r: int, fixed_r: int, multiplier: int) -> None:
        """One call per case-5 run: free_l sweeps ``lo..hi``."""
        rkey = (free_r, fixed_r)
        rf = right_factors.get(rkey)
        if rf is None:
            rf = right_factors[rkey] = _factor(free_r, fixed_r, max_q)
        for row, left_ways in _run_factor(lo, hi, fixed_l, max_p):
            weighted = left_ways * multiplier
            cell_row = cells[row]
            for col, right_ways in rf:
                cell_row[col] += weighted * right_ways

    def right_run(free_l: int, fixed_l: int, lo: int, hi: int, fixed_r: int, multiplier: int) -> None:
        lkey = (free_l, fixed_l)
        lf = left_factors.get(lkey)
        if lf is None:
            lf = left_factors[lkey] = _factor(free_l, fixed_l, max_p)
        for col, right_ways in _run_factor(lo, hi, fixed_r, max_q):
            weighted = right_ways * multiplier
            for row, left_ways in lf:
                cells[row][col] += weighted * left_ways

    visit.left_run = left_run
    visit.right_run = right_run
    return visit


def _single_cell_visitor(p: int, q: int):
    """A size-level visitor summing one (p, q) cell.

    Returns ``(visit, box)`` where ``box[0]`` holds the running total.
    The ``left_run``/``right_run`` hooks collapse a case-5/6 run of
    leaves via the hockey-stick identity
    ``sum_{f=lo..hi} C(f, a) = C(hi+1, a+1) - C(lo, a+1)``.
    """
    box = [0]

    def visit(free_l: int, fixed_l: int, free_r: int, fixed_r: int, multiplier: int) -> None:
        box[0] += (
            multiplier
            * binomial(free_l, p - fixed_l)
            * binomial(free_r, q - fixed_r)
        )

    def left_run(lo: int, hi: int, fixed_l: int, free_r: int, fixed_r: int, multiplier: int) -> None:
        a = p - fixed_l
        if a < 0:
            return
        box[0] += (
            multiplier
            * (binomial(hi + 1, a + 1) - binomial(lo, a + 1))
            * binomial(free_r, q - fixed_r)
        )

    def right_run(free_l: int, fixed_l: int, lo: int, hi: int, fixed_r: int, multiplier: int) -> None:
        b = q - fixed_r
        if b < 0:
            return
        box[0] += (
            multiplier
            * binomial(free_l, p - fixed_l)
            * (binomial(hi + 1, b + 1) - binomial(lo, b + 1))
        )

    visit.left_run = left_run
    visit.right_run = right_run
    return visit, box


def _size_leaves(visit):
    """Adapt a size-level ``visit`` to the vertex-list walk's leaves.

    A leaf with a right ``extra_pool`` of ``n`` vertices, at least
    ``extra_min`` of them taken, becomes one ``visit`` per subset size
    ``i``: the ``i`` taken vertices are held, with multiplier
    ``C(n, i)``.
    """

    def on_leaf(free_l, fixed_l, free_r, fixed_r, extra_pool, extra_min):
        n_extra = len(extra_pool)
        if not n_extra:
            visit(len(free_l), len(fixed_l), len(free_r), len(fixed_r), 1)
            return
        nf_l, nx_l, nf_r, nx_r = len(free_l), len(fixed_l), len(free_r), len(fixed_r)
        for i in range(extra_min, n_extra + 1):
            visit(nf_l, nx_l, nf_r, nx_r + i, binomial(n_extra, i))

    return on_leaf


def _local_leaf_visitor(
    result: dict[tuple[int, int], tuple[list[int], list[int]]],
):
    """A set-level visitor accumulating per-vertex counts for many pairs."""

    def on_leaf(free_l, fixed_l, free_r, fixed_r, extra_pool, extra_min):
        nf_l, nx_l = len(free_l), len(fixed_l)
        nf_r, nx_r = len(free_r), len(fixed_r)
        n_extra = len(extra_pool)
        for (p, q), (left_counts, right_counts) in result.items():
            a = p - nx_l
            if a < 0 or a > nf_l:
                continue
            for i in range(extra_min, n_extra + 1):
                b = q - nx_r - i
                if b < 0 or b > nf_r:
                    continue
                ways_l = binomial(nf_l, a)
                ways_r = binomial(nf_r, b)
                ways_e = binomial(n_extra, i)
                total_here = ways_l * ways_r * ways_e
                if not total_here:
                    continue
                # Fixed vertices are in every biclique of this leaf.
                for u in fixed_l:
                    left_counts[u] += total_here
                for v in fixed_r:
                    right_counts[v] += total_here
                # A free left vertex appears in C(nf_l - 1, a - 1) of
                # the C(nf_l, a) subset choices.
                per_free_l = binomial(nf_l - 1, a - 1) * ways_r * ways_e
                if per_free_l:
                    for u in free_l:
                        left_counts[u] += per_free_l
                per_free_r = ways_l * binomial(nf_r - 1, b - 1) * ways_e
                if per_free_r:
                    for v in free_r:
                        right_counts[v] += per_free_r
                per_extra = ways_l * ways_r * binomial(n_extra - 1, i - 1)
                if per_extra:
                    for v in extra_pool:
                        right_counts[v] += per_extra

    return on_leaf


def _pairs_bounds(pairs: "list[tuple[int, int]]") -> "tuple[int, int, int, int]":
    """Loosest size-prune bounds covering every requested pair."""
    return (
        max(p for p, _ in pairs),
        max(q for _, q in pairs),
        min(p for p, _ in pairs),
        min(q for _, q in pairs),
    )


def _count_all_chunk(payload) -> "tuple[BicliqueCounts, dict | None]":
    """Worker: all-pairs counts over one chunk of root edges."""
    pivot, mode, max_p, max_q, roots, collect = payload
    engine = _chunk_engine(pivot, mode)
    counts = BicliqueCounts(max_p, max_q)
    obs = MetricsRegistry() if collect else None
    start = time.perf_counter()
    engine._run(
        _matrix_visitor(counts, max_p, max_q),
        roots=roots,
        bounds=(max_p, max_q, 1, 1),
        obs=obs,
    )
    stats = (
        _worker_stats(obs, len(roots), time.perf_counter() - start)
        if collect
        else None
    )
    return counts, stats


def _count_single_chunk(payload) -> "tuple[int, dict | None]":
    """Worker: a single (p, q) count over one chunk of root edges.

    The optional trailing budget fields arm per-chunk limits; a budget
    trip raises :class:`CountBudgetExceeded`, which the executor
    re-raises in the coordinator.
    """
    pivot, mode, p, q, roots, collect = payload[:6]
    node_budget = payload[6] if len(payload) > 6 else None
    time_budget = payload[7] if len(payload) > 7 else None
    engine = _chunk_engine(pivot, mode)
    visit, box = _single_cell_visitor(p, q)
    obs = MetricsRegistry() if collect else None
    start = time.perf_counter()
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    engine._run(
        visit, bounds=(p, q, p, q), roots=roots, obs=obs,
        node_budget=node_budget, deadline=deadline,
    )
    stats = (
        _worker_stats(obs, len(roots), time.perf_counter() - start)
        if collect
        else None
    )
    return box[0], stats


def _count_local_chunk(payload):
    """Worker: per-vertex counts for many pairs over one root chunk.

    Optional trailing budget fields arm per-chunk limits, mirroring
    :func:`_count_single_chunk`.
    """
    pivot, mode, pairs, roots, collect = payload[:5]
    node_budget = payload[5] if len(payload) > 5 else None
    time_budget = payload[6] if len(payload) > 6 else None
    engine = _chunk_engine(pivot, mode)
    g = engine.graph
    result = {
        pair: ([0] * g.n_left, [0] * g.n_right) for pair in pairs
    }
    obs = MetricsRegistry() if collect else None
    start = time.perf_counter()
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    engine._run_sets(
        _local_leaf_visitor(result),
        bounds=_pairs_bounds(list(pairs)),
        roots=roots,
        obs=obs,
        node_budget=node_budget,
        deadline=deadline,
    )
    stats = (
        _worker_stats(obs, len(roots), time.perf_counter() - start)
        if collect
        else None
    )
    return result, stats


# ----------------------------------------------------------------------
# Module-level convenience wrappers
# ----------------------------------------------------------------------


def count_all(
    graph: BipartiteGraph,
    max_p: "int | None" = None,
    max_q: "int | None" = None,
    pivot: str = "product",
    workers: "int | None" = None,
    obs: "MetricsRegistry | None" = None,
    mode: str = "auto",
) -> BicliqueCounts:
    """Count all (p, q)-bicliques of ``graph`` (convenience wrapper)."""
    return EPivoter(graph, pivot=pivot, mode=mode).count_all(
        max_p, max_q, workers=workers, obs=obs
    )


def count_single(
    graph: BipartiteGraph,
    p: int,
    q: int,
    pivot: str = "product",
    use_core: bool = True,
    workers: "int | None" = None,
    obs: "MetricsRegistry | None" = None,
    mode: str = "auto",
) -> int:
    """Count the (p, q)-bicliques of ``graph`` for one pair."""
    return EPivoter(graph, pivot=pivot, mode=mode).count_single(
        p, q, use_core=use_core, workers=workers, obs=obs
    )


def count_local(
    graph: BipartiteGraph,
    p: int,
    q: int,
    pivot: str = "product",
    workers: "int | None" = None,
    obs: "MetricsRegistry | None" = None,
    mode: str = "auto",
) -> tuple[list[int], list[int]]:
    """Per-vertex (p, q)-biclique counts in the *original* labelling."""
    ordered, left_map, right_map = graph.degree_ordered()
    engine = EPivoter(ordered, pivot=pivot, mode=mode)
    left_ordered, right_ordered = engine.count_local(p, q, workers=workers, obs=obs)
    left_counts = [0] * graph.n_left
    right_counts = [0] * graph.n_right
    for old, new in enumerate(left_map):
        left_counts[old] = left_ordered[new]
    for old, new in enumerate(right_map):
        right_counts[old] = right_ordered[new]
    return left_counts, right_counts
