"""Level-synchronous (frontier-batched) EPivoter traversal.

The vertex-list walk in :mod:`repro.core.epivoter` pops one enumeration-
tree node per loop iteration, so CPython interpreter overhead dominates
its runtime.  This module restructures the same traversal GPU-style
(after the level-synchronous formulation of "Accelerating Biclique
Counting on GPU"): a whole *frontier* of tree nodes is materialised per
step, their candidate sets live in one contiguous int64 arena per side
(``offsets`` + implicit lengths), and every per-node operation — size
pruning, the candidate-subgraph edge construction, pivot selection,
child construction — becomes a vectorised reduction across the batch.
The candidate-subgraph edges for the *entire* frontier come from a
single :func:`repro.graph.intersect.intersect_arena_many` call per
level.

Bit-identity contract
---------------------
The frontier engine expands the *same* enumeration tree as the scalar
engine, node for node:

* children are constructed from the same six-case analysis, with
  candidate lists in the same sorted order;
* the pivot is the first edge (in ``(x, y)`` candidate-local order)
  maximising ``(d(x) - 1) * (d(y) - 1)``, matching the scalar
  ``max(edges, key=...)`` tie-break over its sorted edge stream;
* prune tests run in the scalar order (size bound, left reach, right
  reach), so every prune counter matches.

Counts stay exact: leaf and case-5 contributions are *recorded* as
small integer tuples, deduplicated with ``np.unique`` per batch, and
only evaluated at the end with Python-integer binomials — numpy never
computes a count, so there is no int64 overflow and ``BicliqueCounts``
cells are bit-identical to the walk's.

Budget semantics match the walk exactly: both raise
:class:`~repro.core.epivoter.CountBudgetExceeded` if and only if the
tree has more than ``node_budget`` nodes (every node enters exactly one
batch, and the running node total is checked before each batch
expands); deadlines are polled per batch plus once before the walk.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.intersect import (
    as_int64,
    exclusive_cumsum,
    gather_slices,
    intersect_arena_many,
)
from repro.utils.combinatorics import binomial

if TYPE_CHECKING:
    from repro.graph.bigraph import BipartiteGraph
    from repro.obs.progress import Heartbeat
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Trace

__all__ = [
    "DEFAULT_BATCH_CAP",
    "FrontierGraph",
    "run_frontier",
]

#: Child batches are split so no single expansion exceeds this many
#: nodes — bounds the arena working set regardless of tree width.
DEFAULT_BATCH_CAP = 8192

#: Batches smaller than this are merged with pending ones before
#: expanding, so deep skinny subtrees do not degenerate into per-node
#: numpy calls.
_MIN_BATCH = 256

#: Individual ``frontier_expand`` spans are emitted for this many
#: batches; the rest fold into one aggregated tail span so a deep
#: traversal cannot blow up the trace document.
_TRACE_SPAN_CAP = 32


class FrontierGraph:
    """Numpy CSR views (plus cached keyed rows) for one ordered graph.

    ``stride`` exceeds every vertex id on either side, so
    ``row_id * stride + value`` keys are strictly increasing along the
    concatenation of per-row sorted runs — the property every batched
    ``searchsorted`` membership test in this module relies on.
    """

    __slots__ = (
        "indptr_l",
        "indices_l",
        "indptr_r",
        "indices_r",
        "stride",
        "_keyed_l",
        "_keyed_r",
    )

    def __init__(self, graph: "BipartiteGraph"):
        indptr_l, indices_l, indptr_r, indices_r = graph.csr_buffers()
        self.indptr_l = as_int64(indptr_l)
        self.indices_l = as_int64(indices_l)
        self.indptr_r = as_int64(indptr_r)
        self.indices_r = as_int64(indices_r)
        self.stride = max(graph.n_left, graph.n_right, 1) + 1
        self._keyed_l = None
        self._keyed_r = None

    def keyed_left(self):
        """``left_row * stride + indices_l`` — globally monotone keys."""
        if self._keyed_l is None:
            self._keyed_l = (
                np.repeat(
                    np.arange(self.indptr_l.size - 1, dtype=np.int64) * self.stride,
                    np.diff(self.indptr_l),
                )
                + self.indices_l
            )
        return self._keyed_l

    def keyed_right(self):
        """``right_row * stride + indices_r`` — globally monotone keys."""
        if self._keyed_r is None:
            self._keyed_r = (
                np.repeat(
                    np.arange(self.indptr_r.size - 1, dtype=np.int64) * self.stride,
                    np.diff(self.indptr_r),
                )
                + self.indices_r
            )
        return self._keyed_r


class _Batch:
    """One frontier batch: n tree nodes with arena-packed candidate sets.

    ``al[aloff[i]:aloff[i+1]]`` is node i's sorted left candidate set
    (``ar``/``aroff`` mirrored on the right); ``pl/hl/pr/hr`` are the
    pivot-set and held-set *sizes* of Algorithm 2's six node sets, and
    ``level`` the node's depth in the enumeration tree (roots are 1).
    """

    __slots__ = ("al", "aloff", "ar", "aroff", "pl", "hl", "pr", "hr", "level")

    def __init__(self, al, aloff, ar, aroff, pl, hl, pr, hr, level):
        self.al = al
        self.aloff = aloff
        self.ar = ar
        self.aroff = aroff
        self.pl = pl
        self.hl = hl
        self.pr = pr
        self.hr = hr
        self.level = level

    @property
    def size(self) -> int:
        return self.pl.size

    @property
    def arena_bytes(self) -> int:
        return int(
            self.al.nbytes
            + self.ar.nbytes
            + self.aloff.nbytes
            + self.aroff.nbytes
            + 5 * self.pl.nbytes
        )


def _merge(a: _Batch, b: _Batch) -> _Batch:
    """Concatenate two batches (offsets rebased; levels may differ)."""
    return _Batch(
        np.concatenate([a.al, b.al]),
        np.concatenate([a.aloff, b.aloff[1:] + a.aloff[-1]]),
        np.concatenate([a.ar, b.ar]),
        np.concatenate([a.aroff, b.aroff[1:] + a.aroff[-1]]),
        np.concatenate([a.pl, b.pl]),
        np.concatenate([a.hl, b.hl]),
        np.concatenate([a.pr, b.pr]),
        np.concatenate([a.hr, b.hr]),
        np.concatenate([a.level, b.level]),
    )


def _split(batch: _Batch, cap: int) -> list[_Batch]:
    """Slice a batch into <= cap-node pieces (arena slices stay views)."""
    n = batch.size
    if n <= cap:
        return [batch]
    out = []
    for start in range(0, n, cap):
        stop = min(start + cap, n)
        out.append(
            _Batch(
                batch.al[batch.aloff[start] : batch.aloff[stop]],
                batch.aloff[start : stop + 1] - batch.aloff[start],
                batch.ar[batch.aroff[start] : batch.aroff[stop]],
                batch.aroff[start : stop + 1] - batch.aroff[start],
                batch.pl[start:stop],
                batch.hl[start:stop],
                batch.pr[start:stop],
                batch.hr[start:stop],
                batch.level[start:stop],
            )
        )
    return out


class _Tally:
    """Per-traversal counters, folded into obs once at the end."""

    __slots__ = (
        "roots",
        "leaves",
        "pivot_branches",
        "edge_branches",
        "prune_size",
        "prune_reach_l",
        "prune_reach_r",
        "max_depth",
    )

    def __init__(self):
        self.roots = 0
        self.leaves = 0
        self.pivot_branches = 0
        self.edge_branches = 0
        self.prune_size = 0
        self.prune_reach_l = 0
        self.prune_reach_r = 0
        self.max_depth = 0


class _RecordSink:
    """Exact-integer leaf bookkeeping, deduplicated before evaluation.

    Leaf and case-5 contributions are pure functions of a handful of
    small integers, and real traversals hit the same signatures over and
    over.  Batches append their raw record rows; :meth:`replay` runs one
    ``np.unique`` per kind over the whole traversal's rows and evaluates
    every *unique* record once with Python-integer binomials (exactness,
    no int64 overflow), handing the occurrence count to the visitor as
    the multiplier.  Deferring the dedup to the end replaces hundreds of
    per-batch sorts with four.

    Kinds (all components Python ints after ``tolist``):

    * ``S``  ``(free_l, fixed_l, free_r, fixed_r)`` — a one-sided or
      empty leaf: one visit.
    * ``R``  ``(pl, hl, pr, hr, n_l, n_r)`` — a leaf with candidates on
      both sides (no edges across): the scalar leaf expansion.
    * ``CL`` ``(pl, hl, pr, hr, n_l, t_l)`` — a case-5 left loop over
      ``t_l`` pivot non-neighbors out of ``n_l`` left candidates.
    * ``CR`` — mirrored on the right.
    """

    __slots__ = ("_raw",)

    def __init__(self):
        self._raw = {kind: [] for kind in ("S", "R", "CL", "CR")}

    def add(self, kind: str, rows) -> None:
        if rows.shape[0]:
            self._raw[kind].append(rows)

    def _folded(self, kind: str):
        """``(row_tuple_list, count_list)`` over every row added so far."""
        chunks = self._raw[kind]
        if not chunks:
            return (), ()
        rows = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        # Pack each row into one int64 with mixed radix when the column
        # ranges allow (they essentially always do): a 1-D unique sorts
        # machine words, an order of magnitude faster than the void-view
        # sort behind unique(axis=0).
        maxes = rows.max(axis=0).astype(np.int64) + 1
        span = 1
        for m in maxes.tolist():
            span *= m
        if span < (1 << 62):
            key = rows[:, 0].astype(np.int64, copy=True)
            for j in range(1, rows.shape[1]):
                key *= maxes[j]
                key += rows[:, j]
            uniq, counts = np.unique(key, return_counts=True)
            cols = []
            for j in range(rows.shape[1] - 1, 0, -1):
                uniq, col = np.divmod(uniq, maxes[j])
                cols.append(col)
            cols.append(uniq)
            packed = np.stack(cols[::-1], axis=1)
            return packed.tolist(), counts.tolist()
        uniq, counts = np.unique(rows, axis=0, return_counts=True)
        return uniq.tolist(), counts.tolist()

    def replay(self, visit, bounds=None) -> None:
        """Evaluate every unique record through the size-level visitor.

        ``bounds`` (the traversal's ``(max_p, max_q, min_p, min_q)``)
        lets the R-expansion stop at ``i = max_q - hr``: the visitor
        contract makes contributions with ``fixed_r > max_q`` vanish
        (``C(free_r, q - fixed_r)`` with ``q <= max_q``), so the
        remaining iterations are exact zeros.

        The case-5 loops run over a consecutive range of *free* sizes
        with everything else fixed.  When the visitor exposes
        ``left_run`` / ``right_run`` hooks
        (``(free_lo, free_hi, ...)`` — see :func:`_matrix_visitor`),
        each record collapses to one call via the hockey-stick identity
        ``sum_{f=lo..hi} C(f, a) = C(hi+1, a+1) - C(lo, a+1)``;
        otherwise the generic per-k loop runs.
        """
        cap_q = None if bounds is None else bounds[1]
        left_run = getattr(visit, "left_run", None)
        right_run = getattr(visit, "right_run", None)
        rows, counts = self._folded("S")
        for (free_l, fixed_l, free_r, fixed_r), c in zip(rows, counts):
            visit(free_l, fixed_l, free_r, fixed_r, c)
        rows, counts = self._folded("R")
        for (pl, hl, pr, hr, n_l, n_r), c in zip(rows, counts):
            # Bicliques using no right candidate: left candidates free.
            visit(pl + n_l, hl, pr, hr, c)
            # i >= 1 right candidates exclude every left candidate.
            top = n_r if cap_q is None else min(n_r, cap_q - hr)
            for i in range(1, top + 1):
                visit(pl, hl, pr, hr + i, c * binomial(n_r, i))
        rows, counts = self._folded("CL")
        for (pl, hl, pr, hr, n_l, t_l), c in zip(rows, counts):
            if left_run is not None:
                left_run(pl + n_l - t_l, pl + n_l - 1, hl + 1, pr, hr, c)
                continue
            for k in range(1, t_l + 1):
                visit(pl + n_l - k, hl + 1, pr, hr, c)
        rows, counts = self._folded("CR")
        for (pl, hl, pr, hr, n_r, t_r), c in zip(rows, counts):
            if right_run is not None:
                right_run(pl, hl, pr + n_r - t_r, pr + n_r - 1, hr + 1, c)
                continue
            for k in range(1, t_r + 1):
                visit(pl, hl, pr + n_r - k, hr + 1, c)


def _segment_ranks(flags, node_of, offsets, n_nodes):
    """Scalar local-reordering positions, vectorised per segment.

    ``flags[i]`` says whether flat candidate ``i`` is adjacent to its
    node's pivot.  The vertex-list walk reorders each candidate list as
    non-neighbors first, neighbors after (both preserving sorted order);
    the returned ``ranks`` are each candidate's index in that reordered
    list, and ``t`` the per-node non-neighbor count.
    """
    total = flags.size
    flag_int = flags.astype(np.int64)
    lengths = np.diff(offsets)
    adj_in_node = np.bincount(node_of[flags], minlength=n_nodes).astype(np.int64)
    t = lengths - adj_in_node
    if total == 0:
        return np.empty(0, dtype=np.int64), t
    # Segmented exclusive prefix counts of the adjacency flags.
    prefix = np.cumsum(flag_int) - flag_int
    base = np.repeat(prefix[np.minimum(offsets[:-1], total - 1)], lengths)
    adj_before = prefix - base
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    nonadj_before = intra - adj_before
    ranks = np.where(flags, t[node_of] + adj_before, nonadj_before)
    return ranks, t


def _keyed_member(keyed, stride, row_of, values):
    """Vectorised ``values[i] in row row_of[i]`` against keyed CSR rows."""
    keys = row_of * stride + values
    pos = np.searchsorted(keyed, keys)
    inb = pos < keyed.size
    return inb & (keyed[np.where(inb, pos, 0)] == keys)


def _root_batch(fg: FrontierGraph, roots) -> _Batch:
    """The level-1 batch: one node per root edge, candidate sets
    ``N^{>u}(v)`` / ``N^{>v}(u)`` sliced from the CSR in one gather."""
    n = len(roots)
    us = np.fromiter((edge[0] for edge in roots), dtype=np.int64, count=n)
    vs = np.fromiter((edge[1] for edge in roots), dtype=np.int64, count=n)
    # First index of row v with value > u: one searchsorted on the keyed
    # concatenation (side="right" lands just past (v, u)).
    lo = np.searchsorted(fg.keyed_right(), vs * fg.stride + us, side="right")
    al, aloff = gather_slices(fg.indices_r, lo, fg.indptr_r[vs + 1] - lo)
    lo = np.searchsorted(fg.keyed_left(), us * fg.stride + vs, side="right")
    ar, aroff = gather_slices(fg.indices_l, lo, fg.indptr_l[us + 1] - lo)
    zeros = np.zeros(n, dtype=np.int64)
    ones = np.ones(n, dtype=np.int64)
    return _Batch(
        al, aloff, ar, aroff,
        zeros, ones, zeros.copy(), ones.copy(), ones.copy(),
    )


def _expand(fg: FrontierGraph, batch: _Batch, bounds, sink: _RecordSink,
            tally: _Tally) -> "list[_Batch]":
    """Expand one batch: prune, intersect, pick pivots, build children.

    Returns the child batches (at most one, possibly empty list); leaf
    and case-5 contributions go to ``sink``, counters to ``tally``.
    """
    n = batch.size
    pl, hl, pr, hr = batch.pl, batch.hl, batch.pr, batch.hr
    level = batch.level
    nl_all = np.diff(batch.aloff)
    nr_all = np.diff(batch.aroff)
    tally.max_depth = max(tally.max_depth, int(level.max()))

    # --- prune, in the scalar order: size bound, left reach, right reach
    if bounds is None:
        keep = np.arange(n, dtype=np.int64)
    else:
        max_p, max_q, min_p, min_q = bounds
        size_cut = (hl > max_p) | (hr > max_q)
        reach_l_cut = ~size_cut & (pl + hl + nl_all < min_p)
        reach_r_cut = ~size_cut & ~reach_l_cut & (pr + hr + nr_all < min_q)
        tally.prune_size += int(size_cut.sum())
        tally.prune_reach_l += int(reach_l_cut.sum())
        tally.prune_reach_r += int(reach_r_cut.sum())
        keep = np.nonzero(~(size_cut | reach_l_cut | reach_r_cut))[0]
    if keep.size == 0:
        return []

    # --- compact the survivors' candidate arenas
    al, aloff = gather_slices(batch.al, batch.aloff[keep], nl_all[keep])
    ar, aroff = gather_slices(batch.ar, batch.aroff[keep], nr_all[keep])
    pl = pl[keep]
    hl = hl[keep]
    pr = pr[keep]
    hr = hr[keep]
    level = level[keep]
    k = keep.size
    nl = np.diff(aloff)
    nr = np.diff(aroff)
    tot_l = int(aloff[-1])
    tot_r = int(aroff[-1])

    # --- candidate-subgraph edges for the whole frontier: one batched
    #     kernel call resolves N(x) ∩ C_r for every (node, x in C_l).
    lnode = np.repeat(np.arange(k, dtype=np.int64), nl)
    if tot_l and tot_r:
        sizes, _, e_yloc = intersect_arena_many(
            fg.indptr_l,
            fg.indices_l,
            al,
            ar,
            aroff,
            query_of_row=lnode,
            keyed_indices=fg.keyed_left(),
            stride=fg.stride,
        )
    else:
        sizes = np.zeros(tot_l, dtype=np.int64)
        e_yloc = np.empty(0, dtype=np.int64)

    n_edges = int(sizes.sum())
    e_flat = np.repeat(np.arange(tot_l, dtype=np.int64), sizes)
    e_node = lnode[e_flat] if n_edges else np.empty(0, dtype=np.int64)
    edges_per_node = np.bincount(e_node, minlength=k)
    rpos = aroff[e_node] + e_yloc  # flat right-arena position of each edge's y
    deg_r = np.bincount(rpos, minlength=tot_r)

    # --- leaves: no candidate-subgraph edges; record in closed form
    leaf = np.nonzero(edges_per_node == 0)[0]
    if leaf.size:
        tally.leaves += int(leaf.size)
        both = (nl[leaf] > 0) & (nr[leaf] > 0)
        b = leaf[both]
        if b.size:
            sink.add(
                "R", np.stack([pl[b], hl[b], pr[b], hr[b], nl[b], nr[b]], axis=1)
            )
        s = leaf[~both]
        if s.size:
            sink.add(
                "S", np.stack([pl[s] + nl[s], hl[s], pr[s] + nr[s], hr[s]], axis=1)
            )
    live = np.nonzero(edges_per_node > 0)[0]
    if live.size == 0:
        return []

    # --- pivot per live node: first edge maximising (d(x)-1)*(d(y)-1)
    #     in (x, y) candidate-local order — the scalar max() tie-break.
    estart = exclusive_cumsum(edges_per_node)
    score = (sizes[e_flat] - 1) * (deg_r[rpos] - 1)
    seg_max = np.maximum.reduceat(score, estart[live])
    is_max = score == np.repeat(seg_max, edges_per_node[live])
    max_edges = np.nonzero(is_max)[0]
    _, first = np.unique(e_node[max_edges], return_index=True)
    piv_edge = max_edges[first]  # one per live node, in live order
    pivot_u = al[e_flat[piv_edge]]
    pivot_v = ar[rpos[piv_edge]]

    # --- per-candidate pivot adjacency (x in N(pivot_v), y in N(pivot_u))
    pv_v_of = np.zeros(k, dtype=np.int64)
    pv_v_of[live] = pivot_v
    pv_u_of = np.zeros(k, dtype=np.int64)
    pv_u_of[live] = pivot_u
    rnode = np.repeat(np.arange(k, dtype=np.int64), nr)
    x_adj = _keyed_member(fg.keyed_right(), fg.stride, pv_v_of[lnode], al)
    y_adj = _keyed_member(fg.keyed_left(), fg.stride, pv_u_of[rnode], ar)
    live_flag = np.zeros(k, dtype=bool)
    live_flag[live] = True

    # --- scalar local reordering (pivot non-neighbors first), as ranks
    rank_l, t_l = _segment_ranks(x_adj, lnode, aloff, k)
    rank_r, t_r = _segment_ranks(y_adj, rnode, aroff, k)

    # --- case 5: one-sided bicliques holding a pivot non-neighbor
    tl_live = t_l[live]
    c5 = live[tl_live > 0]
    if c5.size:
        sink.add(
            "CL",
            np.stack(
                [pl[c5], hl[c5], pr[c5], hr[c5], nl[c5], tl_live[tl_live > 0]],
                axis=1,
            ),
        )
    tr_live = t_r[live]
    c5 = live[tr_live > 0]
    if c5.size:
        sink.add(
            "CR",
            np.stack(
                [pl[c5], hl[c5], pr[c5], hr[c5], nr[c5], tr_live[tr_live > 0]],
                axis=1,
            ),
        )

    # --- case 6: one child per candidate edge not covered by the pivot
    covered = x_adj[e_flat] & y_adj[rpos]
    unc = np.nonzero(~covered)[0]
    n_edge_children = unc.size
    tally.edge_branches += int(n_edge_children)
    tally.pivot_branches += int(live.size)

    # sub_l of edge (node, x, y): left candidates adjacent to y ranked
    # after x.  "Adjacent to y within the node" is exactly the edge
    # column of (node, y), so group the edges by column once and filter.
    col_order = np.lexsort((e_flat, rpos))  # by (column, x-order)
    col_start = exclusive_cumsum(deg_r)
    col_len = deg_r[rpos[unc]]
    members, _ = gather_slices(col_order, col_start[rpos[unc]], col_len)
    parent = np.repeat(np.arange(n_edge_children, dtype=np.int64), col_len)
    keep_l = rank_l[e_flat[members]] > np.repeat(rank_l[e_flat[unc]], col_len)
    sub_l_child = parent[keep_l]
    sub_l_vals = al[e_flat[members[keep_l]]]

    # sub_r mirrored: the edge row of (node, x) is already contiguous.
    row_start = exclusive_cumsum(sizes)
    row_len = sizes[e_flat[unc]]
    members, _ = gather_slices(
        np.arange(n_edges, dtype=np.int64), row_start[e_flat[unc]], row_len
    )
    parent = np.repeat(np.arange(n_edge_children, dtype=np.int64), row_len)
    keep_r = rank_r[rpos[members]] > np.repeat(rank_r[rpos[unc]], row_len)
    sub_r_child = parent[keep_r]
    sub_r_vals = ar[rpos[members[keep_r]]]

    # --- cases 1-4: the pivot branch (pivot endpoints become free)
    pv_mask_l = live_flag[lnode] & x_adj & (al != pv_u_of[lnode])
    pv_mask_r = live_flag[rnode] & y_adj & (ar != pv_v_of[rnode])
    pv_l_counts = np.bincount(lnode[pv_mask_l], minlength=k)[live]
    pv_r_counts = np.bincount(rnode[pv_mask_r], minlength=k)[live]

    # --- assemble the child batch: edge children first, pivot children
    #     after (both grouped in parent order; values stay sorted).
    counts_l = np.concatenate(
        [np.bincount(sub_l_child, minlength=n_edge_children), pv_l_counts]
    )
    counts_r = np.concatenate(
        [np.bincount(sub_r_child, minlength=n_edge_children), pv_r_counts]
    )
    edge_parent = e_node[unc]
    child = _Batch(
        np.concatenate([sub_l_vals, al[pv_mask_l]]),
        exclusive_cumsum(counts_l),
        np.concatenate([sub_r_vals, ar[pv_mask_r]]),
        exclusive_cumsum(counts_r),
        np.concatenate([pl[edge_parent], pl[live] + 1]),
        np.concatenate([hl[edge_parent] + 1, hl[live]]),
        np.concatenate([pr[edge_parent], pr[live] + 1]),
        np.concatenate([hr[edge_parent] + 1, hr[live]]),
        np.concatenate([level[edge_parent], level[live]]) + 1,
    )
    return [child]


def run_frontier(
    fg: FrontierGraph,
    roots: "list[tuple[int, int]]",
    visit,
    bounds=None,
    obs: "MetricsRegistry | None" = None,
    heartbeat: "Heartbeat | None" = None,
    node_budget: "int | None" = None,
    deadline: "float | None" = None,
    trace: "Trace | None" = None,
    batch_cap: int = DEFAULT_BATCH_CAP,
) -> None:
    """Run the frontier traversal over ``roots``; drop-in for the
    size-level vertex-list walk ``EPivoter._run_sets`` takes through
    ``_size_leaves`` (same visitor, bounds, budget semantics).

    ``heartbeat`` ticks once per node (``tick(width)`` per batch);
    ``trace`` receives ``frontier_expand`` spans for the first
    ``_TRACE_SPAN_CAP`` batches plus one aggregated tail span.
    """
    from repro.core.epivoter import CountBudgetExceeded, _flush_traversal_stats

    if deadline is not None and time.monotonic() >= deadline:
        raise CountBudgetExceeded("deadline expired before the traversal started")
    sink = _RecordSink()
    tally = _Tally()
    tally.roots = len(roots)
    track = obs is not None and obs.enabled
    traced = trace is not None and trace.enabled
    nodes_total = 0
    batches = 0
    max_width = 0
    max_arena = 0
    tail_batches = 0
    tail_nodes = 0
    tail_seconds = 0.0
    pending: list[_Batch] = []
    if roots:
        pending.extend(_split(_root_batch(fg, roots), batch_cap))
    while pending:
        batch = pending.pop()  # scalar-pop-ok: pops a whole frontier batch
        while batch.size < _MIN_BATCH and pending:
            batch = _merge(batch, pending.pop())  # scalar-pop-ok: whole-batch merge
        width = batch.size
        batches += 1
        nodes_total += width
        if node_budget is not None and nodes_total > node_budget:
            raise CountBudgetExceeded(f"node budget of {node_budget} exhausted")
        if deadline is not None and time.monotonic() >= deadline:
            raise CountBudgetExceeded(f"deadline hit after {nodes_total} nodes")
        if heartbeat is not None:
            heartbeat.tick(width)
        if width > max_width:
            max_width = width
        arena = batch.arena_bytes
        if arena > max_arena:
            max_arena = arena
        if traced and batches <= _TRACE_SPAN_CAP:
            with trace.span("frontier_expand", batch=batches, width=width):
                children = _expand(fg, batch, bounds, sink, tally)
        elif traced:
            started = time.perf_counter()
            children = _expand(fg, batch, bounds, sink, tally)
            tail_seconds += time.perf_counter() - started
            tail_batches += 1
            tail_nodes += width
        else:
            children = _expand(fg, batch, bounds, sink, tally)
        for child in children:
            pending.extend(_split(child, batch_cap))
    if traced and tail_batches:
        trace.add_span(
            "frontier_expand",
            tail_seconds,
            batches=tail_batches,
            nodes=tail_nodes,
            aggregated=True,
        )
    sink.replay(visit, bounds=bounds)
    if track:
        _flush_traversal_stats(
            obs,
            tally.roots,
            nodes_total,
            tally.leaves,
            tally.pivot_branches,
            tally.edge_branches,
            tally.prune_size,
            tally.prune_reach_l,
            tally.prune_reach_r,
            tally.max_depth,
        )
        obs.incr("epivoter.frontier_batches", batches)
        obs.gauge_max("epivoter.frontier_max_width", max_width)
        obs.gauge_max("epivoter.arena_bytes", max_arena)
