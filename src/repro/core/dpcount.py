"""h-zigzag counting and uniform sampling (Algorithms 4–6).

An *h-zigzag* (Definition 4.1) is an ordered simple path
``u1, v1, u2, v2, ..., uh, vh`` in a degree-ordered bipartite graph with
strictly increasing ids on both sides and edges ``(u_i, v_i)`` and
``(v_i, u_{i+1})``.

The DP works over *directed* edges with two parities:

* an **A-edge** ``u -> v`` heads a path of odd edge length;
* a **B-edge** ``v -> u'`` heads a path of even edge length.

``dpA[L][u -> v]`` counts length-``L`` zigzag suffixes starting with that
edge.  Because the continuation set of ``u -> v`` is ``{v -> u' : u' > u}``
— a contiguous range of the B-edges sorted by ``(v, u')`` — each DP level
is a grouped range-sum, computed here with vectorised prefix sums.  This
is the numpy equivalent of the differential-interval updating trick of
Algorithm 5 (DPCount++) and gives ``O(h |E|)`` per table.

Sampling (Algorithm 6) walks the table backwards: the head edge is drawn
proportionally to ``dpA[2h-1]``, each subsequent edge proportionally to
the remaining-suffix counts, which yields an exactly uniform h-zigzag
(Theorem 4.5).

:meth:`ZigzagDP.sample_batch` runs that walk for ``k`` samples at once:
all partial zigzags advance level-by-level as numpy column stacks, with
one inverse-CDF ``searchsorted`` (head step) or one masked row-wise
cumulative-sum draw (walk steps) per level.  Draws come off the
generator sample by sample (``rng.random((k, 2h-1))`` fills row-major),
so the samples do not depend on how the ``k`` are split into blocks or
calls: a batch of ``k`` followed by a batch of ``j`` equals one batch of
``k + j`` on the same generator.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bigraph import BipartiteGraph
from repro.graph.intersect import as_int64
from repro.utils.rng import as_generator

__all__ = ["ZigzagDP", "SAMPLE_BLOCK", "count_zigzags", "count_zigzags_naive"]

#: Samples advanced together per :meth:`ZigzagDP.sample_batch` block; caps
#: the ``block x max_range_width`` float working set at a few MiB for
#: typical local-subgraph widths while keeping the vector lanes full.
SAMPLE_BLOCK = 4096


class ZigzagDP:
    """DP tables for h-zigzag counting and uniform sampling.

    Parameters
    ----------
    graph:
        Must be degree-ordered (integer order == degree order ``<_d``);
        local subgraphs produced by :mod:`repro.graph.subgraph` preserve
        the parent's order, so they can be passed directly.
    h_max:
        Tables are built for every ``h <= h_max``.
    exact:
        With ``True`` the tables hold exact Python integers (object
        dtype); the default float64 is what the estimators use.
    """

    def __init__(self, graph: BipartiteGraph, h_max: int, exact: bool = False):
        if h_max < 1:
            raise ValueError("h_max must be at least 1")
        self.graph = graph
        self.h_max = h_max
        self.exact = exact
        indptr_l, indices_l, indptr_r, indices_r = (
            as_int64(buf) for buf in graph.csr_buffers()
        )
        m = indices_l.size
        self.num_edges = m
        self._float_cache: dict[tuple[str, int], np.ndarray] = {}
        dtype = object if exact else np.float64
        if m == 0:
            self._dpA: dict[int, np.ndarray] = {1: np.zeros(0, dtype=dtype)}
            self._dpB: dict[int, np.ndarray] = {}
            self.a_u = np.zeros(0, dtype=np.int64)
            self.a_v = np.zeros(0, dtype=np.int64)
            return
        # A-order: edges sorted by (u, v) — the left CSR, row by row.
        self.a_u = np.repeat(np.arange(graph.n_left, dtype=np.int64), np.diff(indptr_l))
        self.a_v = indices_l
        # B-order: the same edges sorted by (v, u) — the right CSR.
        self.b_v = np.repeat(np.arange(graph.n_right, dtype=np.int64), np.diff(indptr_r))
        self.b_u = indices_r
        span_l = graph.n_left + 1
        span_r = graph.n_right + 1
        key_a = self.a_u * span_r + self.a_v  # sorted ascending
        key_b = self.b_v * span_l + self.b_u  # sorted ascending
        # Continuation ranges.  A-edge (u, v) -> B-edges (v, u') with u' > u.
        self._a_lo = np.searchsorted(key_b, self.a_v * span_l + self.a_u + 1)
        self._a_hi = np.searchsorted(key_b, (self.a_v + 1) * span_l)
        # B-edge (v, u') -> A-edges (u', v') with v' > v.
        self._b_lo = np.searchsorted(key_a, self.b_u * span_r + self.b_v + 1)
        self._b_hi = np.searchsorted(key_a, (self.b_u + 1) * span_r)

        ones = np.ones(m, dtype=dtype)
        if exact:
            ones = np.array([1] * m, dtype=object)
        self._dpA = {1: ones}
        self._dpB = {}
        zero = 0 if exact else 0.0
        for level in range(2, 2 * h_max):
            if level % 2 == 0:
                prev = self._dpA[level - 1]  # A-order
                prefix = np.concatenate(([zero], np.cumsum(prev)))
                self._dpB[level] = prefix[self._b_hi] - prefix[self._b_lo]
            else:
                prev = self._dpB[level - 1]  # B-order
                prefix = np.concatenate(([zero], np.cumsum(prev)))
                self._dpA[level] = prefix[self._a_hi] - prefix[self._a_lo]

    # ------------------------------------------------------------------

    def head_range_for_left(self, u: int) -> tuple[int, int]:
        """A-order index range of the edges leaving left vertex ``u``."""
        lo = int(np.searchsorted(self.a_u, u, side="left"))
        hi = int(np.searchsorted(self.a_u, u, side="right"))
        return lo, hi

    def zigzag_count(self, h: int, head_range: "tuple[int, int] | None" = None):
        """Number of h-zigzags (optionally restricted by head-edge range)."""
        if not 1 <= h <= self.h_max:
            raise ValueError(f"h must be in 1..{self.h_max}")
        if self.num_edges == 0:
            return 0 if self.exact else 0.0
        table = self._dpA[2 * h - 1]
        if head_range is not None:
            table = table[head_range[0]:head_range[1]]
        total = table.sum() if len(table) else (0 if self.exact else 0.0)
        return total

    # Sampling -----------------------------------------------------------

    def sample_batch(
        self,
        h: int,
        k: int,
        rng: "int | None | np.random.Generator" = None,
        head_range: "tuple[int, int] | None" = None,
        block: int = SAMPLE_BLOCK,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``k`` uniform h-zigzags at once.

        Returns ``(lefts, rights)``: two ``(k, h)`` int64 arrays whose
        rows are the sampled zigzags in path order (both sides strictly
        increasing).  Raises ``ValueError`` if no such zigzag exists.

        ``block`` caps how many samples advance together (bounding the
        ``block x max_range_width`` working set); blocks run back to back
        on the same generator, so the result is block-size independent.
        """
        if not 1 <= h <= self.h_max:
            raise ValueError(f"h must be in 1..{self.h_max}")
        if k < 0:
            raise ValueError("k must be non-negative")
        if block < 1:
            raise ValueError("block must be positive")
        lefts = np.empty((k, h), dtype=np.int64)
        rights = np.empty((k, h), dtype=np.int64)
        if k == 0:
            return lefts, rights
        if self.num_edges == 0:
            raise ValueError("cannot sample from a graph with no edges")
        rng = as_generator(rng)
        lo, hi = head_range if head_range is not None else (0, self.num_edges)
        # The head step's range is shared by the whole batch; its
        # cumulative array is hoisted out of the block loop.
        head_weights = self._float_table(2 * h - 1)[lo:hi]
        head_cum = np.cumsum(head_weights)
        head_total = head_cum[-1] if len(head_cum) else 0.0
        if head_total <= 0:
            raise ValueError("cannot sample: no zigzag with positive weight")
        for start in range(0, k, block):
            stop = min(start + block, k)
            kb = stop - start
            # Row-major fill = sample-by-sample draw order, so splitting
            # the k samples into blocks or calls never changes them.
            uniforms = rng.random((kb, 2 * h - 1))
            heads = np.searchsorted(head_cum, uniforms[:, 0] * head_total, side="right")
            cursors = lo + np.minimum(heads, hi - lo - 1)
            lefts[start:stop, 0] = self.a_u[cursors]
            rights[start:stop, 0] = self.a_v[cursors]
            left_col = right_col = 1
            for step, level in enumerate(range(2 * h - 2, 0, -1), start=1):
                if level % 2 == 0:
                    # Move A -> B: pick the next left vertex.
                    cursors = self._pick_batch(
                        self._float_table(level, side="B"),
                        self._a_lo[cursors],
                        self._a_hi[cursors],
                        uniforms[:, step],
                    )
                    lefts[start:stop, left_col] = self.b_u[cursors]
                    left_col += 1
                else:
                    # Move B -> A: pick the next right vertex.
                    cursors = self._pick_batch(
                        self._float_table(level, side="A"),
                        self._b_lo[cursors],
                        self._b_hi[cursors],
                        uniforms[:, step],
                    )
                    rights[start:stop, right_col] = self.a_v[cursors]
                    right_col += 1
        return lefts, rights

    def _float_table(self, level: int, side: str = "A") -> np.ndarray:
        """The DP table as float64 (memoised cast for exact-mode tables)."""
        table = self._dpA[level] if side == "A" else self._dpB[level]
        if not self.exact:
            return table
        key = (side, level)
        cached = self._float_cache.get(key)
        if cached is None:
            cached = self._float_cache[key] = table.astype(np.float64)
        return cached

    def _pick_batch(
        self,
        table: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """One proportional draw per sample from its ``[low, high)`` range.

        Each row's weights are gathered into a padded matrix and
        cumulative-summed left to right (``np.cumsum`` accumulates
        sequentially, so a row's sums do not depend on the other rows'
        widths); the inverse-CDF index is the count of
        cumulative values ``<= draw``, which is ``searchsorted(...,
        side="right")``.  Padding columns carry the row total and a draw
        is strictly below its total, so they never count.
        """
        widths = highs - lows
        if np.any(widths <= 0):
            raise ValueError("cannot sample: no zigzag with positive weight")
        max_width = int(widths.max())
        columns = np.arange(max_width)
        gather = lows[:, None] + columns[None, :]
        valid = columns[None, :] < widths[:, None]
        values = np.where(valid, table[np.minimum(gather, len(table) - 1)], 0.0)
        cumulative = np.cumsum(values, axis=1)
        totals = cumulative[np.arange(len(lows)), widths - 1]
        if np.any(totals <= 0):
            raise ValueError("cannot sample: no zigzag with positive weight")
        draws = uniforms * totals
        indices = (cumulative <= draws[:, None]).sum(axis=1)
        return lows + np.minimum(indices, widths - 1)


def count_zigzags(graph: BipartiteGraph, h: int, exact: bool = True):
    """Count the h-zigzags of a degree-ordered ``graph`` (DPCount++)."""
    return ZigzagDP(graph, h, exact=exact).zigzag_count(h)


def count_zigzags_naive(graph: BipartiteGraph, h: int) -> int:
    """Reference DPCount (Algorithm 4): per-edge loops, exact integers.

    ``O(h * d_max * |E|)``; used to cross-validate the vectorised tables.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    edges = list(graph.edges())
    dp_a = {e: 1 for e in edges}  # suffix length 1
    for level in range(2, 2 * h):
        if level % 2 == 0:
            dp_b: dict[tuple[int, int], int] = {}
            for u, v in edges:
                # B-edge (v, u): continue with A-edges (u, v') for v' > v.
                dp_b[(v, u)] = sum(
                    dp_a[(u, v_next)]
                    for v_next in graph.higher_neighbors_of_left(u, v)
                )
            dp_prev_b = dp_b
        else:
            new_a: dict[tuple[int, int], int] = {}
            for u, v in edges:
                new_a[(u, v)] = sum(
                    dp_prev_b[(v, u_next)]
                    for u_next in graph.higher_neighbors_of_right(v, u)
                )
            dp_a = new_a
    return sum(dp_a.values())
