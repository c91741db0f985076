"""Sorted-sequence intersection kernels shared by every engine.

All adjacency data in this library lives in CSR buffers
(:class:`repro.graph.bigraph.BipartiteGraph`), so a neighborhood is a
*sorted* integer sequence and every neighborhood operation the engines
need — ``N(u) ∩ C``, ``|N(u) ∩ N(u')|``, ``S ⊆ N(v)`` — reduces to a
walk over two sorted sequences.  This module is the one place those
walks are implemented; EPivoter, EPMBCE, ZigZag (via the subgraph
builders), the incremental butterfly maintenance, BC, and the
vertex-pivot baseline all import from here.

Two regimes, picked adaptively by :func:`intersect_sorted`:

* **merge walk** — classic two-pointer scan, ``O(m + n)``; best when the
  inputs have comparable lengths;
* **galloping** (binary-search) walk — iterate the *short* side and
  binary-search each element in the long side, ``O(m log n)``; on
  skewed-degree graphs (a hub adjacency vs. a leaf adjacency) this is
  the layout-aware fast path that a flat CSR makes possible
  (``tests/test_intersect.py`` pins both regimes to a set oracle).

The crossover ``m * GALLOP_FACTOR < n`` mirrors the standard heuristic
(e.g. numpy's ``intersect1d`` discussion and the roaring-bitmap papers):
galloping wins once one side is ~8× longer than the other.

Inputs may be any sorted integer sequences supporting ``len`` and
indexing — tuples, lists, stdlib ``array`` slices, or the zero-copy
``memoryview`` rows that shared-memory workers see.  Outputs are plain
lists (sorted), so results compose with further kernel calls.

Batched kernels
---------------
The frontier engine (:mod:`repro.core.frontier`) expands thousands of
enumeration-tree nodes per level, so it needs *one* kernel call per
level, not one per node.  :func:`intersect_many` /
:func:`intersect_size_many` intersect one sorted query list against many
CSR rows at once; :func:`intersect_arena_many` is the general many-vs-
many form, where the queries themselves are ragged sorted slices of a
contiguous arena.  All three are numpy-vectorised and keep the scalar
kernels' adaptivity: per row, either the adjacency slice is *gathered*
and probed into the (offset-keyed) query arena, or — when the row is
``GALLOP_FACTOR``× longer than its query — the query elements are probed
into an offset-keyed copy of the CSR indices.  Both probes are a single
``np.searchsorted``: adding ``segment_id * stride`` to every value makes
the concatenation of per-segment sorted runs globally monotone, so one
binary search resolves membership across every segment at once.
"""

from __future__ import annotations

from array import array as _stdlib_array
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GALLOP_FACTOR",
    "intersect_sorted",
    "intersect_size",
    "intersects",
    "is_subset_sorted",
    "apply_delta",
    "common_neighborhood",
    "count_in_range",
    "as_int64",
    "exclusive_cumsum",
    "gather_slices",
    "intersect_many",
    "intersect_size_many",
    "intersect_arena_many",
]

#: Length ratio beyond which the galloping walk beats the merge walk.
GALLOP_FACTOR = 8


def _merge_intersect(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Two-pointer intersection of two sorted sequences."""
    out: list[int] = []
    append = out.append
    i = j = 0
    n_a, n_b = len(a), len(b)
    while i < n_a and j < n_b:
        x, y = a[i], b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            append(x)
            i += 1
            j += 1
    return out


def _gallop_intersect(short: Sequence[int], long: Sequence[int]) -> list[int]:
    """Binary-search each element of ``short`` in ``long``.

    The search window shrinks as the walk advances (``lo`` only moves
    forward), so repeated probes over a hub adjacency stay logarithmic in
    the *remaining* suffix.
    """
    out: list[int] = []
    append = out.append
    lo = 0
    hi = len(long)
    for x in short:
        lo = bisect_left(long, x, lo, hi)
        if lo == hi:
            break
        if long[lo] == x:
            append(x)
            lo += 1
    return out


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """``a ∩ b`` for sorted duplicate-free sequences, as a sorted list.

    Adaptively picks the merge walk or the galloping walk based on the
    length ratio (see module docstring).
    """
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        return []
    if n_a * GALLOP_FACTOR < n_b:
        return _gallop_intersect(a, b)
    if n_b * GALLOP_FACTOR < n_a:
        return _gallop_intersect(b, a)
    return _merge_intersect(a, b)


def intersect_size(a: Sequence[int], b: Sequence[int]) -> int:
    """``|a ∩ b|`` without materialising the intersection."""
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        return 0
    if n_a > n_b:
        a, b, n_a, n_b = b, a, n_b, n_a
    if n_a * GALLOP_FACTOR < n_b:
        count = 0
        lo = 0
        for x in a:
            lo = bisect_left(b, x, lo, n_b)
            if lo == n_b:
                break
            if b[lo] == x:
                count += 1
                lo += 1
        return count
    count = 0
    i = j = 0
    while i < n_a and j < n_b:
        x, y = a[i], b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            count += 1
            i += 1
            j += 1
    return count


def intersects(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff the sorted sequences share at least one element.

    Early-exits on the first common element; the disjoint case gallops
    through the short side like :func:`intersect_size`.
    """
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        return False
    if n_a > n_b:
        a, b, n_a, n_b = b, a, n_b, n_a
    lo = 0
    for x in a:
        lo = bisect_left(b, x, lo, n_b)
        if lo == n_b:
            return False
        if b[lo] == x:
            return True
    return False


def is_subset_sorted(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff sorted sequence ``a`` is a subset of sorted sequence ``b``."""
    n_a, n_b = len(a), len(b)
    if n_a > n_b:
        return False
    lo = 0
    for x in a:
        lo = bisect_left(b, x, lo, n_b)
        if lo == n_b or b[lo] != x:
            return False
        lo += 1
    return True


def common_neighborhood(
    rows: Iterable[Sequence[int]],
    limit: "int | None" = None,
) -> list[int]:
    """Fold :func:`intersect_sorted` over several sorted rows.

    Computes ``row_1 ∩ row_2 ∩ ...`` (the common neighborhood ``N(S)``
    when the rows are CSR adjacency rows), short-circuiting to ``[]``
    as soon as the running intersection empties — or drops below
    ``limit`` elements, for callers that only care whether at least
    ``limit`` survivors exist.
    """
    iterator = iter(rows)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("common neighborhood of an empty collection is undefined")
    result = list(first)
    floor = 0 if limit is None else limit
    for row in iterator:
        if len(result) < max(1, floor):
            return []
        result = intersect_sorted(result, row)
    if limit is not None and len(result) < limit:
        return []
    return result


def count_in_range(row: Sequence[int], lo_value: int) -> int:
    """Number of elements of sorted ``row`` strictly greater than ``lo_value``.

    The CSR form of ``|N^{>u}(v)|`` — a single binary search, no slice.
    """
    return len(row) - bisect_right(row, lo_value)


def apply_delta(
    base: Sequence[int],
    adds: Sequence[int],
    dels: Sequence[int],
) -> list[int]:
    """Three-way merge of a sorted CSR row with a sorted add/tombstone delta.

    Returns ``(base ∪ adds) \\ dels`` as a sorted list. Callers maintain
    the overlay invariants ``adds ∩ base = ∅`` and ``dels ⊆ base``
    (tombstones only ever shadow base entries; a re-added edge removes
    its tombstone instead of carrying both). Duplicates between ``base``
    and ``adds`` are nevertheless collapsed defensively.
    """
    if not adds and not dels:
        return list(base)
    out: list[int] = []
    append = out.append
    i = j = k = 0
    n_base, n_adds, n_dels = len(base), len(adds), len(dels)
    while i < n_base or j < n_adds:
        if j >= n_adds or (i < n_base and base[i] <= adds[j]):
            x = base[i]
            if j < n_adds and adds[j] == x:
                j += 1
            i += 1
            while k < n_dels and dels[k] < x:
                k += 1
            if k < n_dels and dels[k] == x:
                k += 1
                continue
        else:
            x = adds[j]
            j += 1
        append(x)
    return out


# ----------------------------------------------------------------------
# Batched kernels (numpy): one call per frontier level, not per node
# ----------------------------------------------------------------------


def as_int64(buf) -> np.ndarray:
    """A zero-copy (where possible) int64 ndarray view of a CSR buffer.

    Accepts the buffer types :meth:`BipartiteGraph.csr_buffers` can
    return — stdlib ``array('q')``, the ``memoryview('q')`` rows that
    shared-memory workers see — plus ndarrays and plain sequences.
    """
    if isinstance(buf, np.ndarray):
        return np.ascontiguousarray(buf, dtype=np.int64)
    if isinstance(buf, (_stdlib_array, memoryview)):
        if len(buf) == 0:  # older numpy rejects an empty buffer
            return np.empty(0, dtype=np.int64)
        return np.frombuffer(buf, dtype=np.int64)
    return np.asarray(buf, dtype=np.int64)


def exclusive_cumsum(lengths):
    """``[0, l0, l0+l1, ...]`` — ragged-slice offsets from slice lengths."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def gather_slices(values, starts, lengths):
    """Concatenate ``values[starts[i] : starts[i] + lengths[i]]`` for all i.

    Returns ``(flat, offsets)`` with ``flat[offsets[i]:offsets[i+1]]``
    being slice ``i``.  This is the vectorised CSR gather idiom: one
    ``repeat`` builds every slice's base index, one ``arange`` the
    intra-slice offsets.
    """
    offsets = exclusive_cumsum(lengths)
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    idx = np.repeat(starts - offsets[:-1], lengths) + np.arange(total, dtype=np.int64)
    return values[idx], offsets


def intersect_arena_many(
    indptr,
    indices,
    rows,
    query_arena,
    query_offsets,
    query_of_row=None,
    keyed_indices=None,
    stride=None,
    sizes_only=False,
):
    """Batched ``N(rows[i]) ∩ Q[query_of_row[i]]`` over ragged queries.

    ``query_arena`` holds every query concatenated; query ``j`` is the
    sorted duplicate-free slice
    ``query_arena[query_offsets[j]:query_offsets[j+1]]``.
    ``query_of_row[i]`` names the query row ``i`` intersects with
    (default: query 0 for every row).

    Returns ``(counts, values, positions)``:

    * ``counts[i]`` — the intersection size for row ``i``;
    * ``values`` — the matched elements, grouped by row (ascending
      within each row), so ``values[c[i]:c[i+1]]`` with
      ``c = exclusive_cumsum(counts)`` is row ``i``'s intersection;
    * ``positions`` — for each matched element, its index *within its
      query slice* (the frontier engine's candidate-local coordinates).

    With ``sizes_only=True`` the value/position assembly is skipped and
    ``(counts, None, None)`` is returned.

    ``keyed_indices`` (optional) is a precomputed
    ``row_id * stride + indices`` array for the probe regime, so
    repeated calls against the same CSR skip rebuilding it; ``stride``
    must then be the stride it was built with, strictly greater than
    every value in ``indices`` and ``query_arena``.
    """
    indptr = as_int64(indptr)
    indices = as_int64(indices)
    rows = as_int64(rows)
    arena = as_int64(query_arena)
    qoff = as_int64(query_offsets)
    n = rows.size
    counts = np.zeros(n, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if n == 0 or arena.size == 0 or indices.size == 0:
        return (counts, None, None) if sizes_only else (counts, empty, empty)
    if query_of_row is None:
        qrow = np.zeros(n, dtype=np.int64)
    else:
        qrow = as_int64(query_of_row)
    qlen_all = np.diff(qoff)
    qlen = qlen_all[qrow]
    deg = indptr[rows + 1] - indptr[rows]

    # The scalar kernels' adaptivity, per row: gather the adjacency slice
    # when the sides are comparable, probe the (shorter) query into the
    # keyed CSR when the row is GALLOP_FACTOR x longer.
    probe_mask = deg > qlen * GALLOP_FACTOR
    gather_rows = np.nonzero(~probe_mask)[0]
    probe_rows = np.nonzero(probe_mask)[0]

    hit_rows: list = []
    hit_vals: list = []
    hit_qpos: list = []

    if gather_rows.size:
        gdeg = deg[gather_rows]
        vals, _ = gather_slices(indices, indptr[rows[gather_rows]], gdeg)
        if vals.size:
            if stride is None:
                local_stride = int(max(int(arena.max()), int(vals.max()))) + 1
            else:
                local_stride = stride
            n_queries = qoff.size - 1
            qkeys = arena + np.repeat(
                np.arange(n_queries, dtype=np.int64) * local_stride, qlen_all
            )
            owner = np.repeat(gather_rows, gdeg)
            keys = qrow[owner] * local_stride + vals
            pos = np.searchsorted(qkeys, keys)
            inb = pos < qkeys.size
            hit = inb & (qkeys[np.where(inb, pos, 0)] == keys)
            hrows = owner[hit]
            counts += np.bincount(hrows, minlength=n)
            if not sizes_only and hrows.size:
                hit_rows.append(hrows)
                hit_vals.append(vals[hit])
                hit_qpos.append(pos[hit] - qoff[qrow[hrows]])

    if probe_rows.size:
        plen = qlen[probe_rows]
        qvals, poff = gather_slices(arena, qoff[qrow[probe_rows]], plen)
        if qvals.size:
            if keyed_indices is None:
                if stride is None:
                    local_stride = int(max(int(indices.max()), int(arena.max()))) + 1
                else:
                    local_stride = stride
                n_csr_rows = indptr.size - 1
                keyed = (
                    np.repeat(
                        np.arange(n_csr_rows, dtype=np.int64) * local_stride,
                        np.diff(indptr),
                    )
                    + indices
                )
            else:
                if stride is None:
                    raise ValueError("keyed_indices requires its stride")
                keyed = as_int64(keyed_indices)
                local_stride = stride
            owner = np.repeat(probe_rows, plen)
            keys = rows[owner] * local_stride + qvals
            pos = np.searchsorted(keyed, keys)
            inb = pos < keyed.size
            hit = inb & (keyed[np.where(inb, pos, 0)] == keys)
            hrows = owner[hit]
            counts += np.bincount(hrows, minlength=n)
            if not sizes_only and hrows.size:
                qpos = (
                    np.arange(qvals.size, dtype=np.int64)
                    - np.repeat(poff[:-1], plen)
                )[hit]
                hit_rows.append(hrows)
                hit_vals.append(qvals[hit])
                hit_qpos.append(qpos)

    if sizes_only:
        return counts, None, None
    if not hit_rows:
        return counts, empty, empty
    if len(hit_rows) == 1:
        # One regime only: its hits are already emitted in ascending
        # (row, query position) order — rows via the repeat over an
        # ascending row list, positions via the ascending value order
        # within each slice — so the merge sort can be skipped.
        return counts, hit_vals[0], hit_qpos[0]
    rows_cat = np.concatenate(hit_rows)
    vals_cat = np.concatenate(hit_vals)
    qpos_cat = np.concatenate(hit_qpos)
    # The two regimes interleave rows; regroup by (row, query position)
    # so values stay ascending within each row.
    order = np.lexsort((qpos_cat, rows_cat))
    return counts, vals_cat[order], qpos_cat[order]


def intersect_many(indptr, indices, rows, query):
    """``N(rows[i]) ∩ query`` for one sorted query against many CSR rows.

    Returns ``(values, offsets)``: ``values[offsets[i]:offsets[i+1]]``
    is the sorted intersection for ``rows[i]`` — elementwise equal to
    looping :func:`intersect_sorted` over the rows.
    """
    query = as_int64(query)
    qoff = np.array([0, query.size], dtype=np.int64)
    counts, values, _ = intersect_arena_many(indptr, indices, rows, query, qoff)
    return values, exclusive_cumsum(counts)


def intersect_size_many(indptr, indices, rows, query):
    """``|N(rows[i]) ∩ query|`` for many CSR rows, without materialising."""
    query = as_int64(query)
    qoff = np.array([0, query.size], dtype=np.int64)
    counts, _, _ = intersect_arena_many(
        indptr, indices, rows, query, qoff, sizes_only=True
    )
    return counts
