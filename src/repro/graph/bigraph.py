"""The bipartite graph container used by every algorithm in this library.

Follows the notation of Section 2 of the paper:

* ``U`` and ``V`` are disjoint vertex sides, identified here by integer ids
  ``0..n1-1`` and ``0..n2-1`` respectively (sides are separate id spaces).
* ``N(u)`` / ``N(v)`` are neighbor queries answered from **CSR adjacency
  buffers** — per side an ``indptr`` offsets array and a sorted ``indices``
  array — so ordering-neighbor queries (``N^{>u}(v)``) are binary searches
  over a flat int64 buffer.
* The *degree ordering* ``<_d`` sorts each side by non-decreasing degree,
  ties broken by vertex id.  :meth:`BipartiteGraph.degree_ordered` relabels
  vertices so the degree ordering coincides with the integer order, which
  is what the counting algorithms assume.

Layout
------
Every graph is built through numpy (one sort over 1-D ``(u, v)`` keys),
but the four CSR buffers are stored as stdlib ``array('q')`` values, not
ndarrays: the pure-Python kernels (the vertex-list walk, stars, zigzag,
the intersection kernels) index the rows element by element, and an
ndarray is several times slower than an ``array`` at per-element
indexing, ``tuple(row)`` and ``bisect``.  The vectorised layers wrap the
same bytes zero-copy with ``np.frombuffer``.

* ``indptr_left[u] : indptr_left[u + 1]`` delimits ``N(u)`` inside the
  sorted ``indices_left`` buffer, and symmetrically on the right;
* degrees are ``indptr`` differences, computed once and cached;
* the **edge-id space** is the left CSR offset: edge ``k`` is the pair
  ``(u, indices_left[k])`` with ``indptr_left[u] <= k < indptr_left[u+1]``,
  which makes :meth:`edge_index`/:meth:`edge_at` a binary search each and
  aligns edge ids with :meth:`edges` iteration order.

Because the whole graph is four flat buffers plus two integers, pickling
is **by buffer** (:func:`_rebuild_from_buffers`): a worker process
reconstructs the graph from raw bytes without re-sorting or re-validating,
and the shared-memory fast path in :mod:`repro.utils.parallel` maps the
same bytes zero-copy (the buffers may then be ``memoryview`` rows — every
accessor works on any int64 sequence).
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.graph.intersect import as_int64, exclusive_cumsum, gather_slices

__all__ = ["BipartiteGraph", "LEFT", "RIGHT"]

LEFT = 0
RIGHT = 1

#: CSR buffers hold int64 ids ('q' = signed 8-byte), matching what the
#: shared-memory worker handoff casts its memoryviews to.
TYPECODE = "q"


def _empty() -> array:
    return array(TYPECODE)


def _as_buffer(values) -> "array | Sequence[int]":
    """Normalise a buffer-like input to an int64 sequence (no copy if
    already an ``array``/``memoryview``)."""
    if isinstance(values, (array, memoryview)):
        return values
    return array(TYPECODE, values)


def _build_csr(
    n_left: int, n_right: int, edges: "list[tuple[int, int]]"
) -> tuple[array, array, array, array]:
    """Validate, sort and dedupe ``edges``; build both CSR sides.

    One ``u * n_right + v`` key per edge sorts and dedupes the list in
    ``(u, v)`` order; a stable sort of the result by ``v`` gives the
    right side with every row already sorted by ``u``.
    """
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    us, vs = pairs[:, 0], pairs[:, 1]
    bad = (us < 0) | (us >= n_left) | (vs < 0) | (vs >= n_right)
    if bad.any():
        u, v = (int(x) for x in pairs[int(np.argmax(bad))])
        if not 0 <= u < n_left:
            raise ValueError(f"left vertex {u} out of range [0, {n_left})")
        raise ValueError(f"right vertex {v} out of range [0, {n_right})")
    stride = max(n_right, 1)
    us, vs = np.divmod(np.unique(us * stride + vs), stride)
    indptr_l = np.zeros(n_left + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n_left), out=indptr_l[1:])
    indptr_r = np.zeros(n_right + 1, dtype=np.int64)
    np.cumsum(np.bincount(vs, minlength=n_right), out=indptr_r[1:])
    indices_r = us[np.argsort(vs, kind="stable")]
    return tuple(
        array(TYPECODE, arr.tobytes()) for arr in (indptr_l, vs, indptr_r, indices_r)
    )


def csr_induce(
    parent: "BipartiteGraph",
    left_ids: Sequence[int],
    right_ids: Sequence[int],
) -> "BipartiteGraph":
    """Induced subgraph over **sorted** id sequences, CSR-to-CSR.

    The one-subgraph case of :func:`csr_induce_many`.  Callers guarantee
    ``left_ids``/``right_ids`` (any int sequences or ndarrays) are
    sorted and duplicate-free; :meth:`BipartiteGraph.induced_subgraph`
    normalises arbitrary iterables before delegating here.
    """
    left_ids, right_ids = as_int64(left_ids), as_int64(right_ids)
    return csr_induce_many(
        parent, left_ids, [0, left_ids.size], right_ids, [0, right_ids.size]
    )[0]


def _unit_pointers(edge_ptr: np.ndarray, offsets: np.ndarray) -> "tuple[array, list[int]]":
    """Per-unit CSR ``indptr`` rows cut from one arena-wide pointer array.

    Unit ``k`` owns arena rows ``offsets[k]:offsets[k+1]``; its ``indptr``
    is ``edge_ptr[offsets[k] : offsets[k+1] + 1]`` rebased to start at 0.
    Returns every unit's ``indptr`` concatenated and the cut points.
    """
    lengths = np.diff(offsets) + 1
    cuts = exclusive_cumsum(lengths)
    within = np.arange(int(cuts[-1]), dtype=np.int64) - np.repeat(cuts[:-1], lengths)
    firsts = np.repeat(offsets[:-1], lengths)
    rebased = edge_ptr[firsts + within] - edge_ptr[firsts]
    return array(TYPECODE, rebased.tobytes()), cuts.tolist()


def csr_induce_many(
    parent: "BipartiteGraph",
    left_arena,
    left_offsets,
    right_arena,
    right_offsets,
) -> "list[BipartiteGraph]":
    """Induced subgraphs of ``parent``, one per unit, built in one pass.

    Unit ``k`` keeps the left ids ``left_arena[left_offsets[k] :
    left_offsets[k+1]]`` and the right ids sliced the same way from
    ``right_arena``, each sorted and duplicate-free; its subgraph is
    relabelled to ``0..n-1`` per side, order-preserving, so the rows
    come out sorted on both sides.

    Vectorised over every unit at once: one gather concatenates the
    parent rows of every kept left id, and one ``searchsorted`` into the
    right arena — each id offset by ``unit * stride``, which makes the
    per-unit sorted runs one globally sorted array — tests membership
    and yields each surviving entry's arena column.  A stable argsort of
    the columns lays out every right CSR.  Each unit then only slices
    its four buffers.  No edge list, no re-sort of the parent, no
    re-validation.
    """
    left, right = as_int64(left_arena), as_int64(right_arena)
    left_off, right_off = as_int64(left_offsets), as_int64(right_offsets)
    n_units = left_off.size - 1
    if n_units <= 0:
        return []
    n_left, n_right = np.diff(left_off), np.diff(right_off)
    stride = parent.n_right + 1
    unit_base = np.arange(n_units, dtype=np.int64) * stride
    right_keys = np.repeat(unit_base, n_right) + right
    indptr = as_int64(parent._indptr_l)
    starts = indptr[left]
    values, offsets = gather_slices(
        as_int64(parent._indices_l), starts, indptr[left + 1] - starts
    )
    row = np.repeat(np.arange(left.size, dtype=np.int64), np.diff(offsets))
    row_unit = np.repeat(np.arange(n_units, dtype=np.int64), n_left)
    keys = unit_base[row_unit[row]] + values
    col = np.searchsorted(right_keys, keys)
    member = col < right_keys.size
    member[member] = right_keys[col[member]] == keys[member]
    row, col = row[member], col[member]
    unit = row_unit[row]
    # Every induced edge as arena coordinates (row, col): rows ascend,
    # and columns ascend within a row; units own contiguous edge blocks
    # in both the left order and the (stable) column order.
    edge_ptr_l = exclusive_cumsum(np.bincount(row, minlength=left.size))
    edge_ptr_r = exclusive_cumsum(np.bincount(col, minlength=right.size))
    indices_l = array(TYPECODE, (col - right_off[unit]).tobytes())
    indices_r = array(
        TYPECODE, (row - left_off[unit])[np.argsort(col, kind="stable")].tobytes()
    )
    indptr_l, cuts_l = _unit_pointers(edge_ptr_l, left_off)
    indptr_r, cuts_r = _unit_pointers(edge_ptr_r, right_off)
    edge_cuts = edge_ptr_l[left_off].tolist()
    sides = zip(n_left.tolist(), n_right.tolist())
    graphs = []
    for k, (size_l, size_r) in enumerate(sides):
        first, last = edge_cuts[k], edge_cuts[k + 1]
        graphs.append(BipartiteGraph.from_csr(
            size_l,
            size_r,
            indptr_l[cuts_l[k] : cuts_l[k + 1]],
            indices_l[first:last],
            indptr_r[cuts_r[k] : cuts_r[k + 1]],
            indices_r[first:last],
        ))
    return graphs


def _rebuild_from_buffers(
    n_left: int,
    n_right: int,
    indptr_l: bytes,
    indices_l: bytes,
    indptr_r: bytes,
    indices_r: bytes,
) -> "BipartiteGraph":
    """Unpickle entry point: rebuild the graph from raw CSR bytes."""
    buffers = []
    for blob in (indptr_l, indices_l, indptr_r, indices_r):
        buf = _empty()
        buf.frombytes(blob)
        buffers.append(buf)
    return BipartiteGraph.from_csr(n_left, n_right, *buffers)


class BipartiteGraph:
    """An immutable bipartite graph ``G(U, V, E)`` over CSR buffers.

    Parameters
    ----------
    n_left, n_right:
        Number of vertices on each side.  Vertices are ``0..n_left-1`` on
        the left and ``0..n_right-1`` on the right (separate id spaces).
    edges:
        Iterable of ``(u, v)`` pairs with ``u`` a left id and ``v`` a right
        id.  Duplicates are removed; self-checks reject out-of-range ids.

    Examples
    --------
    >>> g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    >>> g.num_edges
    4
    >>> g.neighbors_left(0)
    (0, 1)
    >>> g.edge_at(g.edge_index(1, 0))
    (1, 0)
    """

    __slots__ = (
        "n_left",
        "n_right",
        "_indptr_l",
        "_indices_l",
        "_indptr_r",
        "_indices_r",
        "_deg_l",
        "_deg_r",
        "_fingerprint",
        # Exact per-unit zigzag totals, created lazily by
        # repro.core.zigzag: dies with this graph object, never pickled.
        "_zigzag_totals",
    )

    def __init__(self, n_left: int, n_right: int, edges: Iterable[tuple[int, int]]):
        if n_left < 0 or n_right < 0:
            raise ValueError("side sizes must be non-negative")
        self.n_left = n_left
        self.n_right = n_right
        (
            self._indptr_l, self._indices_l, self._indptr_r, self._indices_r
        ) = _build_csr(n_left, n_right, list(edges))
        self._deg_l = None
        self._deg_r = None
        self._fingerprint = None
        self._zigzag_totals = None

    @classmethod
    def from_csr(
        cls,
        n_left: int,
        n_right: int,
        indptr_left,
        indices_left,
        indptr_right,
        indices_right,
    ) -> "BipartiteGraph":
        """Wrap pre-built CSR buffers **without copying or validating**.

        The trusted fast path used by relabeling, pickling, and the
        shared-memory worker attach.  Buffers must be int64 sequences
        (``array('q')``, ``memoryview`` cast to ``'q'``, …) with sorted,
        duplicate-free rows and mutually consistent sides.
        """
        graph = cls.__new__(cls)
        graph.n_left = n_left
        graph.n_right = n_right
        graph._indptr_l = _as_buffer(indptr_left)
        graph._indices_l = _as_buffer(indices_left)
        graph._indptr_r = _as_buffer(indptr_right)
        graph._indices_r = _as_buffer(indices_right)
        graph._deg_l = None
        graph._deg_r = None
        graph._fingerprint = None
        graph._zigzag_totals = None
        return graph

    # ------------------------------------------------------------------
    # CSR buffer access (the layout-aware layers build on these)
    # ------------------------------------------------------------------

    def csr_buffers(self):
        """The four raw buffers ``(indptr_l, indices_l, indptr_r, indices_r)``."""
        return (self._indptr_l, self._indices_l, self._indptr_r, self._indices_r)

    @property
    def nbytes(self) -> int:
        """Total CSR payload in bytes (what a zero-copy ship transfers)."""
        return 8 * (
            len(self._indptr_l)
            + len(self._indices_l)
            + len(self._indptr_r)
            + len(self._indices_r)
        )

    def row_left(self, u: int):
        """``N(u)`` as a slice of the left ``indices`` buffer (sorted)."""
        return self._indices_l[self._indptr_l[u] : self._indptr_l[u + 1]]

    def row_right(self, v: int):
        """``N(v)`` as a slice of the right ``indices`` buffer (sorted)."""
        return self._indices_r[self._indptr_r[v] : self._indptr_r[v + 1]]

    def __reduce__(self):
        """Pickle by buffer: ship raw CSR bytes, skip re-validation."""
        return (
            _rebuild_from_buffers,
            (
                self.n_left,
                self.n_right,
                bytes(self._indptr_l),
                bytes(self._indices_l),
                bytes(self._indptr_r),
                bytes(self._indices_r),
            ),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of (undirected bipartite) edges ``|E|``."""
        return len(self._indices_l)

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(|U|, |V|, |E|)``."""
        return (self.n_left, self.n_right, self.num_edges)

    def neighbors_left(self, u: int) -> tuple[int, ...]:
        """``N(u)`` for a left vertex, as a sorted tuple of right ids."""
        return tuple(self._indices_l[self._indptr_l[u] : self._indptr_l[u + 1]])

    def neighbors_right(self, v: int) -> tuple[int, ...]:
        """``N(v)`` for a right vertex, as a sorted tuple of left ids."""
        return tuple(self._indices_r[self._indptr_r[v] : self._indptr_r[v + 1]])

    def neighbors(self, side: int, vertex: int) -> tuple[int, ...]:
        """Side-generic neighbor accessor (``side`` is LEFT or RIGHT)."""
        if side == LEFT:
            return self.neighbors_left(vertex)
        if side == RIGHT:
            return self.neighbors_right(vertex)
        raise ValueError("side must be LEFT (0) or RIGHT (1)")

    def degree_left(self, u: int) -> int:
        """``d(u)`` for a left vertex (an ``indptr`` difference)."""
        return self._indptr_l[u + 1] - self._indptr_l[u]

    def degree_right(self, v: int) -> int:
        """``d(v)`` for a right vertex (an ``indptr`` difference)."""
        return self._indptr_r[v + 1] - self._indptr_r[v]

    def degrees_left(self) -> list[int]:
        """Degree sequence of the left side (cached ``indptr`` diffs).

        The returned list is the graph's cache — treat it as read-only.
        """
        if self._deg_l is None:
            indptr = self._indptr_l
            self._deg_l = [
                indptr[i + 1] - indptr[i] for i in range(self.n_left)
            ]
        return self._deg_l

    def degrees_right(self) -> list[int]:
        """Degree sequence of the right side (cached ``indptr`` diffs).

        The returned list is the graph's cache — treat it as read-only.
        """
        if self._deg_r is None:
            indptr = self._indptr_r
            self._deg_r = [
                indptr[i + 1] - indptr[i] for i in range(self.n_right)
            ]
        return self._deg_r

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``e(u, v)`` is an edge (binary search, O(log d))."""
        indices = self._indices_l
        lo, hi = self._indptr_l[u], self._indptr_l[u + 1]
        k = bisect_left(indices, v, lo, hi)
        return k < hi and indices[k] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all edges as ``(u, v)`` pairs, sorted by ``(u, v)``.

        The iteration order coincides with the edge-id space: the k-th
        yielded pair is ``self.edge_at(k)``.
        """
        indptr = self._indptr_l
        indices = self._indices_l
        for u in range(self.n_left):
            for k in range(indptr[u], indptr[u + 1]):
                yield (u, indices[k])

    # ------------------------------------------------------------------
    # Edge-id space (left CSR offsets)
    # ------------------------------------------------------------------

    def edge_index(self, u: int, v: int) -> int:
        """The edge id of ``e(u, v)``: its offset in the left CSR.

        Raises :class:`KeyError` when ``(u, v)`` is not an edge.  Ids are
        dense in ``0..num_edges-1`` and ordered by ``(u, v)``.
        """
        indices = self._indices_l
        lo, hi = self._indptr_l[u], self._indptr_l[u + 1]
        k = bisect_left(indices, v, lo, hi)
        if k == hi or indices[k] != v:
            raise KeyError(f"({u}, {v}) is not an edge")
        return k

    def edge_at(self, edge_id: int) -> tuple[int, int]:
        """The ``(u, v)`` pair of an edge id (inverse of :meth:`edge_index`)."""
        if not (0 <= edge_id < self.num_edges):
            raise IndexError(f"edge id {edge_id} out of range [0, {self.num_edges})")
        u = bisect_right(self._indptr_l, edge_id) - 1
        # Rows may be empty: bisect can land on a run of equal indptr
        # values; the owning row is the last one starting at or before k.
        while self._indptr_l[u + 1] <= edge_id:  # pragma: no cover - safety
            u += 1
        return (u, self._indices_l[edge_id])

    def edges_in_range(self, start: int, stop: int) -> list[tuple[int, int]]:
        """Edges with ids in ``[start, stop)`` as ``(u, v)`` pairs, id order.

        Equivalent to ``[self.edge_at(k) for k in range(start, stop)]``
        but walks the left CSR once instead of bisecting per edge, so a
        cluster shard can rebuild its root-edge range in O(range size).
        Raises :class:`IndexError` when ``start < 0``, ``stop`` exceeds
        ``num_edges``, or ``start > stop`` — silently clamping would let
        a mis-cut shard range drop edges from an exact count. A valid
        empty range (``start == stop``) yields ``[]``.
        """
        if start < 0 or stop > self.num_edges or start > stop:
            raise IndexError(
                f"edge-id range [{start}, {stop}) out of bounds "
                f"for {self.num_edges} edges"
            )
        if start == stop:
            return []
        indptr = self._indptr_l
        indices = self._indices_l
        u = bisect_right(indptr, start) - 1
        pairs = []
        for k in range(start, stop):
            while indptr[u + 1] <= k:
                u += 1
            pairs.append((u, indices[k]))
        return pairs

    # ------------------------------------------------------------------
    # Ordering-neighbor queries (Section 2)
    # ------------------------------------------------------------------

    def higher_neighbors_of_right(self, v: int, u: int) -> tuple[int, ...]:
        """``N^{>u}(v)``: left neighbors of ``v`` with id greater than ``u``.

        Assumes the graph is degree-ordered, so integer comparison is the
        degree ordering ``<_d``.  One binary search over the CSR row.
        """
        indices = self._indices_r
        lo, hi = self._indptr_r[v], self._indptr_r[v + 1]
        return tuple(indices[bisect_right(indices, u, lo, hi) : hi])

    def higher_neighbors_of_left(self, u: int, v: int) -> tuple[int, ...]:
        """``N^{>v}(u)``: right neighbors of ``u`` with id greater than ``v``."""
        indices = self._indices_l
        lo, hi = self._indptr_l[u], self._indptr_l[u + 1]
        return tuple(indices[bisect_right(indices, v, lo, hi) : hi])

    def common_neighbors_of_left(self, vertices: Iterable[int]) -> set[int]:
        """``N(S)`` for a set ``S`` of left vertices (right-side ids)."""
        from repro.graph.intersect import common_neighborhood

        rows = [self.row_left(u) for u in vertices]
        if not rows:
            raise ValueError("common neighborhood of an empty set is undefined")
        return set(common_neighborhood(rows))

    def common_neighbors_of_right(self, vertices: Iterable[int]) -> set[int]:
        """``N(S)`` for a set ``S`` of right vertices (left-side ids)."""
        from repro.graph.intersect import common_neighborhood

        rows = [self.row_right(v) for v in vertices]
        if not rows:
            raise ValueError("common neighborhood of an empty set is undefined")
        return set(common_neighborhood(rows))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def degree_ordered(self) -> "tuple[BipartiteGraph, list[int], list[int]]":
        """Relabel both sides by the degree ordering ``<_d``.

        Returns ``(graph, left_map, right_map)`` where ``left_map[old] =
        new`` (and similarly for the right side).  In the result, vertex
        ids increase with (degree, old id), so ``a < b`` implies
        ``d(a) <= d(b)`` — the property all counting algorithms rely on.

        Delegates to :mod:`repro.graph.ordering`, which permutes the CSR
        buffers directly instead of rebuilding from an edge list.
        """
        from repro.graph.ordering import degree_ordered

        return degree_ordered(self)

    def is_degree_ordered(self) -> bool:
        """True iff ids on both sides are non-decreasing in degree."""
        deg_l = self.degrees_left()
        deg_r = self.degrees_right()
        left_ok = all(deg_l[i] <= deg_l[i + 1] for i in range(self.n_left - 1))
        right_ok = all(deg_r[i] <= deg_r[i + 1] for i in range(self.n_right - 1))
        return left_ok and right_ok

    def swap_sides(self) -> "BipartiteGraph":
        """Return the graph with left and right sides exchanged.

        With CSR storage this is a zero-copy exchange of the two buffer
        pairs — O(1) instead of an O(E log E) rebuild.
        """
        return BipartiteGraph.from_csr(
            self.n_right,
            self.n_left,
            self._indptr_r,
            self._indices_r,
            self._indptr_l,
            self._indices_l,
        )

    def induced_subgraph(
        self, left_vertices: Iterable[int], right_vertices: Iterable[int]
    ) -> "tuple[BipartiteGraph, list[int], list[int]]":
        """Subgraph induced by vertex subsets, with compact relabeling.

        Returns ``(graph, left_ids, right_ids)`` where ``left_ids[new] =
        old`` (and similarly on the right).  The relative order of ids is
        preserved, so a degree-*ordered* parent does **not** guarantee a
        degree-ordered child (degrees change); callers that need the
        ordering re-apply :meth:`degree_ordered`.

        Delegates to :func:`csr_induce` after normalising the id sets.
        """
        left_ids = sorted(set(left_vertices))
        right_ids = sorted(set(right_vertices))
        return (csr_induce(self, left_ids, right_ids), left_ids, right_ids)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|U|={self.n_left}, |V|={self.n_right}, "
            f"|E|={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_left == other.n_left
            and self.n_right == other.n_right
            and bytes(self._indptr_l) == bytes(other._indptr_l)
            and bytes(self._indices_l) == bytes(other._indices_l)
        )

    def content_fingerprint(self) -> str:
        """A stable hex digest of the graph's content, cached per instance.

        Computed over exactly the fields :meth:`__eq__` compares — the side
        sizes and the **left** CSR buffers (the right CSR is a derived
        re-indexing of the same edge set, so including it would only make
        the digest sensitive to representation, not content).  Two graphs
        compare equal iff their fingerprints match, and the fingerprint
        survives :meth:`__reduce__` round-trips and :meth:`from_csr`
        re-wrapping (``memoryview`` vs ``array`` storage digests the same
        bytes).  The service layer keys result caches by this digest.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"{self.n_left}:{self.n_right}:".encode())
            digest.update(bytes(self._indptr_l))
            digest.update(bytes(self._indices_l))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __hash__(self) -> int:
        # Derived from the content fingerprint so hash, equality, and the
        # service-layer cache key can never disagree about graph identity.
        return int(self.content_fingerprint()[:16], 16)
