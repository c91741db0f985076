"""Process-parallel execution of edge-rooted traversals.

EPivoter roots one independent search at every edge of the degree-ordered
graph, so the enumeration tree is embarrassingly parallel at the root
level: partition the root edges, run one traversal per partition in a
worker process, and sum the partial results.  Because every biclique is
represented by exactly one leaf under exactly one root (Theorem 3.5),
the partial counts add without overlap — the same argument that powers
the hybrid algorithm's ``left_region`` split.

This module is engine-agnostic: it knows how to weigh and chunk root
edges, drive a :class:`concurrent.futures.ProcessPoolExecutor`, and merge
partial results (exact-integer :class:`BicliqueCounts` matrices or
per-vertex local count vectors).  The traversal workers themselves live
next to the engines (e.g. :mod:`repro.core.epivoter`) so they stay
picklable module-level functions.

Graph shipping
--------------
The shared graph travels to each worker **once per pool**, not once per
chunk.  :func:`run_chunked` takes the graph separately from the chunk
payloads and publishes its CSR buffers through the pool initializer:

* **shared memory** (default when :mod:`multiprocessing.shared_memory`
  is usable): the parent copies the four CSR buffers into one segment;
  each worker maps the segment and wraps zero-copy ``memoryview`` rows
  with :meth:`BipartiteGraph.from_csr`.  Bytes cross the process
  boundary once *in total*, regardless of worker or chunk count.
* **pickle-by-buffer** fallback: the graph rides in the initializer
  arguments and is unpickled once per worker (``__reduce__`` ships raw
  CSR bytes, no re-sort/re-validate).

Chunk workers fetch the graph with :func:`worker_graph` and may memoise
derived state (e.g. a built engine) in :func:`worker_cache`, which lives
for the pool's lifetime.  ``obs`` counters record how many ships
happened (``parallel.graph_ships`` — asserted to be 1 by the test
suite), the bytes shipped, and per-worker warm-up time.

Set ``REPRO_PARALLEL_SHIP=pickle`` to force the fallback (e.g. on
platforms with a broken ``/dev/shm``).
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.graph.bigraph import BipartiteGraph
from repro.graph.intersect import as_int64

if TYPE_CHECKING:  # imported for annotations only
    from repro.core.counts import BicliqueCounts
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "resolve_workers",
    "root_edge_weight",
    "root_edge_weights",
    "chunk_root_edges",
    "split_evenly",
    "run_chunked",
    "GraphPool",
    "worker_graph",
    "worker_cache",
    "worker_warmup_seconds",
    "split_worker_results",
    "merge_counts",
    "merge_local_counts",
]

T = TypeVar("T")
R = TypeVar("R")

#: Chunks handed to the pool per worker.  More chunks than workers lets the
#: executor rebalance dynamically when one chunk turns out heavier than its
#: static weight estimate suggested.
CHUNKS_PER_WORKER = 4

#: ``auto`` ships through shared memory when available, ``pickle`` forces
#: the initargs fallback.
_SHIP_MODE_ENV = "REPRO_PARALLEL_SHIP"


def resolve_workers(workers: "int | None") -> int:
    """Normalise a ``workers`` argument to a concrete process count.

    ``None`` and ``1`` mean serial (the exact code path a single process
    would run); ``0`` means "one per CPU"; any other positive integer is
    taken literally.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ValueError("workers must be None or a non-negative integer")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# ----------------------------------------------------------------------
# Root-edge weighing and chunking
# ----------------------------------------------------------------------


def root_edge_weight(graph: BipartiteGraph, u: int, v: int) -> int:
    """Estimated traversal cost of the search rooted at edge ``e(u, v)``.

    The root's candidate sets are ``N^{>u}(v)`` and ``N^{>v}(u)``; the
    first recursion level inspects their full product, so the product of
    their sizes is a cheap degree-based proxy for subtree cost (the same
    quantity the hybrid partitioner sums per vertex in Definition 5.1).
    Pure binary searches over the CSR rows — nothing is materialised.
    """
    return graph.num_higher_neighbors_of_right(v, u) * graph.num_higher_neighbors_of_left(
        u, v
    )


def _root_edge_weights(
    graph: BipartiteGraph, roots: Sequence[tuple[int, int]]
) -> "dict[tuple[int, int], int]":
    """All root weights at once: one batched searchsorted per side.

    The per-edge weight is the product of two "neighbours strictly
    greater than" counts, each a binary search over a sorted CSR row.
    Keying every adjacency entry as ``row * stride + value`` turns the
    whole batch into two global ``searchsorted`` calls (the same
    offset-keyed membership trick the frontier kernels use), so weighing
    the ~E roots of a full count costs two vectorised passes instead of
    2E Python-level bisections.
    """
    indptr_l, indices_l, indptr_r, indices_r = (
        as_int64(buf) for buf in graph.csr_buffers()
    )
    stride = max(graph.n_left, graph.n_right, 1) + 1
    us = np.fromiter((e[0] for e in roots), dtype=np.int64, count=len(roots))
    vs = np.fromiter((e[1] for e in roots), dtype=np.int64, count=len(roots))
    keyed_l = (
        np.repeat(np.arange(graph.n_left, dtype=np.int64), np.diff(indptr_l))
        * stride
        + indices_l
    )
    keyed_r = (
        np.repeat(np.arange(graph.n_right, dtype=np.int64), np.diff(indptr_r))
        * stride
        + indices_r
    )
    # |N^{>v}(u)|: entries of u's row past v, via one keyed search.
    hi_l = indptr_l[us + 1] - np.searchsorted(keyed_l, us * stride + vs, side="right")
    hi_r = indptr_r[vs + 1] - np.searchsorted(keyed_r, vs * stride + us, side="right")
    weights = hi_l * hi_r
    return {edge: int(weights[i]) for i, edge in enumerate(roots)}


def root_edge_weights(
    graph: BipartiteGraph, roots: Sequence[tuple[int, int]]
) -> list[int]:
    """Weights of ``roots`` in order, via the batched keyed-search pass.

    The public face of :func:`_root_edge_weights`: one list entry per
    root, aligned with the input order, so callers that need weights in
    edge-id order (the cluster coordinator's contiguous range
    partitioner) can weigh the whole edge set in two vectorised
    ``searchsorted`` passes instead of ``2E`` scalar bisections.
    """
    roots = list(roots)
    weights = _root_edge_weights(graph, roots)
    return [weights[edge] for edge in roots]


def chunk_root_edges(
    graph: BipartiteGraph,
    roots: Sequence[tuple[int, int]],
    n_chunks: int,
) -> list[list[tuple[int, int]]]:
    """Partition root edges into at most ``n_chunks`` balanced chunks.

    Edges are sorted by estimated cost descending and assigned greedily to
    the least-loaded chunk (LPT scheduling), so the heavy roots — which on
    skewed graphs dominate the runtime — spread across workers instead of
    landing in one.  The assignment is deterministic: ties break on chunk
    index, and the edge order within a chunk is cost-descending.

    Each chunk doubles as the *initial frontier* of one worker's
    traversal: the frontier engine turns the whole chunk into its
    level-0 batch in one shot, so balanced chunks also mean balanced
    first-level arenas.

    Returns only non-empty chunks; their concatenation is a permutation of
    ``roots``.
    """
    roots = list(roots)
    if n_chunks <= 1 or len(roots) <= 1:
        return [roots] if roots else []
    n_chunks = min(n_chunks, len(roots))
    # Weigh all roots in one vectorised pass; the old per-comparison
    # recomputation made the LPT pass the dominant cost on large graphs.
    weights = _root_edge_weights(graph, roots)
    weighted = sorted(roots, key=lambda e: (-weights[e], e))
    chunks: list[list[tuple[int, int]]] = [[] for _ in range(n_chunks)]
    heap = [(0, index) for index in range(n_chunks)]
    heapq.heapify(heap)
    for edge in weighted:
        load, index = heapq.heappop(heap)
        chunks[index].append(edge)
        # +1 keeps zero-weight edges moving round-robin instead of piling
        # into the first chunk.
        heapq.heappush(heap, (load + weights[edge] + 1, index))
    return [chunk for chunk in chunks if chunk]


def split_evenly(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Partition ``items`` into at most ``n_chunks`` contiguous, balanced runs.

    Order-preserving (their concatenation equals ``items``) and
    deterministic; used where per-item costs are roughly uniform or
    unknown upfront — e.g. the zigzag estimators' unit fan-out, whose
    per-unit results are merged back in unit order.  Returns only
    non-empty chunks.
    """
    items = list(items)
    if n_chunks < 1:
        raise ValueError("n_chunks must be positive")
    if not items:
        return []
    n_chunks = min(n_chunks, len(items))
    base, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for index in range(n_chunks):
        stop = start + base + (1 if index < extra else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


# ----------------------------------------------------------------------
# Worker-side graph residency
# ----------------------------------------------------------------------

#: The pool-shared graph, installed once per worker by the initializer
#: (or by :func:`run_chunked` itself on the in-process path).
_WORKER_GRAPH: "BipartiteGraph | None" = None
#: Keeps the shared-memory segment mapped for the worker's lifetime.
_WORKER_SHM = None
#: Pool-lifetime memo for state derived from the graph (built engines…).
_WORKER_CACHE: dict = {}
#: Seconds this worker spent attaching/rebuilding the graph (plus any
#: engine warm-up registered with :func:`add_worker_warmup`).
_WORKER_WARMUP = 0.0


def worker_graph() -> BipartiteGraph:
    """The graph shipped to this worker's pool (raises if none)."""
    if _WORKER_GRAPH is None:
        raise RuntimeError(
            "no shared graph installed; run_chunked(..., graph=...) ships one"
        )
    return _WORKER_GRAPH


def worker_cache() -> dict:
    """A per-worker, per-pool dict for memoising graph-derived state."""
    return _WORKER_CACHE


def worker_warmup_seconds() -> float:
    """Time this worker spent building its shared state (attach + warm-up)."""
    return _WORKER_WARMUP


def add_worker_warmup(seconds: float) -> None:
    """Fold engine-construction time into this worker's warm-up total."""
    global _WORKER_WARMUP
    _WORKER_WARMUP += seconds


def _install_graph(graph: "BipartiteGraph | None", shm=None) -> None:
    global _WORKER_GRAPH, _WORKER_SHM, _WORKER_CACHE, _WORKER_WARMUP
    _WORKER_GRAPH = graph
    _WORKER_SHM = shm
    _WORKER_CACHE = {}
    _WORKER_WARMUP = 0.0


def _attach_shm(name: str):
    """Attach to the parent's shared-memory segment without tracking it.

    Before 3.13 (``track=False``), merely *attaching* registers the
    segment with the resource tracker; with forked workers the tracker
    process is shared with the parent, so per-child registrations would
    race each other (and steal the parent's own registration) at
    unregister time.  The parent owns the segment and unlinks it, so
    child-side registration is suppressed entirely.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pre-3.13
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _register_skipping_shm(path, rtype):
        if rtype != "shared_memory":
            original_register(path, rtype)

    resource_tracker.register = _register_skipping_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _init_worker(spec) -> None:
    """Pool initializer: attach the shipped graph exactly once per worker."""
    start = time.perf_counter()
    mode = spec[0]
    if mode == "shm":
        _, name, n_left, n_right, num_edges = spec
        shm = _attach_shm(name)
        rows = memoryview(shm.buf).cast("q")
        bounds = (n_left + 1, num_edges, n_right + 1, num_edges)
        buffers = []
        offset = 0
        for length in bounds:
            buffers.append(rows[offset : offset + length])
            offset += length
        graph = BipartiteGraph.from_csr(n_left, n_right, *buffers)
        _install_graph(graph, shm)
    else:  # "pickle": the graph itself rode in the initargs
        _install_graph(spec[1])
    add_worker_warmup(time.perf_counter() - start)


class _GraphShipment:
    """Parent-side handle for one pool's shipped graph."""

    def __init__(self, graph: BipartiteGraph, obs: "MetricsRegistry | None"):
        self.shm = None
        mode = os.environ.get(_SHIP_MODE_ENV, "auto")
        self.spec = None
        if mode != "pickle":
            self.spec = self._try_shm(graph)
        if self.spec is None:
            self.spec = ("pickle", graph)
        if obs is not None and obs.enabled:
            obs.incr("parallel.graph_ships")
            obs.incr("parallel.graph_ship_bytes", graph.nbytes)
            obs.incr(f"parallel.graph_ships_{self.spec[0]}")

    def _try_shm(self, graph: BipartiteGraph):
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(
                create=True, size=max(8, graph.nbytes)
            )
        except Exception:  # pragma: no cover - no /dev/shm
            return None
        offset = 0
        for buffer in graph.csr_buffers():
            blob = bytes(buffer)
            shm.buf[offset : offset + len(blob)] = blob
            offset += len(blob)
        self.shm = shm
        return ("shm", shm.name, graph.n_left, graph.n_right, graph.num_edges)

    def close(self) -> None:
        if self.shm is not None:
            self.shm.close()
            self.shm.unlink()
            self.shm = None


class GraphPool:
    """A process pool whose workers share one shipped graph across calls.

    :func:`run_chunked` opens and closes one of these per invocation;
    phased engines hold one open across *several* ``map()`` calls — the
    zigzag estimators run a totals pass and a sampling pass against the
    same pool, so the graph ships once for both and the per-worker
    :func:`worker_cache` (holding built ``LocalSubgraph`` + ``ZigzagDP``
    state) survives between the phases.

    The pool is a context manager; :meth:`close` (or ``__exit__``)
    shuts the executor down and releases the shared-memory segment.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        max_workers: int,
        obs: "MetricsRegistry | None" = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self._shipment = _GraphShipment(graph, obs)
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(self._shipment.spec,),
        )

    def map(self, worker: Callable[[T], R], payloads: Sequence[T]) -> list[R]:
        """Map ``worker`` over ``payloads`` on the pool's processes."""
        if self._pool is None:
            raise RuntimeError("GraphPool is closed")
        return list(self._pool.map(worker, payloads))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._shipment is not None:
            self._shipment.close()
            self._shipment = None

    def reship(
        self, graph: BipartiteGraph, obs: "MetricsRegistry | None" = None
    ) -> "GraphPool":
        """Retire this pool and open a fresh one shipping ``graph``.

        The compaction path of the mutation subsystem: a compacted CSR
        base invalidates the buffers resident in the worker processes,
        so the old pool (and its shared-memory segment) is closed and
        the new graph pays exactly one fresh ship.  Returns the new
        pool; ``self`` is unusable afterwards.
        """
        if obs is not None and obs.enabled:
            obs.incr("parallel.graph_reships")
        max_workers = self.max_workers
        self.close()
        return GraphPool(graph, max_workers, obs)

    def __enter__(self) -> "GraphPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def run_chunked(
    worker: Callable[[T], R],
    payloads: Sequence[T],
    workers: int,
    graph: "BipartiteGraph | None" = None,
    obs: "MetricsRegistry | None" = None,
    pool: "GraphPool | None" = None,
) -> list[R]:
    """Map ``worker`` over ``payloads``, in processes when it pays off.

    With one worker or one payload the map runs in-process (identical to
    the serial path, no pickling).  ``worker`` must be a module-level
    function and the payloads picklable.

    ``graph`` is the state shared by every payload.  It is **not** part
    of the payloads: on the process path it ships once per pool (shared
    memory, or pickle-by-buffer per worker) and workers retrieve it with
    :func:`worker_graph`; on the in-process path it is installed directly
    with zero copies.  ``obs`` receives the ship counters.

    ``pool`` is a long-lived :class:`GraphPool` whose shipped graph is
    ``graph``: the map runs on it and the pool stays open afterwards, so
    a resident graph serving many requests (the service executor) pays
    for its ship exactly once per registration.  The caller owns the
    pool's lifetime; ``graph`` is only used for the single-payload
    in-process shortcut, which must traverse the same graph.
    """
    payloads = list(payloads)
    if pool is not None and len(payloads) > 1:
        if obs is not None and obs.enabled:
            obs.incr("parallel.pool_reuses")
        return pool.map(worker, payloads)
    if workers <= 1 or len(payloads) <= 1:
        if graph is None:
            return [worker(payload) for payload in payloads]
        previous = (_WORKER_GRAPH, _WORKER_SHM, _WORKER_CACHE, _WORKER_WARMUP)
        _install_graph(graph)
        try:
            return [worker(payload) for payload in payloads]
        finally:
            globals().update(
                _WORKER_GRAPH=previous[0],
                _WORKER_SHM=previous[1],
                _WORKER_CACHE=previous[2],
                _WORKER_WARMUP=previous[3],
            )
    max_workers = min(workers, len(payloads))
    if graph is None:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(worker, payloads))
    with GraphPool(graph, max_workers, obs) as pool:
        return pool.map(worker, payloads)


# ----------------------------------------------------------------------
# Result merging
# ----------------------------------------------------------------------


def split_worker_results(
    parts: "Sequence[tuple[R, dict | None]]",
    obs: "MetricsRegistry | None" = None,
    sampling_stats=None,
) -> list[R]:
    """Unzip ``(result, stats)`` worker returns; record stats into ``obs``.

    Chunk workers return their payload's result plus an optional stat
    dict (wall time, roots handled, counters).  The stats ride back with
    the results and merge here into a single registry: each worker dict
    is kept verbatim for skew inspection (``registry.workers``) and its
    counters fold into the global totals, so the merged counters of an
    ``N``-worker run equal a serial run's (the chunks partition the
    search tree).  With ``obs`` absent or disabled the stats are dropped.

    ``sampling_stats`` (a :class:`repro.core.zigzag.SamplingStats`)
    receives the ``"sampling"`` partial each estimator chunk worker ships
    in its stat dict, folded in via :meth:`SamplingStats.merge`; the
    partial is popped before the dict is recorded so reports stay
    JSON-serialisable.
    """
    results: list[R] = []
    track = obs is not None and obs.enabled
    for index, (result, stats) in enumerate(parts):
        results.append(result)
        if stats is not None:
            stats = dict(stats)
            partial = stats.pop("sampling", None)
            if sampling_stats is not None and partial is not None:
                sampling_stats.merge(partial)
            if track:
                stats.setdefault("worker", index)
                obs.record_worker(stats)
    return results


def merge_counts(parts: Iterable[BicliqueCounts]) -> BicliqueCounts:
    """Cell-wise sum of partial count matrices (exact for exact inputs).

    Uses :meth:`BicliqueCounts.merged_with`, so integer cells stay Python
    integers — parallel counting loses no exactness.
    """
    iterator = iter(parts)
    try:
        merged = next(iterator)
    except StopIteration:
        raise ValueError("merge_counts needs at least one partial result")
    for part in iterator:
        merged = merged.merged_with(part)
    return merged


def merge_local_counts(
    parts: Iterable[dict[tuple[int, int], tuple[list[int], list[int]]]],
) -> dict[tuple[int, int], tuple[list[int], list[int]]]:
    """Element-wise sum of per-vertex local count partials.

    Every part must map the same (p, q) pairs to ``(left, right)`` count
    vectors of identical lengths (one entry per vertex of the shared
    graph).
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge_local_counts needs at least one partial result")
    merged = {
        pair: ([0] * len(left), [0] * len(right))
        for pair, (left, right) in parts[0].items()
    }
    for part in parts:
        if part.keys() != merged.keys():
            raise ValueError("partial local counts disagree on the (p, q) pairs")
        for pair, (left, right) in part.items():
            merged_left, merged_right = merged[pair]
            for index, value in enumerate(left):
                merged_left[index] += value
            for index, value in enumerate(right):
                merged_right[index] += value
    return merged
