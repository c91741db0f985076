"""Process-parallel execution of edge-rooted traversals.

EPivoter roots one independent search at every edge of the degree-ordered
graph, so the enumeration tree is embarrassingly parallel at the root
level: partition the root edges, run one traversal per partition in a
worker process, and sum the partial results.  Because every biclique is
represented by exactly one leaf under exactly one root (Theorem 3.5),
the partial counts add without overlap — the same argument that powers
the hybrid algorithm's ``left_region`` split.

This module is engine-agnostic: it knows how to weigh root edges and cut
them into contiguous ranges (:func:`weighted_ranges`, the one
partitioner shared by worker processes, cluster shards and the zigzag
unit fan-out), drive a :class:`concurrent.futures.ProcessPoolExecutor`,
and merge partial results (exact-integer :class:`BicliqueCounts` matrices or
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
suite), the bytes shipped, and per-worker warm-up time.  The pickle
fallback is taken automatically when a shared-memory segment cannot be
created (e.g. a platform without a usable ``/dev/shm``).

A resident :class:`GraphPool` whose worker process dies (OOM kill,
signal) is restarted once per failing ``map()`` with the same
initializer arguments and the map is rerun; chunk workers are pure, so
the rerun is exact (``parallel.pool_restarts`` counts these).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.graph.bigraph import BipartiteGraph
from repro.graph.intersect import as_int64

if TYPE_CHECKING:  # imported for annotations only
    from repro.core.counts import BicliqueCounts
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "RANGES_PER_WORKER",
    "resolve_workers",
    "root_edge_weights",
    "weighted_ranges",
    "run_chunked",
    "GraphPool",
    "PoolClosed",
    "worker_graph",
    "worker_cache",
    "worker_warmup_seconds",
    "split_worker_results",
    "merge_counts",
    "merge_local_counts",
]

T = TypeVar("T")
R = TypeVar("R")

#: Ranges cut per worker process (or per cluster shard).  More ranges
#: than workers lets the pool rebalance when one range turns out heavier
#: than its static weight suggested, and lets a dead shard's work
#: re-scatter across every survivor in balanced pieces.
RANGES_PER_WORKER = 4

#: How often (seconds) a map still waiting on its futures re-checks
#: whether the executor broke underneath it (see :func:`_map_on`).
BROKEN_POLL_SECONDS = 0.5


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
# Root-edge weighing and the one partitioner
# ----------------------------------------------------------------------


def root_edge_weights(
    graph: BipartiteGraph, roots: "Sequence[tuple[int, int]] | None" = None
) -> np.ndarray:
    """Estimated traversal cost of each root edge, aligned with ``roots``.

    The search rooted at ``e(u, v)`` starts from the candidate sets
    ``N^{>u}(v)`` and ``N^{>v}(u)``; the first recursion level inspects
    their full product, so ``|N^{>v}(u)| * |N^{>u}(v)|`` is a cheap
    degree-based proxy for subtree cost (the same quantity the hybrid
    partitioner sums per vertex in Definition 5.1).  ``roots`` defaults
    to every edge in edge-id order.

    Each factor is a "neighbours strictly greater than" count, i.e. a
    binary search over a sorted CSR row.  Keying every adjacency entry
    as ``row * stride + value`` turns the whole batch into two global
    ``searchsorted`` calls (the offset-keyed membership trick the
    frontier kernels use), so weighing ~E roots costs two vectorised
    passes instead of 2E Python-level bisections.
    """
    indptr_l, indices_l, indptr_r, indices_r = (
        as_int64(buf) for buf in graph.csr_buffers()
    )
    stride = max(graph.n_left, graph.n_right, 1) + 1
    rows_l = np.repeat(np.arange(graph.n_left, dtype=np.int64), np.diff(indptr_l))
    rows_r = np.repeat(np.arange(graph.n_right, dtype=np.int64), np.diff(indptr_r))
    if roots is None:
        us, vs = rows_l, indices_l
    else:
        pairs = np.asarray(roots, dtype=np.int64).reshape(-1, 2)
        us, vs = pairs[:, 0], pairs[:, 1]
    keyed_l = rows_l * stride + indices_l
    keyed_r = rows_r * stride + indices_r
    # |N^{>v}(u)|: entries of u's row past v, via one keyed search.
    hi_l = indptr_l[us + 1] - np.searchsorted(keyed_l, us * stride + vs, side="right")
    hi_r = indptr_r[vs + 1] - np.searchsorted(keyed_r, vs * stride + us, side="right")
    return hi_l * hi_r


def weighted_ranges(
    weights: "Sequence[int] | np.ndarray", n_ranges: int
) -> "list[tuple[int, int, int]]":
    """Cut ``range(len(weights))`` into contiguous near-equal-weight runs.

    The one partitioner of every fan-out: EPivoter's root-edge chunks
    (worker processes), the coordinator's shard ranges, and the zigzag
    estimators' unit chunks (unit weights).  Every biclique lives under
    exactly one root edge (Theorem 3.5), so *any* partition of the roots
    sums to the exact count; contiguous runs keep each chunk's roots in
    degree order, so neighbouring roots share a chunk.

    Every weight is floored at 1 so zero-weight tails still spread.
    Returns ``(start, stop, weight)`` triples covering ``[0, len)`` in
    order, every range non-empty (``n_ranges`` is clamped to
    ``[1, len]``), each weighing less than ``total / n + max weight``.
    Deterministic: a pure function of ``weights`` and ``n_ranges``.
    """
    n_items = len(weights)
    if n_items == 0:
        return []
    n_ranges = max(1, min(n_ranges, n_items))
    prefix = np.cumsum(np.maximum(np.asarray(weights, dtype=np.int64), 1))
    total = int(prefix[-1])
    cuts = [0]
    for k in range(1, n_ranges):
        # First prefix reaching k/n of the total (ceil keeps it integer).
        cut = int(np.searchsorted(prefix, -(-total * k // n_ranges))) + 1
        # Keep every range non-empty: at least one item behind this
        # cut, and enough items ahead for the remaining ranges.
        cuts.append(max(cuts[-1] + 1, min(cut, n_items - (n_ranges - k))))
    cuts.append(n_items)
    return [
        (start, stop, int(prefix[stop - 1]) - (int(prefix[start - 1]) if start else 0))
        for start, stop in zip(cuts, cuts[1:])
    ]


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
    # The executor stops the workers of a broken pool with SIGTERM.  A
    # server forks them while it routes SIGTERM to KeyboardInterrupt,
    # which a worker busy on a task would return as the task's error and
    # keep running, so the executor's join of it never returns.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
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
        self.spec = self._try_shm(graph) or ("pickle", graph)
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
        except Exception:  # no usable /dev/shm: pickle fallback
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


class PoolClosed(RuntimeError):
    """A :class:`GraphPool` was closed before or while a map was submitted.

    The service closes a graph version's pool when a PATCH retires that
    version, so a query admitted on the old version can find it closed;
    the caller reruns in-process.  Maps already submitted when the pool
    closes run to completion.
    """


def _map_on(
    pool: ProcessPoolExecutor, worker: Callable[[T], R], payloads: Sequence[T]
) -> list[R]:
    """``pool.map`` that cannot wait forever on a broken executor.

    Before Python 3.12 the executor marks itself broken and fails its
    pending futures without the lock ``submit`` holds, so a submit that
    races a worker's death can leave its future pending for good.  A
    map still waiting once the executor is broken raises
    :class:`BrokenProcessPool` itself.  As in ``pool.map``, a failing
    payload's exception is raised and the unfinished ones are cancelled.
    A submit to an executor that was shut down under the map (its
    :class:`GraphPool` closed) raises :class:`PoolClosed`.
    """
    try:
        futures = [pool.submit(worker, payload) for payload in payloads]
    except BrokenProcessPool:
        raise
    except RuntimeError as exc:  # "cannot schedule new futures after shutdown"
        raise PoolClosed("GraphPool closed during a map") from exc
    pending = futures
    while pending:
        done, pending = wait(pending, BROKEN_POLL_SECONDS, FIRST_EXCEPTION)
        failed = [f for f in futures if f in done and f.exception() is not None]
        if failed:
            # A broken executor fails its own futures; cancelling them
            # under it would only race that.
            if not pool._broken:
                for future in pending:
                    future.cancel()
            raise failed[0].exception()
        if pending and pool._broken:
            raise BrokenProcessPool(pool._broken)
    return [future.result() for future in futures]


class GraphPool:
    """A process pool whose workers share one shipped graph across calls.

    :func:`run_chunked` opens and closes one of these per invocation;
    phased engines hold one open across *several* ``map()`` calls — the
    zigzag estimators run a totals pass and a sampling pass against the
    same pool, so the graph ships once for both and the per-worker
    :func:`worker_cache` (holding built ``LocalSubgraph`` + ``ZigzagDP``
    state for the current call) survives between the phases.  The
    service executor keeps one open per resident graph for all of its
    exact counts and estimates.

    The pool is a context manager; :meth:`close` (or ``__exit__``)
    shuts the executor down and releases the shared-memory segment.
    A worker that dies mid-life breaks the executor; :meth:`map`
    restarts it once over the still-live shipment and reruns the map.
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
        self._obs = obs
        self._lock = threading.Lock()
        self._shipment = _GraphShipment(graph, obs)
        self._pool = self._executor()

    def _executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_init_worker,
            initargs=(self._shipment.spec,),
        )

    def map(self, worker: Callable[[T], R], payloads: Sequence[T]) -> list[R]:
        """Map ``worker`` over ``payloads`` on the pool's processes.

        On :class:`BrokenProcessPool` (a worker process died) the
        executor is replaced once — same initializer arguments, so the
        shared-memory segment, which the parent still owns, is simply
        re-attached — and the map reruns in full.  A second break
        propagates.  A closed pool raises :class:`PoolClosed`.
        """
        pool = self._pool
        if pool is None:
            raise PoolClosed("GraphPool is closed")
        try:
            return _map_on(pool, worker, payloads)
        except BrokenProcessPool:
            with self._lock:
                # Concurrent maps all see the break; restart only once.
                if self._pool is pool:
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = self._executor()
                    if self._obs is not None and self._obs.enabled:
                        self._obs.incr("parallel.pool_restarts")
                pool = self._pool
            if pool is None:
                raise PoolClosed("GraphPool is closed")
            return _map_on(pool, worker, payloads)

    @property
    def closed(self) -> bool:
        return self._pool is None

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()
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
    graph: BipartiteGraph,
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
    pool's lifetime.
    """
    payloads = list(payloads)
    if pool is not None and len(payloads) > 1:
        if obs is not None and obs.enabled:
            obs.incr("parallel.pool_reuses")
        return pool.map(worker, payloads)
    if workers <= 1 or len(payloads) <= 1:
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
    with GraphPool(graph, min(workers, len(payloads)), obs) as pool:
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
