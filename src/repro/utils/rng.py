"""Deterministic random number helpers.

Every stochastic component of the library (generators, samplers,
estimators) accepts either an integer seed or a ready-made
:class:`numpy.random.Generator`; this module centralises the coercion so
experiments are reproducible bit-for-bit from a single seed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["as_generator", "as_seed_sequence", "spawn", "spawn_sequences"]

SeedLike = "int | None | np.random.Generator"


def as_generator(seed: "int | None | np.random.Generator") -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a fresh OS-seeded generator; an existing generator is
    returned unchanged so callers can thread one RNG through a pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(
    seed: "int | None | np.random.Generator | np.random.SeedSequence",
) -> np.random.SeedSequence:
    """Coerce ``seed`` into a :class:`numpy.random.SeedSequence`.

    Seed sequences are the root of the estimators' *per-unit stream*
    scheme: spawned children are deterministic functions of the root
    entropy and the child index, independent of how the units are later
    chunked over worker processes — which is what makes parallel sampling
    runs bit-identical to serial ones.

    A :class:`~numpy.random.Generator` is consumed for entropy (advancing
    its state), so threading one generator through successive estimation
    rounds still yields fresh-but-reproducible streams per round.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        entropy = seed.integers(0, 2**63 - 1, size=4, dtype=np.int64)
        return np.random.SeedSequence([int(word) for word in entropy])
    return np.random.SeedSequence(seed)


class _LazyChildren(Sequence):
    """The first ``count`` children of a fresh ``root``, built on access.

    Child ``i`` is the :class:`~numpy.random.SeedSequence` that
    ``root.spawn(count)[i]`` would be — same entropy, spawn key
    ``root.spawn_key + (i,)`` and pool size — so its streams are
    identical; a caller that reads a few children of a large count pays
    for those few only.
    """

    def __init__(self, root: np.random.SeedSequence, count: int):
        self._root, self._count = root, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> np.random.SeedSequence:
        if not 0 <= index < self._count:
            raise IndexError("child index out of range")
        root = self._root
        return np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (index,), pool_size=root.pool_size
        )


def spawn_sequences(
    seed: "int | None | np.random.Generator | np.random.SeedSequence",
    count: int,
) -> "Sequence[np.random.SeedSequence]":
    """Spawn ``count`` independent child seed sequences from ``seed``.

    Child ``i`` depends only on the root entropy and ``i``, so the
    mapping ``unit -> stream`` survives any chunking or process fan-out.
    The children are small picklable objects, cheap to ship in worker
    payloads.

    A root made here from an int, ``None`` or a generator is private, so
    its children are built lazily on indexing.  A caller-supplied
    :class:`~numpy.random.SeedSequence` goes through its own ``spawn``,
    which advances its spawn counter (read-only from outside), so a
    second call on it yields fresh children as ``spawn`` promises.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(count)
    return _LazyChildren(as_seed_sequence(seed), count)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used by multi-run experiments (e.g. the variance study of Fig. 10) so
    each run is independent yet reproducible.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
