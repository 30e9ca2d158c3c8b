"""The per-run sharded executor: a fresh worker pool every ``run`` call.

The paper's algorithms are built from *linear* (mergeable) sketches, and
mergeability is exactly what makes the general streaming model
distribution-friendly: split the edge sequence into contiguous shards,
run an identically-seeded copy of the algorithm on each shard in its own
process, ship the state arrays back, and merge in shard order.  Because
every ``merge`` in this package reconciles non-linear state (candidate
pools, lazily-created per-group sketches) on the combined token schedule,
the merged coordinator state is the single-pass state -- the
shard-equivalence suite (``tests/test_shard_equivalence.py``) checks the
final answers bit-for-bit.

Usage::

    from functools import partial
    from repro import EstimateMaxCover, ShardedStreamRunner

    factory = partial(EstimateMaxCover, m=150, n=300, k=6, alpha=3.0, seed=7)
    runner = ShardedStreamRunner(workers=4)
    algo, report = runner.run(factory, stream)
    print(algo.estimate(), report.tokens_per_sec)

The ``factory`` (not an instance) is the unit of distribution: each
worker builds its own copy with the *same* constructor arguments -- hence
the same hash seeds -- which is the precondition every ``merge`` method
validates.  ``factory`` must be picklable; ``functools.partial`` of the
class is the canonical spell.

Dispatch: what travels *to* a worker is a shard descriptor, not data.
On the ``shared_memory`` path the coordinator copies the stream's two
int64 columns into one ``multiprocessing.shared_memory`` block and each
worker receives only ``(block name, [lo, hi))`` -- O(1) bytes per shard
regardless of stream length.  When the stream is a memory-mapped binary
file (``EdgeStream.load_binary(..., mmap=True)``), even that copy is
skipped: workers receive the file path and page the columns straight
from the OS cache (``mmap`` dispatch).  The legacy ``pickle`` path
(column slices serialised into each payload) is kept both as the
no-shared-memory fallback and as an equivalence baseline.

Worker state travels back through
:func:`~repro.sketch.serialize.dumps_state` /
:func:`~repro.sketch.serialize.loads_state` (flat numpy ``.npz`` blobs,
no code pickling).  The ``serial`` backend runs the same
shard/resolve/ship/merge pipeline in-process -- identical numerics, no
pool -- and is both the deterministic test harness and the fallback when
processes are unavailable.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from repro.base import RunReport, check_positive_int
from repro.engine.profile import PROFILER
from repro.sketch.serialize import dumps_state, loads_state

__all__ = [
    "ShardTiming",
    "ShardedRunReport",
    "ShardedStreamRunner",
    "compute_shard_bounds",
    "resolve_dispatch",
    "dispatch_payload_bytes",
]


@dataclass(frozen=True)
class ShardTiming:
    """Per-shard accounting inside a :class:`ShardedRunReport`.

    Attributes
    ----------
    shard:
        Shard index (shards are contiguous stream ranges, in order).
    tokens:
        Edges the shard processed.
    seconds:
        Wall-clock duration of the shard's pass (excludes shipping).
    """

    shard: int
    tokens: int
    seconds: float


@dataclass(frozen=True)
class ShardedRunReport(RunReport):
    """A :class:`~repro.base.RunReport` plus sharding detail.

    ``tokens``/``chunks``/``seconds`` describe the whole sharded run
    (``seconds`` is end-to-end wall clock, so ``tokens_per_sec`` reflects
    realised parallel throughput); ``shards`` breaks the pass down.
    ``dispatch`` records which data plane carried the shards and
    ``dispatch_bytes`` how many bytes of payload were shipped to workers
    in total -- O(stream) on ``pickle``, O(workers) on
    ``shared_memory``/``mmap``.  ``fallback`` is ``"single_pass"`` when
    the runner skipped the shard pipeline entirely (one effective
    worker, e.g. ``workers="auto"`` on a single-core host) and ``""``
    otherwise.  ``executor`` records the worker-pool lifecycle that
    produced the run: ``"per-run"`` (a fresh pool per ``run`` call,
    :class:`ShardedStreamRunner`) or ``"persistent"`` (a resident pool,
    :class:`~repro.parallel.persistent.PersistentShardExecutor`).
    """

    workers: int = 1
    merge_seconds: float = 0.0
    shards: tuple[ShardTiming, ...] = field(default_factory=tuple)
    dispatch: str = "pickle"
    dispatch_bytes: int = 0
    fallback: str = ""
    executor: str = "per-run"


def compute_shard_bounds(
    total: int, workers: int, boundaries: list[int] | None = None
) -> list[tuple[int, int]]:
    """``[lo, hi)`` token ranges, one per worker, covering ``total``.

    By default the split is balanced-contiguous; explicit interior
    ``boundaries`` (sorted cut indices) override it, which the
    equivalence tests use to probe pathologically uneven splits.  A
    boundary list is rejected unless it yields exactly ``workers``
    contiguous shards that cover ``[0, total)`` -- out-of-range or
    unsorted cuts would silently drop or double-process tokens.
    """
    if boundaries is None:
        return [
            ((i * total) // workers, ((i + 1) * total) // workers)
            for i in range(workers)
        ]
    cuts = [int(b) for b in boundaries]
    if len(cuts) != workers - 1:
        raise ValueError(
            f"boundaries must supply exactly {workers - 1} interior cut "
            f"indices for {workers} shards, got {len(cuts)}: {boundaries}"
        )
    if any(lo > hi for lo, hi in zip(cuts, cuts[1:])):
        raise ValueError(
            f"boundaries must be sorted ascending, got {boundaries}"
        )
    if cuts and (cuts[0] < 0 or cuts[-1] > total):
        raise ValueError(
            f"boundaries must lie in [0, {total}] so the shards cover "
            f"the whole stream, got {boundaries}"
        )
    edges = [0, *cuts, total]
    return list(zip(edges[:-1], edges[1:]))


def resolve_dispatch(stream, dispatch: str, backend: str, workers: int) -> str:
    """The concrete dispatch path for one run.

    ``"auto"`` picks ``"mmap"`` for file-backed memory-mapped streams,
    otherwise ``"shared_memory"`` on a multi-worker process backend and
    ``"pickle"`` elsewhere; explicit values force a path.  ``"mmap"``
    requires a stream loaded with ``EdgeStream.load_binary(..., mmap=True)``.
    """
    mmap_backed = bool(
        getattr(stream, "is_mmap", False)
        and getattr(stream, "source_path", None)
    )
    if dispatch == "mmap" and not mmap_backed:
        raise ValueError(
            "dispatch='mmap' requires a file-backed memory-mapped "
            "stream (EdgeStream.load_binary(path, mmap=True))"
        )
    if dispatch != "auto":
        return dispatch
    if mmap_backed:
        return "mmap"
    if backend == "process" and workers > 1:
        return "shared_memory"
    return "pickle"


def dispatch_payload_bytes(sources) -> int:
    """Total bytes of shard payload shipped to workers.

    O(stream) for ``arrays`` sources (the columns themselves travel),
    O(1) per shard for ``shm``/``mmap`` descriptors.
    """
    return sum(
        s[1].nbytes + s[2].nbytes if s[0] == "arrays" else len(pickle.dumps(s))
        for s in sources
    )


def _resolve_shard(source):
    """Materialise a shard descriptor into ``(set_ids, elements, shm)``.

    ``source`` is one of::

        ("arrays", set_ids, elements)        # pickle dispatch: the data
        ("shm", name, total, lo, hi)         # shared-memory block + range
        ("mmap", path, lo, hi)               # binary file + range

    The returned ``shm`` handle (shared-memory path only) must stay open
    while the columns are in use and be closed by the caller afterwards.
    """
    kind = source[0]
    if kind == "arrays":
        _, set_ids, elements = source
        return set_ids, elements, None
    if kind == "shm":
        _, name, total, lo, hi = source
        from multiprocessing import shared_memory

        # Workers are always children of the coordinator, so attaching
        # re-registers the block with the same resource tracker (a
        # set-level no-op); the coordinator alone unlinks it.
        shm = shared_memory.SharedMemory(name=name)
        columns = np.ndarray((2, total), dtype=np.int64, buffer=shm.buf)
        return columns[0, lo:hi], columns[1, lo:hi], shm
    if kind == "mmap":
        _, path, lo, hi = source
        from repro.streams.io import load_columns

        set_ids, elements, _m, _n = load_columns(path, mmap=True)
        return set_ids[lo:hi], elements[lo:hi], None
    raise ValueError(f"unknown shard source kind {kind!r}")


def _shard_worker(payload):
    """Run one shard; returns ``(index, tokens, chunks, seconds, blob)``.

    Module-level so it pickles under the ``spawn`` start method.  The
    payload carries the algorithm factory plus a shard *descriptor*
    (resolved here, inside the worker); the result carries only the
    state blob, never the object.
    """
    index, factory, source, chunk_size = payload
    set_ids, elements, shm = _resolve_shard(source)
    try:
        algo = factory()
        tokens = len(set_ids)
        start = time.perf_counter()
        chunks = 0
        for lo in range(0, tokens, chunk_size):
            algo.process_batch(
                set_ids[lo : lo + chunk_size],
                elements[lo : lo + chunk_size],
            )
            chunks += 1
        seconds = time.perf_counter() - start
        blob = dumps_state(algo)
    finally:
        if shm is not None:
            # Drop every view into the block before closing the mapping.
            del set_ids, elements
            shm.close()
    return index, tokens, chunks, seconds, blob


def _stream_columns(stream) -> tuple[np.ndarray, np.ndarray]:
    """The stream's ``(set_ids, elements)`` columns as int64 arrays.

    Columnar streams hand back their own columns (zero copies); plain
    iterables are materialised once.
    """
    if hasattr(stream, "as_arrays"):
        set_ids, elements = stream.as_arrays()
        return (
            np.ascontiguousarray(set_ids, dtype=np.int64),
            np.ascontiguousarray(elements, dtype=np.int64),
        )
    edges = list(stream)
    if not edges:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    arr = np.asarray(edges, dtype=np.int64)
    return arr[:, 0].copy(), arr[:, 1].copy()


class ShardedStreamRunner:
    """Partition a stream into contiguous shards and merge the sketches.

    Parameters
    ----------
    workers:
        Number of shards (and, on the ``process`` backend, pool size).
        ``"auto"`` sizes the pool to ``os.cpu_count()``.  One effective
        worker -- ``workers=1`` or ``"auto"`` on a single-core host --
        skips the shard pipeline and runs a plain in-process single
        pass (sharding a stream one way only adds dispatch and
        serialisation overhead); the report records the shortcut in its
        ``fallback`` field.
    chunk_size:
        Edges per ``process_batch`` call inside each shard, same knob as
        :class:`~repro.base.StreamRunner`.
    backend:
        ``"process"`` fans shards to a ``multiprocessing`` pool;
        ``"serial"`` runs the identical shard/resolve/ship/merge
        pipeline in-process (deterministic harness / no-pool fallback).
    dispatch:
        How shard data reaches workers.  ``"auto"`` (default) picks
        ``"mmap"`` for file-backed memory-mapped streams, otherwise
        ``"shared_memory"`` on the process backend and ``"pickle"`` on
        the serial one.  Explicit values force a path (the equivalence
        tests exercise all of them); ``"mmap"`` requires a stream loaded
        with ``EdgeStream.load_binary(..., mmap=True)``.
    """

    BACKENDS = ("process", "serial")
    DISPATCH = ("auto", "pickle", "shared_memory", "mmap")

    def __init__(
        self,
        workers: int | str = 2,
        chunk_size: int = 4096,
        backend: str = "process",
        dispatch: str = "auto",
    ):
        if workers == "auto":
            workers = os.cpu_count() or 1
        self.workers = check_positive_int("workers", workers, auto=True)
        self.chunk_size = check_positive_int("chunk_size", chunk_size)
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {self.BACKENDS}"
            )
        if dispatch not in self.DISPATCH:
            raise ValueError(
                f"unknown dispatch {dispatch!r}; choose from {self.DISPATCH}"
            )
        self.backend = backend
        self.dispatch = dispatch

    def shard_bounds(
        self, total: int, boundaries: list[int] | None = None
    ) -> list[tuple[int, int]]:
        """``[lo, hi)`` token ranges, one per shard, covering ``total``.

        By default the split is balanced-contiguous; explicit interior
        ``boundaries`` (sorted cut indices) override it, which the
        equivalence tests use to probe pathologically uneven splits.
        Boundary lists that would not cover the stream are rejected
        (see :func:`compute_shard_bounds`).
        """
        return compute_shard_bounds(total, self.workers, boundaries)

    def _resolve_dispatch(self, stream) -> str:
        """The concrete dispatch path for this run."""
        return resolve_dispatch(
            stream, self.dispatch, self.backend, self.workers
        )

    def run(self, factory, stream, boundaries: list[int] | None = None):
        """Shard ``stream``, run ``factory()`` per shard, merge, report.

        Returns ``(algo, report)``: the coordinator's merged algorithm
        instance (ready for ``estimate()`` / ``solution()`` / more
        tokens) and a :class:`ShardedRunReport`.

        ``factory`` must build identically-parameterised instances every
        call (same seeds!) and, on the ``process`` backend, be picklable
        -- ``functools.partial(EstimateMaxCover, m=..., seed=...)`` is
        the canonical form.  Shards are merged left-to-right in stream
        order, which the pool-style sketches rely on to reproduce the
        single-pass state exactly.
        """
        start = time.perf_counter()
        set_ids, elements = _stream_columns(stream)
        total = len(set_ids)
        if self.workers == 1 and boundaries is None:
            # One effective worker: sharding adds only dispatch and
            # state-serialisation overhead, so run the pass directly.
            algo = factory()
            pass_start = time.perf_counter()
            chunks = 0
            for lo in range(0, total, self.chunk_size):
                algo.process_batch(
                    set_ids[lo : lo + self.chunk_size],
                    elements[lo : lo + self.chunk_size],
                )
                chunks += 1
            pass_seconds = time.perf_counter() - pass_start
            report = ShardedRunReport(
                tokens=total,
                chunks=chunks,
                seconds=time.perf_counter() - start,
                path="sharded",
                chunk_size=self.chunk_size,
                workers=1,
                merge_seconds=0.0,
                shards=(ShardTiming(0, total, pass_seconds),),
                dispatch="in_process",
                dispatch_bytes=0,
                fallback="single_pass",
            )
            return algo, report
        bounds = self.shard_bounds(total, boundaries)
        dispatch = self._resolve_dispatch(stream)

        shm = None
        try:
            if dispatch == "shared_memory":
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, 2 * total * 8)
                )
                block = np.ndarray((2, total), dtype=np.int64, buffer=shm.buf)
                block[0] = set_ids
                block[1] = elements
                del block
                sources = [
                    ("shm", shm.name, total, lo, hi) for lo, hi in bounds
                ]
            elif dispatch == "mmap":
                path = stream.source_path
                sources = [("mmap", path, lo, hi) for lo, hi in bounds]
            else:
                sources = [
                    ("arrays", set_ids[lo:hi], elements[lo:hi])
                    for lo, hi in bounds
                ]
            dispatch_bytes = dispatch_payload_bytes(sources)
            payloads = [
                (i, factory, source, self.chunk_size)
                for i, source in enumerate(sources)
            ]
            if self.backend == "process" and self.workers > 1:
                methods = multiprocessing.get_all_start_methods()
                method = "fork" if "fork" in methods else None
                ctx = multiprocessing.get_context(method)
                with ctx.Pool(processes=self.workers) as pool:
                    results = pool.map(_shard_worker, payloads)
            else:
                # Same pipeline, in-process: shard descriptors are still
                # resolved by the worker and state still round-trips
                # through the wire format, so both backends (and every
                # dispatch mode) exercise one code path.
                results = [_shard_worker(p) for p in payloads]
        finally:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        results.sort(key=lambda r: r[0])

        merge_start = time.perf_counter()
        merged = None
        timings = []
        chunks = 0
        for index, tokens, shard_chunks, seconds, blob in results:
            shard_algo = loads_state(factory(), blob)
            timings.append(ShardTiming(index, tokens, seconds))
            chunks += shard_chunks
            if merged is None:
                merged = shard_algo
            else:
                merged.merge(shard_algo)
        merge_seconds = time.perf_counter() - merge_start
        if PROFILER.enabled:
            PROFILER.add("merge", merge_seconds, max(0, len(results) - 1))

        report = ShardedRunReport(
            tokens=total,
            chunks=chunks,
            seconds=time.perf_counter() - start,
            path="sharded",
            chunk_size=self.chunk_size,
            workers=self.workers,
            merge_seconds=merge_seconds,
            shards=tuple(timings),
            dispatch=dispatch,
            dispatch_bytes=dispatch_bytes,
        )
        return merged, report
