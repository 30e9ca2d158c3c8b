"""The shard executor: a resident worker pool over mergeable sketches.

The paper's algorithms are built from *linear* (mergeable) sketches, and
mergeability is what makes the general streaming model
distribution-friendly: split the edge sequence into contiguous shards,
run an identically-seeded copy of the algorithm on each shard in its own
process, ship the state arrays back, and merge in shard order.  Because
every ``merge`` in this package reconciles non-linear state on the
combined token schedule, the merged coordinator state is the
single-pass state, byte for byte (``tests/test_shard_equivalence.py``
and ``tests/test_persistent_executor.py`` check it against the scalar
reference).

:class:`PersistentShardExecutor` keeps its pool alive between passes:

* **Workers are spawned once.**  Each worker builds its
  identically-seeded algorithm at startup and keeps it resident.
  ``factory`` (not an instance) is the unit of distribution, so every
  worker has the same hash seeds -- the precondition every ``merge``
  validates.
* **Submissions ship descriptors, not data.**  ``submit(stream)``
  sends each worker one shard descriptor of about 100 bytes, whatever
  the stream's length.  On ``shared_memory`` dispatch the coordinator
  copies the stream's two int64 columns into one
  ``multiprocessing.shared_memory`` block and each worker receives
  ``(block name, [lo, hi))``.  When the stream is a memory-mapped
  binary file (``EdgeStream.load_binary(..., mmap=True)``), even that
  copy is skipped: workers receive the file path and page the columns
  straight from the OS cache (``mmap`` dispatch).
* **State ships once, on collect.**  ``collect()`` asks every worker
  for its flat ``.npz`` state blob (:func:`~repro.sketch.serialize.dumps_state`,
  no code pickling), merges the shards left to right in stream order,
  and each worker resets by dropping its algorithm and calling
  ``factory()`` again once the blob is sent.  A rebuild costs a few
  percent of loading a snapshot of the fresh state back (the blob of a
  fresh reference estimator is tens of megabytes), and the old and the
  new estimator are never resident together.

Lifecycle management:

* **Context manager** -- ``with PersistentShardExecutor(factory) as
  pool:`` guarantees worker shutdown and shared-memory unlink on every
  exit path, including ``KeyboardInterrupt``.
* **Heartbeat** -- workers emit a beat per processed chunk; a worker
  silent for ``heartbeat_timeout`` seconds while work is outstanding
  raises :class:`ShardExecutionError` (the pool is then closed and the
  hung process terminated).
* **Crash recovery** -- a worker that dies mid-shard (killed, OOM,
  segfault) is respawned and its shard replayed, once; a second death
  on the same shard raises :class:`ShardExecutionError`.
* **Idle shutdown** -- with ``idle_timeout`` set, a pool that sits idle
  is reaped in the background and transparently respawned by the next
  ``submit``.

Usage::

    factory = partial(EstimateMaxCover, m=150, n=300, k=6, alpha=3.0, seed=7)
    with PersistentShardExecutor(factory, workers=4) as pool:
        for stream in streams:          # workers built once
            algo, report = pool.run(stream)
            print(algo.estimate(), report.tokens_per_sec)

The ``serial`` backend runs the identical submit/collect protocol
in-process (resident worker objects, the same shard descriptors,
rebuild resets, wire-format state shipping) and is the deterministic
test harness.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.base import RunReport, check_positive_int
from repro.engine.profile import PROFILER
from repro.sketch.serialize import dumps_state, loads_state

__all__ = [
    "ShardExecutionError",
    "ShardTiming",
    "ShardedRunReport",
    "PersistentShardExecutor",
    "compute_shard_bounds",
    "resolve_dispatch",
    "dispatch_payload_bytes",
]


class ShardExecutionError(RuntimeError):
    """A shard could not be completed by the persistent worker pool.

    Raised when a worker crashes twice on the same shard, hangs past
    the heartbeat timeout, or reports an exception from its pass.  The
    executor is left in a closed-pending state: the submission's shared
    memory is released and the pool can be reused for a new submission.
    """


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
    (``seconds`` is submit-to-merged wall clock, so ``tokens_per_sec``
    reflects realised parallel throughput); ``shards`` breaks the pass
    down.  ``dispatch`` records which data plane carried the shards
    (``"shared_memory"`` or ``"mmap"``) and ``dispatch_bytes`` how many
    bytes of descriptor were shipped to workers in total -- O(workers),
    whatever the stream's length.
    """

    workers: int = 1
    merge_seconds: float = 0.0
    shards: tuple[ShardTiming, ...] = field(default_factory=tuple)
    dispatch: str = "shared_memory"
    dispatch_bytes: int = 0


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


def resolve_dispatch(stream, dispatch: str) -> str:
    """The concrete dispatch path for one submission.

    ``"auto"`` picks ``"mmap"`` for a file-backed memory-mapped stream
    and ``"shared_memory"`` otherwise, on either backend; explicit
    values force a path.  ``"mmap"`` requires a stream loaded with
    ``EdgeStream.load_binary(..., mmap=True)``.
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
    return "mmap" if mmap_backed else "shared_memory"


def dispatch_payload_bytes(sources) -> int:
    """Total pickled bytes of the shard descriptors shipped to workers."""
    return sum(len(pickle.dumps(source)) for source in sources)


def _resolve_shard(source):
    """Materialise a shard descriptor into ``(set_ids, elements, shm)``.

    ``source`` is one of::

        ("shm", name, total, lo, hi)         # shared-memory block + range
        ("mmap", path, lo, hi)               # binary file + range

    The returned ``shm`` handle (shared-memory path only) must stay open
    while the columns are in use and be closed by the caller afterwards.
    """
    kind = source[0]
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


def _ingest_shard(algo, source, chunk_size, beat=None):
    """Feed one shard's edges to ``algo``; ``(tokens, chunks, seconds)``.

    ``beat`` is called after every chunk (the process worker's
    heartbeat).
    """
    set_ids, elements, shm = _resolve_shard(source)
    try:
        tokens = len(set_ids)
        start = time.perf_counter()
        chunks = 0
        for lo in range(0, tokens, chunk_size):
            algo.process_batch(
                set_ids[lo : lo + chunk_size],
                elements[lo : lo + chunk_size],
            )
            chunks += 1
            if beat is not None:
                beat()
        return tokens, chunks, time.perf_counter() - start
    finally:
        if shm is not None:
            # Drop every view into the block before closing the mapping.
            del set_ids, elements
            shm.close()


def _persistent_worker(index, factory, chunk_size, tasks, results):
    """Worker main loop: build, then serve shard/collect tasks.

    Module-level so it pickles under any start method.  After every
    ``collect`` the worker ships its state blob, drops its algorithm
    and builds a fresh one with ``factory()``, so submissions never see
    each other's state.  Every processed chunk emits a heartbeat.
    """
    try:
        algo = factory()
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        results.put(("error", index, (-1, -1, traceback.format_exc())))
        return
    results.put(("ready", index, None))
    while True:
        message = tasks.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "shard":
            _, epoch, shard_index, source = message
            try:
                tokens, chunks, seconds = _ingest_shard(
                    algo,
                    source,
                    chunk_size,
                    lambda: results.put(("beat", index, epoch)),
                )
                results.put(
                    ("done", index, (epoch, shard_index, tokens, chunks, seconds))
                )
            except BaseException:  # noqa: BLE001
                results.put(
                    ("error", index, (epoch, shard_index, traceback.format_exc()))
                )
        elif kind == "collect":
            _, epoch = message
            try:
                blob = dumps_state(algo)
            except BaseException:  # noqa: BLE001
                results.put(("error", index, (epoch, -1, traceback.format_exc())))
                continue
            # Send first, then rebuild: the old algorithm is freed before
            # the new one is built, and the rebuild overlaps the merge.  A
            # failed rebuild ends the process; the next submission
            # respawns it.
            algo = None
            results.put(("state", index, (epoch, blob)))
            del blob
            algo = factory()


class _SerialWorker:
    """In-process stand-in for a worker process (deterministic harness).

    Same resident-state semantics: the algorithm is built once, shards
    accumulate into it, and ``collect`` ships the wire-format blob, then
    rebuilds the algorithm with ``factory()``.
    """

    def __init__(self, factory, chunk_size):
        self._factory = factory
        self._chunk_size = chunk_size
        self._algo = factory()

    def run_shard(self, source):
        return _ingest_shard(self._algo, source, self._chunk_size)

    def collect(self) -> bytes:
        blob = dumps_state(self._algo)
        self._algo = None
        self._algo = self._factory()
        return blob


class _WorkerHandle:
    """Coordinator-side bookkeeping for one worker process."""

    __slots__ = ("index", "process", "tasks")

    def __init__(self, index, process, tasks):
        self.index = index
        self.process = process
        self.tasks = tasks


@dataclass
class _PendingEpoch:
    """One submitted-but-uncollected stream pass."""

    epoch: int
    total: int
    dispatch: str
    started: float
    sources: list = field(default_factory=list)
    dispatch_bytes: int = 0
    shm: object = None
    replayed: set = field(default_factory=set)

    def release(self) -> None:
        """Unlink the submission's shared-memory block, exactly once."""
        shm, self.shm = self.shm, None
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class PersistentShardExecutor:
    """A resident shard-worker pool with submit/collect semantics.

    Parameters
    ----------
    factory:
        Zero-argument callable building identically-parameterised
        algorithm instances (same seeds every call); must be picklable
        on the process backend -- ``functools.partial(EstimateMaxCover,
        m=..., seed=...)`` is the canonical form.  Called once per
        worker at pool startup, and again after every ``collect``.
    workers:
        Pool size, and therefore shards per submission.  ``"auto"``
        sizes to ``os.cpu_count()``.
    chunk_size:
        Edges per ``process_batch`` call inside each worker.
    backend:
        ``"process"`` (real worker processes) or ``"serial"`` (the same
        protocol in-process; deterministic tests / no-pool fallback).
    dispatch:
        Shard data plane: ``auto | shared_memory | mmap``.  ``"auto"``
        (default) picks ``"mmap"`` for a file-backed memory-mapped
        stream and ``"shared_memory"`` otherwise, on both backends;
        ``"mmap"`` requires a stream loaded with
        ``EdgeStream.load_binary(..., mmap=True)``.
    heartbeat_timeout:
        Seconds of worker silence (no chunk heartbeat, no result) while
        work is outstanding before the pool declares the worker hung
        and raises :class:`ShardExecutionError`.
    idle_timeout:
        Optional seconds of pool inactivity after which workers are
        shut down in the background; the next ``submit`` transparently
        respawns them.  ``None`` (default) keeps workers until
        :meth:`close`.
    """

    BACKENDS = ("process", "serial")
    DISPATCH = ("auto", "shared_memory", "mmap")

    def __init__(
        self,
        factory,
        workers: int | str = 2,
        chunk_size: int = 4096,
        backend: str = "process",
        dispatch: str = "auto",
        heartbeat_timeout: float = 30.0,
        idle_timeout: float | None = None,
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
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be > 0 or None, got {idle_timeout}"
            )
        self.factory = factory
        self.backend = backend
        self.dispatch = dispatch
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.idle_timeout = idle_timeout
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._workers: list = []
        self._results = None
        self._pending: _PendingEpoch | None = None
        self._epoch = 0
        self._closed = False
        self._lock = threading.Lock()
        self._idle_timer: threading.Timer | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the pool currently has live workers."""
        if self.backend == "serial":
            return bool(self._workers)
        return any(
            h is not None and h.process.is_alive() for h in self._workers
        )

    def start(self) -> "PersistentShardExecutor":
        """Spawn (or respawn) the workers; idempotent.  Returns self."""
        if self._closed:
            raise RuntimeError("executor is closed")
        with self._lock:
            self._start_locked()
        return self

    def _start_locked(self) -> None:
        if self.backend == "serial":
            if not self._workers:
                self._workers = [
                    _SerialWorker(self.factory, self.chunk_size)
                    for _ in range(self.workers)
                ]
            return
        if self._results is None:
            self._results = self._ctx.Queue()
        try:
            # Start the shared-memory resource tracker *before* forking
            # workers: children then inherit it, their attach-side
            # registrations are set-level no-ops on the same tracker,
            # and the coordinator's unlink clears the name for good.  A
            # worker forked without a running tracker would spawn its
            # own and warn about "leaked" segments at shutdown.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError):  # pragma: no cover
            pass
        fresh = []
        if not self._workers:
            self._workers = [None] * self.workers
        for i in range(self.workers):
            handle = self._workers[i]
            if handle is None or not handle.process.is_alive():
                self._workers[i] = self._spawn(i)
                fresh.append(i)
        if fresh:
            self._await_ready(set(fresh))

    def _spawn(self, index: int) -> _WorkerHandle:
        tasks = self._ctx.Queue()
        process = self._ctx.Process(
            target=_persistent_worker,
            args=(
                index,
                self.factory,
                self.chunk_size,
                tasks,
                self._results,
            ),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        process.start()
        return _WorkerHandle(index, process, tasks)

    def _await_ready(self, fresh: set) -> None:
        """Block until every freshly spawned worker reports ready."""
        deadline = time.monotonic() + self.heartbeat_timeout
        while fresh:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardExecutionError(
                    f"workers {sorted(fresh)} failed to start within "
                    f"{self.heartbeat_timeout:.1f}s"
                )
            try:
                kind, index, payload = self._results.get(timeout=remaining)
            except queue.Empty:
                continue
            if kind == "ready":
                fresh.discard(index)
            elif kind == "error":
                _, _, tb = payload
                raise ShardExecutionError(
                    f"worker {index} failed to construct its algorithm:\n{tb}"
                )
            # Stale beats/results from a previous pool generation are
            # dropped on the floor here.

    def close(self) -> None:
        """Stop the workers and release every submission resource.

        Safe to call on any path -- success, error, KeyboardInterrupt --
        and more than once.  After ``close`` the executor cannot be
        reused.
        """
        with self._lock:
            self._cancel_idle_timer()
            pending, self._pending = self._pending, None
            if pending is not None:
                pending.release()
            self._stop_workers_locked()
            self._closed = True

    def __enter__(self) -> "PersistentShardExecutor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass

    def _stop_workers_locked(self) -> None:
        if self.backend == "serial":
            self._workers = []
            return
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.tasks.put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - queue gone
                pass
        for handle in self._workers:
            if handle is None:
                continue
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - stubborn
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.tasks.close()
            handle.tasks.cancel_join_thread()
        self._workers = []
        if self._results is not None:
            self._results.close()
            self._results.cancel_join_thread()
            self._results = None

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _arm_idle_timer(self) -> None:
        if self.idle_timeout is None or self._closed:
            return
        self._cancel_idle_timer()
        timer = threading.Timer(self.idle_timeout, self._idle_shutdown)
        timer.daemon = True
        self._idle_timer = timer
        timer.start()

    def _idle_shutdown(self) -> None:
        with self._lock:
            if self._pending is None and not self._closed:
                self._stop_workers_locked()

    # -- submit / collect ---------------------------------------------------

    def submit(self, stream, boundaries: list[int] | None = None) -> int:
        """Dispatch one stream pass to the pool; returns the epoch id.

        The stream is split into ``workers`` contiguous shards (interior
        ``boundaries`` override the balanced split) and each worker
        receives its shard descriptor immediately; processing overlaps
        with the coordinator.  Exactly one submission may be outstanding
        -- call :meth:`collect` before submitting again.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._pending is not None:
            raise RuntimeError(
                "previous submission not collected; call collect() first"
            )
        with self._lock:
            self._cancel_idle_timer()
            self._start_locked()
        started = time.perf_counter()
        set_ids, elements = _stream_columns(stream)
        total = len(set_ids)
        bounds = compute_shard_bounds(total, self.workers, boundaries)
        dispatch = resolve_dispatch(stream, self.dispatch)
        self._epoch += 1
        pending = _PendingEpoch(
            epoch=self._epoch, total=total, dispatch=dispatch, started=started
        )
        try:
            if dispatch == "shared_memory":
                from multiprocessing import shared_memory

                shm = pending.shm = shared_memory.SharedMemory(
                    create=True, size=max(1, 2 * total * 8)
                )
                block = np.ndarray((2, total), dtype=np.int64, buffer=shm.buf)
                block[0] = set_ids
                block[1] = elements
                del block
                pending.sources = [
                    ("shm", shm.name, total, lo, hi) for lo, hi in bounds
                ]
            else:
                path = stream.source_path
                pending.sources = [("mmap", path, lo, hi) for lo, hi in bounds]
            pending.dispatch_bytes = dispatch_payload_bytes(pending.sources)
            if self.backend == "process":
                for i, source in enumerate(pending.sources):
                    self._workers[i].tasks.put(
                        ("shard", pending.epoch, i, source)
                    )
        except BaseException:
            pending.release()
            raise
        self._pending = pending
        return pending.epoch

    def collect(self):
        """Wait for the outstanding submission; merge and report.

        Returns ``(algo, report)``: the coordinator's merged algorithm
        (bit-identical to a single pass over the submitted stream) and
        a :class:`ShardedRunReport`.  Always releases the submission's
        shared memory, on success and on every failure path.
        """
        pending = self._pending
        if pending is None:
            raise RuntimeError("no outstanding submission to collect")
        try:
            if self.backend == "serial":
                timings, blobs = self._collect_serial(pending)
            else:
                timings, blobs = self._collect_process(pending)
        except BaseException:
            self._pending = None
            pending.release()
            # Worker resident state is now suspect (shards applied but
            # never reset); tear the pool down so the next submit starts
            # from factory-fresh workers.  This also terminates hung
            # processes promptly.
            with self._lock:
                self._stop_workers_locked()
            raise
        self._pending = None
        pending.release()

        merge_start = time.perf_counter()
        merged = None
        for i in range(self.workers):
            shard_algo = loads_state(self.factory(), blobs[i])
            if merged is None:
                merged = shard_algo
            else:
                merged.merge(shard_algo)
        merge_seconds = time.perf_counter() - merge_start
        if PROFILER.enabled:
            PROFILER.add("merge", merge_seconds, max(0, self.workers - 1))

        report = ShardedRunReport(
            tokens=pending.total,
            chunks=sum(t[1] for t in timings.values()),
            seconds=time.perf_counter() - pending.started,
            path="sharded",
            chunk_size=self.chunk_size,
            workers=self.workers,
            merge_seconds=merge_seconds,
            shards=tuple(
                ShardTiming(i, timings[i][0], timings[i][2])
                for i in range(self.workers)
            ),
            dispatch=pending.dispatch,
            dispatch_bytes=pending.dispatch_bytes,
        )
        self._arm_idle_timer()
        return merged, report

    def run(self, stream, boundaries: list[int] | None = None):
        """``submit`` + ``collect`` in one call; returns ``(algo, report)``."""
        self.submit(stream, boundaries)
        return self.collect()

    def _collect_serial(self, pending):
        timings = {}
        blobs = {}
        for i, source in enumerate(pending.sources):
            timings[i] = self._workers[i].run_shard(source)
        for i in range(self.workers):
            blobs[i] = self._workers[i].collect()
        return timings, blobs

    def _collect_process(self, pending):
        timings = self._await_phase(pending, "shard")
        for handle in self._workers:
            handle.tasks.put(("collect", pending.epoch))
        blobs = self._await_phase(pending, "state")
        return timings, blobs

    def _await_phase(self, pending, phase: str) -> dict:
        """Pump the result queue until every shard delivered its payload.

        ``phase`` is ``"shard"`` (awaiting per-shard done messages) or
        ``"state"`` (awaiting collect blobs).  Handles the three failure
        modes: a worker-reported exception raises immediately; a dead
        worker process is respawned and its shard replayed once; a live
        but silent pool past ``heartbeat_timeout`` raises.
        """
        outstanding = set(range(self.workers))
        got: dict = {}
        last_activity = time.monotonic()
        poll = min(0.05, self.heartbeat_timeout / 4)
        while outstanding:
            try:
                kind, index, payload = self._results.get(timeout=poll)
            except queue.Empty:
                crashed = [
                    i
                    for i in outstanding
                    if not self._workers[i].process.is_alive()
                ]
                for i in crashed:
                    self._replay(pending, i, phase)
                if crashed:
                    last_activity = time.monotonic()
                elif time.monotonic() - last_activity > self.heartbeat_timeout:
                    raise ShardExecutionError(
                        f"worker heartbeat lost: shards {sorted(outstanding)} "
                        f"made no progress in {self.heartbeat_timeout:.1f}s "
                        f"(epoch {pending.epoch})"
                    )
                continue
            last_activity = time.monotonic()
            if kind in ("beat", "ready"):
                continue
            if kind == "error":
                epoch, shard_index, tb = payload
                if epoch not in (pending.epoch, -1):
                    continue  # stale message from an aborted epoch
                raise ShardExecutionError(
                    f"shard {shard_index} failed in worker {index} "
                    f"(epoch {epoch}):\n{tb}"
                )
            if kind == "done":
                epoch, shard_index, tokens, chunks, seconds = payload
                if epoch == pending.epoch and phase == "shard":
                    got[shard_index] = (tokens, chunks, seconds)
                    outstanding.discard(shard_index)
            elif kind == "state":
                epoch, blob = payload
                if epoch == pending.epoch and phase == "state":
                    got[index] = blob
                    outstanding.discard(index)
        return got

    def _replay(self, pending, index: int, phase: str) -> None:
        """Respawn a dead worker and replay its shard, at most once."""
        if index in pending.replayed:
            raise ShardExecutionError(
                f"worker {index} died twice on shard {index} "
                f"(epoch {pending.epoch}); giving up"
            )
        pending.replayed.add(index)
        old = self._workers[index]
        old.process.join(timeout=0.5)
        old.tasks.close()
        old.tasks.cancel_join_thread()
        handle = self._spawn(index)
        self._workers[index] = handle
        handle.tasks.put(("shard", pending.epoch, index, pending.sources[index]))
        if phase == "state":
            handle.tasks.put(("collect", pending.epoch))
