"""Fault injection for :class:`repro.PersistentShardExecutor`.

The healthy-path contract lives in ``tests/test_persistent_executor.py``;
this file breaks the pool on purpose and checks the documented recovery
behaviour:

* a worker SIGKILLed mid-shard is respawned and its shard replayed,
  once, with the final merged state identical to an undisturbed run;
* a worker whose post-collect rebuild fails exits after shipping its
  state, and the next submission respawns it;
* a worker that keeps dying on the same shard raises
  :class:`ShardExecutionError` instead of looping forever;
* a worker that hangs (alive but silent past ``heartbeat_timeout``)
  raises a clean :class:`ShardExecutionError` rather than deadlocking;
* a worker whose pass raises surfaces the traceback in a typed error;
* the submission's shared-memory block is unlinked on *every* exit path
  -- success, worker error, and ``KeyboardInterrupt`` -- verified by
  scanning ``/dev/shm`` directly.

Every scenario needs real worker processes, so the whole file is
skipped where ``fork`` is unavailable.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from functools import partial

import pytest

from repro import (
    EdgeStream,
    EstimateMaxCover,
    PersistentShardExecutor,
    ShardExecutionError,
    StreamRunner,
    planted_cover,
)
from repro.sketch.serialize import state_difference

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection needs the fork start method",
)

M, N, K, ALPHA = 60, 120, 4, 3.0
FACTORY = partial(EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7)

# Generous for a loaded single-core CI box: no passing path ever waits
# this out (crashes are detected by liveness polling, not the timeout),
# so the margin is free.  The hang test pins its own short timeout.
HEARTBEAT = 30.0

_FLAG_ENV = "REPRO_TEST_KILL_FLAG"


class _KillOnceAlgo(EstimateMaxCover):
    """SIGKILLs its own process on the first ``process_batch`` anywhere.

    The first worker to atomically create the flag file dies before
    touching its shard; every later call (other workers, the respawned
    replacement) sees the flag and processes normally.  State-wise this
    class is exactly ``EstimateMaxCover``.
    """

    def process_batch(self, set_ids, elements):
        flag = os.environ.get(_FLAG_ENV)
        if flag:
            try:
                fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return super().process_batch(set_ids, elements)


class _KillAlwaysAlgo(EstimateMaxCover):
    """Dies on every ``process_batch`` -- replay can never succeed."""

    def process_batch(self, set_ids, elements):
        os.kill(os.getpid(), signal.SIGKILL)


class _HangAlgo(EstimateMaxCover):
    """Sleeps through ``process_batch``: alive, but never a heartbeat."""

    def process_batch(self, set_ids, elements):
        time.sleep(600.0)


_COORDINATOR = os.getpid()
_WORKER_BUILDS = 0


def _build_once_per_worker(**params):
    """``EstimateMaxCover``, but a worker process's second build raises.

    The coordinator (this test process) always builds; a forked worker
    inherits a zero count, so its start-up build succeeds and the
    rebuild after its first ``collect`` fails.
    """
    global _WORKER_BUILDS
    if os.getpid() != _COORDINATOR:
        _WORKER_BUILDS += 1
        if _WORKER_BUILDS > 1:
            raise RuntimeError("injected rebuild failure")
    return EstimateMaxCover(**params)


class _RaisingAlgo(EstimateMaxCover):
    """Raises from its pass -- the worker survives and reports it."""

    def process_batch(self, set_ids, elements):
        raise RuntimeError("injected shard failure")


@pytest.fixture(scope="module")
def stream() -> EdgeStream:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=5)
    return EdgeStream.from_system(workload.system, order="random", seed=2)


@pytest.fixture(scope="module")
def reference(stream) -> float:
    algo = FACTORY()
    StreamRunner(path="scalar").run(algo, stream)
    return algo.estimate()


def _shm_segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except OSError:  # pragma: no cover - non-POSIX shm layout
        return set()


class TestCrashRecovery:
    def test_killed_worker_replayed_with_identical_state(
        self, stream, reference, tmp_path, monkeypatch
    ):
        """One worker SIGKILLed mid-shard: the pool respawns it, replays
        the shard, and the merged answer is bit-identical to a healthy
        run (replay starts from the respawned worker's fresh state)."""
        monkeypatch.setenv(_FLAG_ENV, str(tmp_path / "kill.flag"))
        factory = partial(
            _KillOnceAlgo, m=M, n=N, k=K, alpha=ALPHA, seed=7
        )
        before = _shm_segments()
        with PersistentShardExecutor(
            factory,
            workers=2,
            chunk_size=128,
            dispatch="shared_memory",
            heartbeat_timeout=HEARTBEAT,
        ) as pool:
            merged, report = pool.run(stream)
        assert (tmp_path / "kill.flag").exists(), "no worker was killed"
        assert merged.estimate() == reference
        assert report.tokens == len(stream)
        assert _shm_segments() <= before

        healthy = FACTORY()
        StreamRunner(path="scalar").run(healthy, stream)
        assert state_difference(
            merged.state_arrays(), healthy.state_arrays()
        ) is None

    def test_pool_reusable_after_recovery(
        self, stream, reference, tmp_path, monkeypatch
    ):
        """The respawned worker is a first-class pool member: the next
        submission through the same pool is still correct."""
        monkeypatch.setenv(_FLAG_ENV, str(tmp_path / "kill.flag"))
        factory = partial(
            _KillOnceAlgo, m=M, n=N, k=K, alpha=ALPHA, seed=7
        )
        with PersistentShardExecutor(
            factory, workers=2, chunk_size=128, heartbeat_timeout=HEARTBEAT
        ) as pool:
            first, _ = pool.run(stream)
            second, _ = pool.run(stream)
        assert first.estimate() == reference
        assert second.estimate() == reference

    def test_repeated_death_gives_up(self, stream):
        """A shard that kills every worker sent at it fails after one
        replay with a typed error, not an infinite respawn loop."""
        factory = partial(
            _KillAlwaysAlgo, m=M, n=N, k=K, alpha=ALPHA, seed=7
        )
        before = _shm_segments()
        pool = PersistentShardExecutor(
            factory,
            workers=2,
            chunk_size=128,
            dispatch="shared_memory",
            heartbeat_timeout=HEARTBEAT,
        )
        try:
            with pytest.raises(ShardExecutionError, match="died twice"):
                pool.run(stream)
        finally:
            pool.close()
        assert _shm_segments() <= before


    def test_failed_rebuild_is_respawned(self, stream, reference):
        """The state blob leaves before the rebuild, so a failing
        rebuild costs the collect nothing; the worker exits, and the
        next submission respawns it and answers exactly."""
        factory = partial(
            _build_once_per_worker, m=M, n=N, k=K, alpha=ALPHA, seed=7
        )
        with PersistentShardExecutor(
            factory, workers=2, chunk_size=128, heartbeat_timeout=HEARTBEAT
        ) as pool:
            first, _ = pool.run(stream)
            for handle in pool._workers:
                handle.process.join(timeout=HEARTBEAT)
                assert handle.process.exitcode not in (None, 0)
            second, _ = pool.run(stream)
        assert first.estimate() == reference
        assert second.estimate() == reference
        assert state_difference(
            first.state_arrays(), second.state_arrays(), order_free=()
        ) is None


class TestHangDetection:
    def test_silent_worker_raises_heartbeat_error(self, stream):
        """A worker stuck inside its pass (alive, no beats) trips the
        heartbeat timeout with a clean error; the hung process is
        terminated by the teardown rather than leaking."""
        factory = partial(_HangAlgo, m=M, n=N, k=K, alpha=ALPHA, seed=7)
        before = _shm_segments()
        pool = PersistentShardExecutor(
            factory,
            workers=2,
            chunk_size=128,
            dispatch="shared_memory",
            heartbeat_timeout=2.0,
        )
        try:
            start = time.monotonic()
            with pytest.raises(ShardExecutionError, match="heartbeat"):
                pool.run(stream)
            # Detection is prompt: roughly the timeout, not minutes.
            assert time.monotonic() - start < 30.0
        finally:
            pool.close()
        assert not pool.running
        assert _shm_segments() <= before

    def test_worker_exception_surfaces_traceback(self, stream):
        factory = partial(_RaisingAlgo, m=M, n=N, k=K, alpha=ALPHA, seed=7)
        pool = PersistentShardExecutor(
            factory, workers=2, chunk_size=128, heartbeat_timeout=HEARTBEAT
        )
        try:
            with pytest.raises(
                ShardExecutionError, match="injected shard failure"
            ):
                pool.run(stream)
        finally:
            pool.close()

    def test_construction_failure_is_typed(self):
        with pytest.raises(
            ShardExecutionError, match="failed to construct"
        ):
            PersistentShardExecutor(
                _boom_factory, workers=2, heartbeat_timeout=HEARTBEAT
            ).start()


def _boom_factory():
    raise RuntimeError("worker construction failed")


class TestSharedMemoryHygiene:
    """``/dev/shm`` must be clean after every exit path."""

    def test_clean_after_success(self, stream, reference):
        before = _shm_segments()
        with PersistentShardExecutor(
            FACTORY,
            workers=2,
            chunk_size=128,
            dispatch="shared_memory",
            heartbeat_timeout=HEARTBEAT,
        ) as pool:
            merged, _ = pool.run(stream)
            # Released as soon as collect returns, not only at close.
            assert _shm_segments() <= before
        assert merged.estimate() == reference
        assert _shm_segments() <= before

    def test_clean_after_worker_error(self, stream):
        factory = partial(_RaisingAlgo, m=M, n=N, k=K, alpha=ALPHA, seed=7)
        before = _shm_segments()
        with PersistentShardExecutor(
            factory,
            workers=2,
            chunk_size=128,
            dispatch="shared_memory",
            heartbeat_timeout=HEARTBEAT,
        ) as pool:
            with pytest.raises(ShardExecutionError):
                pool.run(stream)
        assert _shm_segments() <= before

    def test_clean_after_keyboard_interrupt(self, stream):
        """Ctrl-C between submit and collect: the context manager's
        close path must still unlink the submission's block."""
        before = _shm_segments()
        with pytest.raises(KeyboardInterrupt):
            with PersistentShardExecutor(
                FACTORY,
                workers=2,
                chunk_size=128,
                dispatch="shared_memory",
                heartbeat_timeout=HEARTBEAT,
            ) as pool:
                pool.submit(stream)
                assert _shm_segments() > before  # block exists mid-flight
                raise KeyboardInterrupt
        assert not pool.running
        assert _shm_segments() <= before

    def test_clean_after_abandoned_submit_and_close(self, stream):
        """close() with a never-collected submission releases it."""
        before = _shm_segments()
        pool = PersistentShardExecutor(
            FACTORY,
            workers=2,
            chunk_size=128,
            dispatch="shared_memory",
            heartbeat_timeout=HEARTBEAT,
        )
        pool.submit(stream)
        pool.close()
        assert _shm_segments() <= before
