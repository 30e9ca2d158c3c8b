"""Soak/equivalence battery for :class:`repro.PersistentShardExecutor`.

The persistent pool's contract has two halves, and this file proves
both:

* **Equivalence** -- every ``submit``/``collect`` round trip agrees
  exactly with the scalar single pass, state and estimate, for every
  shard count, arrival order, and uneven split we throw at it.
* **No state leakage** -- workers stay resident across submissions and
  reset after every ``collect`` by rebuilding their algorithm from the
  factory, so running stream B after stream A through the same pool
  yields byte-for-byte the state a fresh pool would have produced for
  B, across many interleavings.

Fault injection (crashes, hangs, shm leaks) lives in
``tests/test_executor_faults.py``; this file assumes healthy workers.
"""

from __future__ import annotations

import hashlib
import time
from functools import partial

import numpy as np
import pytest

from repro import (
    EdgeStream,
    EstimateMaxCover,
    MaxCoverReporter,
    PersistentShardExecutor,
    StreamRunner,
)
from repro.parallel import persistent
from repro.sketch.serialize import ORDER_FREE_KEYS, state_difference
from repro.streams.adversary import noise_first, signal_first

M, N, K, ALPHA = 150, 300, 6, 3.0
SHARD_COUNTS = (1, 2, 3, 5)

ESTIMATOR = partial(EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7)
REPORTER = partial(MaxCoverReporter, m=M, n=N, k=K, alpha=ALPHA, seed=13)


def state_digest(algo) -> str:
    """Canonical sha256 over ``state_arrays`` (order-free where the
    wire format is order-free)."""
    digest = hashlib.sha256()
    state = algo.state_arrays()
    for key in sorted(state):
        array = np.asarray(state[key])
        if key.rsplit("/", 1)[-1] in ORDER_FREE_KEYS:
            array = np.sort(array, axis=None)
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def assert_states_identical(left, right) -> None:
    """Full bit-exact comparison (no order canonicalisation)."""
    assert state_difference(
        left.state_arrays(), right.state_arrays(), order_free=()
    ) is None


@pytest.fixture(scope="module")
def streams(planted_workload) -> dict[str, EdgeStream]:
    return {
        "random": EdgeStream.from_system(
            planted_workload.system, order="random", seed=7
        ),
        "shuffled": EdgeStream.from_system(
            planted_workload.system, order="random", seed=23
        ),
        "noise_first": noise_first(planted_workload, seed=3),
        "signal_first": signal_first(planted_workload, seed=3),
    }


@pytest.fixture(scope="module")
def scalar_reference(streams) -> dict[str, tuple[float, str]]:
    """Single-pass scalar ``(estimate, canonical digest)`` per order."""
    reference = {}
    for name, stream in streams.items():
        algo = ESTIMATOR()
        StreamRunner(path="scalar").run(algo, stream)
        reference[name] = (algo.estimate(), state_digest(algo))
    return reference


class TestEquivalence:
    """One pool run == one single pass, for every configuration."""

    @pytest.mark.parametrize("order", ["random", "noise_first", "signal_first"])
    @pytest.mark.parametrize("workers", SHARD_COUNTS)
    def test_matches_scalar_single_pass(
        self, streams, scalar_reference, order, workers
    ):
        stream = streams[order]
        with PersistentShardExecutor(
            ESTIMATOR, workers=workers, chunk_size=256, backend="serial"
        ) as pool:
            merged, report = pool.run(stream)
        estimate, digest = scalar_reference[order]
        assert merged.estimate() == estimate
        assert state_digest(merged) == digest
        assert report.tokens == len(stream)
        assert report.workers == workers

    @pytest.mark.parametrize(
        "boundaries",
        [[1], [5], [17]],
        ids=["one-edge-head", "tiny-head", "prime-cut"],
    )
    def test_uneven_splits(self, streams, scalar_reference, boundaries):
        stream = streams["random"]
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, chunk_size=256, backend="serial"
        ) as pool:
            merged, _ = pool.run(stream, boundaries=boundaries)
        estimate, digest = scalar_reference["random"]
        assert merged.estimate() == estimate
        assert state_digest(merged) == digest

    def test_reporter_solution_identical(self, streams):
        stream = streams["random"]
        single = REPORTER()
        StreamRunner(path="scalar").run(single, stream)
        with PersistentShardExecutor(
            REPORTER, workers=3, chunk_size=256, backend="serial"
        ) as pool:
            merged, _ = pool.run(stream)
        assert merged.solution() == single.solution()

    def test_empty_stream(self):
        empty = EdgeStream([], m=M, n=N)
        fresh = ESTIMATOR()
        with PersistentShardExecutor(
            ESTIMATOR, workers=3, backend="serial"
        ) as pool:
            merged, report = pool.run(empty)
        assert report.tokens == 0
        assert merged.estimate() == fresh.estimate()


class TestSoak:
    """Repeated submissions through one resident pool: no leakage."""

    def test_many_streams_one_pool(self, streams, scalar_reference):
        """Interleave four arrival orders through a single pool, twice;
        every round must match the fresh-pool answer for that stream."""
        with PersistentShardExecutor(
            ESTIMATOR, workers=3, chunk_size=256, backend="serial"
        ) as pool:
            for _round in range(2):
                for name, stream in streams.items():
                    merged, report = pool.run(stream)
                    estimate, digest = scalar_reference[name]
                    assert merged.estimate() == estimate, name
                    assert state_digest(merged) == digest, name

    def test_repeat_is_bit_stable(self, streams):
        """The same stream submitted N times returns byte-identical
        state every time -- the rebuild leaves no residue."""
        stream = streams["random"]
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, chunk_size=256, backend="serial"
        ) as pool:
            first, _ = pool.run(stream)
            for _ in range(3):
                again, _ = pool.run(stream)
                assert_states_identical(first, again)

    def test_big_stream_then_small_stream(self, streams, scalar_reference):
        """A heavy submission must not bleed into a light one."""
        heavy = streams["noise_first"]
        light = EdgeStream(streams["random"].edges[:7], m=M, n=N)
        light_ref = ESTIMATOR()
        StreamRunner(path="scalar").run(light_ref, light)
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, chunk_size=256, backend="serial"
        ) as pool:
            pool.run(heavy)
            merged, _ = pool.run(light)
        assert merged.estimate() == light_ref.estimate()
        assert state_digest(merged) == state_digest(light_ref)

    def test_collect_rebuilds_instead_of_reloading(
        self, streams, scalar_reference, monkeypatch
    ):
        """Workers reset by calling the factory again: start-up ships no
        snapshot of the fresh state, each worker dumps its state once
        per collect, and only the coordinator's merge loads blobs."""
        dumps, loads = [], []

        def counting(calls, real):
            def wrapper(*args):
                calls.append(args)
                return real(*args)

            return wrapper

        monkeypatch.setattr(
            persistent, "dumps_state", counting(dumps, persistent.dumps_state)
        )
        monkeypatch.setattr(
            persistent, "loads_state", counting(loads, persistent.loads_state)
        )
        workers = 3
        with PersistentShardExecutor(
            ESTIMATOR, workers=workers, chunk_size=256, backend="serial"
        ) as pool:
            pool.start()
            assert dumps == []
            pool.run(streams["random"])
            assert len(dumps) == workers
            assert len(loads) == workers
            merged, _ = pool.run(streams["noise_first"])
        estimate, digest = scalar_reference["noise_first"]
        assert merged.estimate() == estimate
        assert state_digest(merged) == digest


class TestProcessBackend:
    """The real multiprocessing pool returns the same bits (kept to a
    few cases so CI stays fast; the protocol itself is exercised
    exhaustively on the serial harness above)."""

    def test_matches_scalar_and_reuses_pool(self, streams, scalar_reference):
        stream = streams["random"]
        estimate, digest = scalar_reference["random"]
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, chunk_size=256
        ) as pool:
            first, report = pool.run(stream)
            assert pool.running
            second, _ = pool.run(stream)
        assert first.estimate() == estimate
        assert state_digest(first) == digest
        assert_states_identical(first, second)
        assert report.dispatch == "shared_memory"

    def test_submit_overlaps_coordinator(self, streams, scalar_reference):
        """submit() returns before the pass completes; collect() joins."""
        stream = streams["random"]
        estimate, _ = scalar_reference["random"]
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, chunk_size=256
        ) as pool:
            epoch = pool.submit(stream)
            assert epoch == 1
            merged, _ = pool.collect()
        assert merged.estimate() == estimate


class TestProtocol:
    """submit/collect discipline and lifecycle edges."""

    def test_double_submit_rejected(self, streams):
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, backend="serial"
        ) as pool:
            pool.submit(streams["random"])
            with pytest.raises(RuntimeError, match="collect"):
                pool.submit(streams["random"])
            pool.collect()

    def test_collect_without_submit_rejected(self):
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, backend="serial"
        ) as pool:
            with pytest.raises(RuntimeError, match="no outstanding"):
                pool.collect()

    def test_closed_pool_rejects_submit(self, streams):
        pool = PersistentShardExecutor(ESTIMATOR, workers=2, backend="serial")
        pool.start()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(streams["random"])
        with pytest.raises(RuntimeError, match="closed"):
            pool.start()

    def test_close_is_idempotent(self):
        pool = PersistentShardExecutor(ESTIMATOR, workers=2, backend="serial")
        pool.start()
        pool.close()
        pool.close()
        assert not pool.running

    def test_start_is_idempotent(self, streams, scalar_reference):
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, chunk_size=256, backend="serial"
        ) as pool:
            pool.start()
            pool.start()
            merged, _ = pool.run(streams["random"])
        assert merged.estimate() == scalar_reference["random"][0]

    def test_context_manager_stops_workers(self, streams):
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, backend="serial"
        ) as pool:
            pool.run(streams["random"])
            assert pool.running
        assert not pool.running

    def test_epochs_increment(self, streams):
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, chunk_size=256, backend="serial"
        ) as pool:
            assert pool.submit(streams["random"]) == 1
            pool.collect()
            assert pool.submit(streams["random"]) == 2
            pool.collect()


class TestIdleTimeout:
    def test_idle_pool_reaped_and_respawned(self, streams, scalar_reference):
        stream = streams["random"]
        estimate, digest = scalar_reference["random"]
        with PersistentShardExecutor(
            ESTIMATOR,
            workers=2,
            chunk_size=256,
            backend="serial",
            idle_timeout=0.05,
        ) as pool:
            pool.run(stream)
            deadline = time.monotonic() + 5.0
            while pool.running and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not pool.running
            # The next submit transparently respawns the pool.
            merged, _ = pool.run(stream)
        assert merged.estimate() == estimate
        assert state_digest(merged) == digest


class TestConfigValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            PersistentShardExecutor(ESTIMATOR, workers=0)
        with pytest.raises(ValueError, match="workers"):
            PersistentShardExecutor(ESTIMATOR, workers=-2)
        with pytest.raises(ValueError, match="auto"):
            PersistentShardExecutor(ESTIMATOR, workers="three")
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="workers"):
                PersistentShardExecutor(ESTIMATOR, workers=bad)
        pool = PersistentShardExecutor(ESTIMATOR, workers=np.int64(2))
        assert pool.workers == 2 and type(pool.workers) is int
        pool.close()

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            PersistentShardExecutor(ESTIMATOR, chunk_size=0)
        for bad in (True, 2.5, "fast"):
            with pytest.raises(ValueError, match="chunk_size"):
                PersistentShardExecutor(ESTIMATOR, chunk_size=bad)

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            PersistentShardExecutor(ESTIMATOR, backend="threads")

    def test_bad_dispatch(self):
        with pytest.raises(ValueError, match="dispatch"):
            PersistentShardExecutor(ESTIMATOR, dispatch="carrier_pigeon")

    def test_bad_timeouts(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            PersistentShardExecutor(ESTIMATOR, heartbeat_timeout=0)
        with pytest.raises(ValueError, match="idle_timeout"):
            PersistentShardExecutor(ESTIMATOR, idle_timeout=0)

    def test_auto_workers_sizes_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        pool = PersistentShardExecutor(
            ESTIMATOR, workers="auto", backend="serial"
        )
        assert pool.workers == 3

    def test_bad_boundaries_rejected(self, streams):
        with PersistentShardExecutor(
            ESTIMATOR, workers=2, backend="serial"
        ) as pool:
            with pytest.raises(ValueError, match="boundaries"):
                pool.submit(streams["random"], boundaries=[3, 5])
            # The failed submit left nothing pending.
            with pytest.raises(RuntimeError, match="no outstanding"):
                pool.collect()
