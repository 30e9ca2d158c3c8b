"""Tests for shard dispatch: bounds edge cases, shared memory, cleanup.

Complements ``tests/test_shard_equivalence.py`` (which proves the merged
*answers* match a single pass): this file covers the data plane itself
-- shard-bound pathologies, the shared-memory and mmap dispatch paths
returning the scalar pass's state byte for byte, O(1) dispatch
payloads, and shared-memory teardown when a worker fails mid-shard.
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro import (
    EdgeStream,
    EstimateMaxCover,
    PersistentShardExecutor,
    StreamRunner,
    planted_cover,
)
from repro.parallel import compute_shard_bounds
from repro.sketch.serialize import state_difference

M, N, K, ALPHA = 60, 120, 4, 3.0
FACTORY = partial(EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7)


class _FailingPass(EstimateMaxCover):
    """Builds normally, then fails its pass: the shared-memory block
    exists by the time the worker raises."""

    def process_batch(self, set_ids, elements):
        raise RuntimeError("worker pass failed")


def sharded_run(stream, workers=2, factory=FACTORY, **options):
    """One pass through a fresh shard pool; ``(merged, report)``."""
    options.setdefault("backend", "serial")
    with PersistentShardExecutor(factory, workers=workers, **options) as pool:
        return pool.run(stream)


@pytest.fixture(scope="module")
def small_stream() -> EdgeStream:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=5)
    return EdgeStream.from_system(workload.system, order="random", seed=2)


@pytest.fixture(scope="module")
def scalar_pass(small_stream):
    algo = FACTORY()
    StreamRunner(path="scalar").run(algo, small_stream)
    return algo


def assert_matches_scalar(merged, scalar_pass) -> None:
    assert state_difference(
        merged.state_arrays(), scalar_pass.state_arrays()
    ) is None
    assert merged.estimate() == scalar_pass.estimate()


def _shm_segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except OSError:  # pragma: no cover - non-POSIX shm layout
        return set()


class TestShardBounds:
    def test_more_workers_than_tokens(self):
        bounds = compute_shard_bounds(2, 5)
        assert len(bounds) == 5
        assert bounds[0] == (0, 0)
        assert bounds[-1] == (1, 2)
        assert sum(hi - lo for lo, hi in bounds) == 2
        assert all(lo <= hi for lo, hi in bounds)

    def test_empty_stream_bounds(self):
        assert compute_shard_bounds(0, 3) == [(0, 0)] * 3

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError, match="boundaries"):
            compute_shard_bounds(10, 3, boundaries=[7, 3])

    def test_wrong_boundary_count_rejected(self):
        with pytest.raises(ValueError, match="boundaries"):
            compute_shard_bounds(10, 3, boundaries=[5])

    def test_out_of_range_boundary_rejected(self):
        with pytest.raises(ValueError, match="boundaries"):
            compute_shard_bounds(10, 2, boundaries=[11])

    def test_more_workers_than_tokens_runs(self):
        """A run with mostly-empty shards still merges to the answer."""
        tiny = EdgeStream([(0, 1), (2, 3)], m=M, n=N)
        tiny_ref = FACTORY()
        StreamRunner(path="scalar").run(tiny_ref, tiny)
        merged, report = sharded_run(tiny, workers=5)
        assert_matches_scalar(merged, tiny_ref)
        assert sum(t.tokens for t in report.shards) == 2

    def test_empty_stream_runs(self):
        empty = EdgeStream([], m=M, n=N)
        fresh = FACTORY()
        merged, report = sharded_run(empty, workers=3)
        assert report.tokens == 0
        assert_matches_scalar(merged, fresh)


class TestConfigEdgeCases:
    """Constructor and boundary validation fails loudly and specifically."""

    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            PersistentShardExecutor(FACTORY, workers=workers)

    def test_float_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            PersistentShardExecutor(FACTORY, workers=2.5)

    def test_wrong_count_message_names_the_counts(self):
        """The error must say how many cuts were expected and given, so
        an off-by-one in a driver script is a one-read fix."""
        with pytest.raises(ValueError, match="exactly 2"):
            compute_shard_bounds(10, 3, boundaries=[5])

    def test_unsorted_message_says_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            compute_shard_bounds(10, 3, boundaries=[7, 3])

    def test_non_covering_message_says_cover(self):
        with pytest.raises(ValueError, match="cover"):
            compute_shard_bounds(10, 2, boundaries=[11])
        with pytest.raises(ValueError, match="cover"):
            compute_shard_bounds(10, 2, boundaries=[-1])

    def test_balanced_bounds_partition_the_stream(self):
        for total, workers in [(0, 3), (2, 5), (10, 3), (100, 7)]:
            bounds = compute_shard_bounds(total, workers)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == total
            assert all(lo <= hi for lo, hi in bounds)
            assert all(
                bounds[i][1] == bounds[i + 1][0]
                for i in range(len(bounds) - 1)
            )

    def test_explicit_boundaries_round_trip(self):
        assert compute_shard_bounds(10, 3, boundaries=[2, 7]) == [
            (0, 2),
            (2, 7),
            (7, 10),
        ]


class TestDispatchEquivalence:
    @pytest.mark.parametrize("dispatch", ["shared_memory"])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_dispatch_paths_bit_identical(
        self, small_stream, scalar_pass, backend, dispatch
    ):
        merged, report = sharded_run(
            small_stream, chunk_size=128, backend=backend, dispatch=dispatch
        )
        assert_matches_scalar(merged, scalar_pass)
        assert report.dispatch == dispatch

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mmap_dispatch_bit_identical(
        self, small_stream, scalar_pass, tmp_path, backend
    ):
        path = tmp_path / "s.npz"
        small_stream.save_binary(path)
        mapped = EdgeStream.load_binary(path, mmap=True)
        merged, report = sharded_run(
            mapped, chunk_size=128, backend=backend
        )
        assert report.dispatch == "mmap"
        assert_matches_scalar(merged, scalar_pass)

    def test_mmap_dispatch_requires_file_backing(self, small_stream):
        with pytest.raises(ValueError, match="mmap"):
            sharded_run(small_stream, dispatch="mmap")

    def test_auto_prefers_shared_memory_on_process_backend(
        self, small_stream, scalar_pass
    ):
        """``auto`` resolves the same descriptors on both backends, so
        the serial harness exercises what worker processes receive."""
        for backend in ("serial", "process"):
            merged, report = sharded_run(
                small_stream, chunk_size=128, backend=backend
            )
            assert report.dispatch == "shared_memory", backend
            assert_matches_scalar(merged, scalar_pass)

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            PersistentShardExecutor(FACTORY, dispatch="carrier_pigeon")

    def test_pickle_dispatch_rejected(self):
        """Column slices no longer travel in the payload."""
        with pytest.raises(ValueError, match="dispatch"):
            PersistentShardExecutor(FACTORY, dispatch="pickle")


class TestDispatchBytes:
    def test_shared_memory_payload_independent_of_stream_length(
        self, small_stream
    ):
        """The tentpole property: shard descriptors are O(1), so bytes
        shipped do not grow with the stream."""
        short = small_stream
        long_edges = short.edges * 4
        long = EdgeStream(long_edges, m=short.m, n=short.n)

        def bytes_for(stream):
            _, report = sharded_run(stream, dispatch="shared_memory")
            return report.dispatch_bytes

        shm_short = bytes_for(short)
        shm_long = bytes_for(long)
        # O(1) descriptors: a 4x longer stream costs the same payload
        # give or take a few bytes of integer width in the range fields.
        assert abs(shm_long - shm_short) <= 8
        assert shm_long < 1024

    def test_mmap_payload_is_constant_size(self, small_stream, tmp_path):
        path = tmp_path / "s.npz"
        small_stream.save_binary(path)
        mapped = EdgeStream.load_binary(path, mmap=True)
        _, report = sharded_run(mapped)
        assert report.dispatch == "mmap"
        assert report.dispatch_bytes < 1024


class TestSharedMemoryCleanup:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_segment_released_after_run(self, small_stream, backend):
        before = _shm_segments()
        sharded_run(small_stream, backend=backend, dispatch="shared_memory")
        assert _shm_segments() <= before

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_segment_released_on_worker_failure(self, small_stream, backend):
        before = _shm_segments()
        factory = partial(_FailingPass, m=M, n=N, k=K, alpha=ALPHA, seed=7)
        with pytest.raises(RuntimeError, match="worker pass failed"):
            sharded_run(
                small_stream,
                factory=factory,
                backend=backend,
                dispatch="shared_memory",
            )
        assert _shm_segments() <= before
