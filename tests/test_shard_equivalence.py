"""Shard-equivalence suite: sharded runs are bit-identical to one pass.

The guarantee of the shard executor: partitioning the edge stream into
contiguous shards, running an identically-seeded copy per shard,
shipping state through the wire format, and merging in shard order
reproduces the single-pass answer *exactly* -- for every shard count,
for pathologically uneven splits, and under every adversarial arrival
order, on both the scalar and the batched reference paths.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import (
    EstimateMaxCover,
    MaxCoverReporter,
    PersistentShardExecutor,
    StreamRunner,
)
from repro.sketch.serialize import state_difference

M, N, K, ALPHA = 150, 300, 6, 3.0
SHARD_COUNTS = (1, 2, 3, 7)
ORDERS = (
    "duplicate_flood", "fragmented", "noise_first", "signal_first", "random"
)

# The same estimator ``scalar_runs`` replays (conftest.planted_estimator);
# module level so the process pool can pickle it.
ESTIMATOR = partial(EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7)
REPORTER = partial(MaxCoverReporter, m=M, n=N, k=K, alpha=ALPHA, seed=13)


def sharded_run(
    factory, stream, workers, chunk_size=256, backend="serial",
    boundaries=None,
):
    """One pass through a fresh shard pool; ``(merged, report)``."""
    with PersistentShardExecutor(
        factory, workers=workers, chunk_size=chunk_size, backend=backend
    ) as pool:
        return pool.run(stream, boundaries)


def assert_matches_scalar(merged, reference) -> None:
    """Merged state and estimate equal the scalar single pass's."""
    assert state_difference(merged.state_arrays(), reference.state) is None
    assert merged.estimate() == reference.estimate


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("workers", SHARD_COUNTS)
    def test_sharded_matches_scalar_single_pass(
        self, adversarial_streams, scalar_runs, order, workers
    ):
        stream = adversarial_streams[order]
        merged, report = sharded_run(ESTIMATOR, stream, workers)
        assert_matches_scalar(merged, scalar_runs[order])
        assert merged.tokens_seen == len(stream)
        assert report.tokens == len(stream)
        assert report.workers == workers

    def test_sharded_matches_batched_single_pass(self, adversarial_streams):
        """The vectorized single-pass path agrees too (chunking is not
        the mechanism sharding relies on)."""
        stream = adversarial_streams["random"]
        batched = ESTIMATOR()
        StreamRunner(chunk_size=512).run(batched, stream)
        merged, _report = sharded_run(
            ESTIMATOR, stream, 3, chunk_size=512
        )
        assert merged.estimate() == batched.estimate()

    @pytest.mark.parametrize(
        "boundaries",
        [[1], [5], [17]],
        ids=["one-edge-head", "tiny-head", "prime-cut"],
    )
    def test_uneven_splits(
        self, adversarial_streams, scalar_runs, boundaries
    ):
        """Shard sizes carry no information: cutting one edge off the
        head must not change the merged answer."""
        stream = adversarial_streams["random"]
        merged, _report = sharded_run(
            ESTIMATOR, stream, 2, boundaries=boundaries
        )
        assert_matches_scalar(merged, scalar_runs["random"])

    def test_empty_tail_shard(self, adversarial_streams, scalar_runs):
        """A shard may legally receive zero edges (workers > tokens in
        the extreme); empty shards merge as identities."""
        stream = adversarial_streams["random"]
        total = len(stream)
        merged, report = sharded_run(
            ESTIMATOR, stream, 3, boundaries=[total, total]
        )
        assert_matches_scalar(merged, scalar_runs["random"])
        assert report.shards[1].tokens == 0
        assert report.shards[2].tokens == 0

    def test_process_backend_matches(
        self, adversarial_streams, scalar_runs
    ):
        """The multiprocessing pool path returns the same bits as the
        serial harness (one shard count, to keep CI fast)."""
        stream = adversarial_streams["random"]
        merged, report = sharded_run(
            ESTIMATOR, stream, 2, backend="process"
        )
        assert_matches_scalar(merged, scalar_runs["random"])
        assert len(report.shards) == 2


class TestReporterEquivalence:
    @pytest.mark.parametrize("order", ["random", "noise_first", "fragmented"])
    def test_sharded_solution_identical(self, adversarial_streams, order):
        stream = adversarial_streams[order]
        single = REPORTER()
        StreamRunner(path="scalar").run(single, stream)
        reference = single.solution()

        for workers in (2, 3):
            merged, _report = sharded_run(REPORTER, stream, workers)
            assert merged.solution() == reference


class TestReportShape:
    def test_per_shard_timings_cover_the_stream(self, adversarial_streams):
        stream = adversarial_streams["random"]
        _merged, report = sharded_run(ESTIMATOR, stream, 3)
        assert [t.shard for t in report.shards] == [0, 1, 2]
        assert sum(t.tokens for t in report.shards) == len(stream)
        assert report.path == "sharded"
        assert report.tokens_per_sec > 0
        assert report.merge_seconds >= 0.0

    def test_bad_boundaries_rejected(self, adversarial_streams):
        stream = adversarial_streams["random"]
        with pytest.raises(ValueError, match="boundaries"):
            sharded_run(ESTIMATOR, stream, 2, boundaries=[3, 5])

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PersistentShardExecutor(ESTIMATOR, workers=0)
        with pytest.raises(ValueError):
            PersistentShardExecutor(ESTIMATOR, chunk_size=0)
        with pytest.raises(ValueError):
            PersistentShardExecutor(ESTIMATOR, backend="threads")
        # Sizes are never coerced: bool and float fail, naming the
        # parameter, while numpy integers are integers.
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="workers"):
                PersistentShardExecutor(ESTIMATOR, workers=bad)
        for bad in (True, 4096.9, "fast"):
            with pytest.raises(ValueError, match="chunk_size"):
                PersistentShardExecutor(ESTIMATOR, chunk_size=bad)
        pool = PersistentShardExecutor(
            ESTIMATOR, workers=np.int64(2), chunk_size=np.int32(64)
        )
        assert (pool.workers, pool.chunk_size) == (2, 64)
        assert type(pool.workers) is int
        pool.close()


class TestPlannedShardEquivalence:
    """The fused plan survives the shard/serialise/merge pipeline.

    Each worker builds its own plan (plans are per-process caches, never
    serialised); merged planned state must equal the scalar reference
    single-pass state bit-for-bit.
    """

    def test_planned_sharded_matches_scalar_single_pass(
        self, adversarial_streams, scalar_runs
    ):
        reference = scalar_runs["random"]
        merged, _report = sharded_run(
            ESTIMATOR, adversarial_streams["random"], 3
        )
        assert state_difference(merged.state_arrays(), reference.state) is None
        assert merged.estimate() == reference.estimate
        assert merged.space_words() == reference.space_words

    def test_planned_reporter_solution_through_shards(
        self, adversarial_streams
    ):
        stream = adversarial_streams["fragmented"]
        reference = REPORTER()
        StreamRunner(path="scalar").run(reference, stream)
        merged, _report = sharded_run(REPORTER, stream, 2)
        assert merged.solution() == reference.solution()


class TestAutoWorkers:
    """``workers='auto'`` sizes the pool to the host."""

    def test_multi_core_auto_runs_sharded(
        self, adversarial_streams, scalar_runs, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with PersistentShardExecutor(
            ESTIMATOR, workers="auto", chunk_size=256, backend="serial"
        ) as pool:
            assert pool.workers == 3
            merged, report = pool.run(adversarial_streams["random"])
        assert len(report.shards) == 3
        assert_matches_scalar(merged, scalar_runs["random"])

    def test_auto_sizes_a_real_process_pool(self, adversarial_streams):
        """Unpatched ``os.cpu_count()``: the shards go through one real
        worker process per CPU."""
        import os

        stream = adversarial_streams["random"]
        with PersistentShardExecutor(
            ESTIMATOR, workers="auto", chunk_size=256
        ) as pool:
            assert pool.workers == (os.cpu_count() or 1)
            merged, report = pool.run(stream)
        assert report.workers == pool.workers
        assert merged.tokens_seen == len(stream)

    def test_bad_workers_string_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            PersistentShardExecutor(ESTIMATOR, workers="three")
