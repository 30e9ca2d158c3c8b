"""Shard-equivalence suite: sharded runs are bit-identical to one pass.

The tentpole guarantee of the sharded executor: partitioning the edge
stream into contiguous shards, running an identically-seeded copy per
shard, shipping state through the wire format, and merging in shard
order reproduces the single-pass answer *exactly* -- for every shard
count, for pathologically uneven splits, and under every adversarial
arrival order, on both the scalar and the batched reference paths.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import (
    EstimateMaxCover,
    MaxCoverReporter,
    ShardedStreamRunner,
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


@pytest.fixture(scope="module")
def scalar_estimates(scalar_runs) -> dict[str, float]:
    """Single-pass scalar-path reference estimate per arrival order."""
    return {name: run.estimate for name, run in scalar_runs.items()}


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("workers", SHARD_COUNTS)
    def test_sharded_matches_scalar_single_pass(
        self, adversarial_streams, scalar_estimates, order, workers
    ):
        stream = adversarial_streams[order]
        runner = ShardedStreamRunner(
            workers=workers, chunk_size=256, backend="serial"
        )
        merged, report = runner.run(ESTIMATOR, stream)
        assert merged.estimate() == scalar_estimates[order]
        assert merged.tokens_seen == len(stream)
        assert report.tokens == len(stream)
        assert report.workers == workers

    def test_sharded_matches_batched_single_pass(self, adversarial_streams):
        """The vectorized single-pass path agrees too (chunking is not
        the mechanism sharding relies on)."""
        stream = adversarial_streams["random"]
        batched = ESTIMATOR()
        StreamRunner(chunk_size=512).run(batched, stream)
        merged, _report = ShardedStreamRunner(
            workers=3, chunk_size=512, backend="serial"
        ).run(ESTIMATOR, stream)
        assert merged.estimate() == batched.estimate()

    @pytest.mark.parametrize(
        "boundaries",
        [[1], [5], [17]],
        ids=["one-edge-head", "tiny-head", "prime-cut"],
    )
    def test_uneven_splits(
        self, adversarial_streams, scalar_estimates, boundaries
    ):
        """Shard sizes carry no information: cutting one edge off the
        head must not change the merged answer."""
        stream = adversarial_streams["random"]
        merged, _report = ShardedStreamRunner(
            workers=2, chunk_size=256, backend="serial"
        ).run(ESTIMATOR, stream, boundaries=boundaries)
        assert merged.estimate() == scalar_estimates["random"]

    def test_empty_tail_shard(self, adversarial_streams, scalar_estimates):
        """A shard may legally receive zero edges (workers > tokens in
        the extreme); empty shards merge as identities."""
        stream = adversarial_streams["random"]
        total = len(stream)
        merged, report = ShardedStreamRunner(
            workers=3, chunk_size=256, backend="serial"
        ).run(ESTIMATOR, stream, boundaries=[total, total])
        assert merged.estimate() == scalar_estimates["random"]
        assert report.shards[1].tokens == 0
        assert report.shards[2].tokens == 0

    def test_process_backend_matches(
        self, adversarial_streams, scalar_estimates
    ):
        """The multiprocessing pool path returns the same bits as the
        serial harness (one shard count, to keep CI fast)."""
        stream = adversarial_streams["random"]
        merged, report = ShardedStreamRunner(
            workers=2, chunk_size=256, backend="process"
        ).run(ESTIMATOR, stream)
        assert merged.estimate() == scalar_estimates["random"]
        assert len(report.shards) == 2


class TestReporterEquivalence:
    @pytest.mark.parametrize("order", ["random", "noise_first", "fragmented"])
    def test_sharded_solution_identical(self, adversarial_streams, order):
        stream = adversarial_streams[order]
        single = REPORTER()
        StreamRunner(path="scalar").run(single, stream)
        reference = single.solution()

        for workers in (2, 3):
            merged, _report = ShardedStreamRunner(
                workers=workers, chunk_size=256, backend="serial"
            ).run(REPORTER, stream)
            assert merged.solution() == reference


class TestReportShape:
    def test_per_shard_timings_cover_the_stream(self, adversarial_streams):
        stream = adversarial_streams["random"]
        _merged, report = ShardedStreamRunner(
            workers=3, chunk_size=256, backend="serial"
        ).run(ESTIMATOR, stream)
        assert [t.shard for t in report.shards] == [0, 1, 2]
        assert sum(t.tokens for t in report.shards) == len(stream)
        assert report.path == "sharded"
        assert report.tokens_per_sec > 0
        assert report.merge_seconds >= 0.0

    def test_bad_boundaries_rejected(self, adversarial_streams):
        stream = adversarial_streams["random"]
        runner = ShardedStreamRunner(workers=2, backend="serial")
        with pytest.raises(ValueError, match="boundaries"):
            runner.run(ESTIMATOR, stream, boundaries=[3, 5])

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ShardedStreamRunner(workers=0)
        with pytest.raises(ValueError):
            ShardedStreamRunner(chunk_size=0)
        with pytest.raises(ValueError):
            ShardedStreamRunner(backend="threads")
        # Sizes are never coerced: bool and float fail, naming the
        # parameter, while numpy integers are integers.
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="workers"):
                ShardedStreamRunner(workers=bad)
        for bad in (True, 4096.9, "fast"):
            with pytest.raises(ValueError, match="chunk_size"):
                ShardedStreamRunner(chunk_size=bad)
        runner = ShardedStreamRunner(
            workers=np.int64(2), chunk_size=np.int32(64)
        )
        assert (runner.workers, runner.chunk_size) == (2, 64)
        assert type(runner.workers) is int


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
        merged, _report = ShardedStreamRunner(
            workers=3, chunk_size=256, backend="serial"
        ).run(ESTIMATOR, adversarial_streams["random"])
        assert state_difference(merged.state_arrays(), reference.state) is None
        assert merged.estimate() == reference.estimate
        assert merged.space_words() == reference.space_words

    def test_planned_reporter_solution_through_shards(
        self, adversarial_streams
    ):
        stream = adversarial_streams["fragmented"]
        reference = REPORTER()
        StreamRunner(path="scalar").run(reference, stream)
        merged, _report = ShardedStreamRunner(
            workers=2, chunk_size=256, backend="serial"
        ).run(REPORTER, stream)
        assert merged.solution() == reference.solution()


class TestAutoWorkers:
    """``workers='auto'`` sizing and the single-worker fallback."""

    def test_single_core_falls_back_in_process(
        self, adversarial_streams, scalar_estimates, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        runner = ShardedStreamRunner(workers="auto", backend="serial")
        assert runner.workers == 1
        merged, report = runner.run(
            ESTIMATOR, adversarial_streams["random"]
        )
        assert report.fallback == "single_pass"
        assert report.workers == 1
        assert report.dispatch == "in_process"
        assert report.dispatch_bytes == 0
        assert merged.estimate() == scalar_estimates["random"]

    def test_multi_core_auto_runs_sharded(
        self, adversarial_streams, scalar_estimates, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        runner = ShardedStreamRunner(workers="auto", backend="serial")
        assert runner.workers == 3
        merged, report = runner.run(
            ESTIMATOR, adversarial_streams["random"]
        )
        assert report.fallback == ""
        assert len(report.shards) == 3
        assert merged.estimate() == scalar_estimates["random"]

    def test_explicit_single_worker_falls_back(
        self, adversarial_streams, scalar_estimates
    ):
        merged, report = ShardedStreamRunner(
            workers=1, backend="serial"
        ).run(ESTIMATOR, adversarial_streams["random"])
        assert report.fallback == "single_pass"
        assert merged.estimate() == scalar_estimates["random"]

    def test_boundaries_bypass_the_fallback(
        self, adversarial_streams, scalar_estimates
    ):
        """Explicit boundaries ask for the shard pipeline; honour them."""
        stream = adversarial_streams["random"]
        merged, report = ShardedStreamRunner(
            workers=1, backend="serial"
        ).run(ESTIMATOR, stream, boundaries=[])
        assert report.fallback == ""
        assert len(report.shards) == 1
        assert merged.estimate() == scalar_estimates["random"]

    def test_auto_sizes_a_real_process_pool(self, adversarial_streams):
        """Unpatched ``os.cpu_count()``: on a multi-core host the shards
        go through a real process pool, which must pickle the
        module-level factory."""
        import os

        stream = adversarial_streams["random"]
        runner = ShardedStreamRunner(workers="auto", chunk_size=256)
        assert runner.workers == (os.cpu_count() or 1)
        merged, report = runner.run(ESTIMATOR, stream)
        assert report.workers == runner.workers
        assert merged.tokens_seen == len(stream)

    def test_bad_workers_string_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            ShardedStreamRunner(workers="three")
