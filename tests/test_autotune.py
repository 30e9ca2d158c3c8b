"""Tests for the chunk-size autotuner (:mod:`repro.engine.autotune`).

Two layers: :func:`drive_autotuned` unit tests against a deterministic
fake clock (probing order, full-probe filtering, short-stream
fallbacks, every-token-once), and ``StreamRunner(chunk_size="auto")``
end-to-end (answers identical to a fixed-size pass, report fields).
"""

import numpy as np
import pytest

from repro.base import StreamRunner
from repro.cli import build_parser
from repro.core.estimate import EstimateMaxCover
from repro.engine import autotune as autotune_module
from repro.engine.autotune import (
    AUTOTUNE_GRID,
    DEFAULT_CHUNK_SIZE,
    drive_autotuned,
)
from repro.streams.edge_stream import EdgeStream
from repro.streams.generators import planted_cover


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(autotune_module, "time", fake)
    return fake


def _recording_feed(ranges, clock=None, per_chunk=0.0, per_token=0.0):
    def feed(lo, hi):
        ranges.append((lo, hi))
        if clock is not None:
            clock.advance(per_chunk + per_token * (hi - lo))

    return feed


class TestDriveAutotuned:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            drive_autotuned(lambda lo, hi: None, 10, grid=())
        with pytest.raises(ValueError):
            drive_autotuned(lambda lo, hi: None, 10, grid=(0, 8))
        with pytest.raises(ValueError):
            drive_autotuned(lambda lo, hi: None, 10, probe_chunks=0)

    def test_empty_stream(self):
        ranges = []
        result = drive_autotuned(_recording_feed(ranges), 0)
        assert ranges == []
        assert result.tokens == 0
        assert result.chunks == 0
        assert result.chosen == DEFAULT_CHUNK_SIZE
        assert result.probes == []

    def test_every_token_fed_once_in_order(self, clock):
        ranges = []
        length = 500_000
        result = drive_autotuned(
            _recording_feed(ranges, clock, per_chunk=1.0), length
        )
        # Contiguous half-open ranges covering [0, length) exactly once.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == length
        for (_, prev_hi), (lo, _) in zip(ranges, ranges[1:]):
            assert lo == prev_hi
        assert result.tokens == length
        assert result.chunks == len(ranges)

    def test_fixed_overhead_prefers_largest_chunks(self, clock):
        # Cost = 1s per chunk regardless of size: throughput grows with
        # chunk size, so the tuner must settle on the largest candidate.
        ranges = []
        result = drive_autotuned(
            _recording_feed(ranges, clock, per_chunk=1.0), 500_000
        )
        assert result.chosen == max(AUTOTUNE_GRID)
        assert len(result.probes) == len(AUTOTUNE_GRID)
        # Remainder runs at the chosen size.
        assert ranges[-2][1] - ranges[-2][0] == result.chosen

    def test_per_token_cliff_prefers_smaller_chunks(self, clock):
        # Chunks above 2048 hit a simulated cache cliff: 100x the
        # per-token cost.  The tuner should keep a small size.
        ranges = []

        def feed(lo, hi):
            ranges.append((lo, hi))
            size = hi - lo
            cost = 1e-6 if size <= 2048 else 1e-4
            clock.advance(size * cost)

        result = drive_autotuned(feed, 500_000)
        assert result.chosen in (1024, 2048)

    def test_warmup_chunk_not_timed(self, clock):
        # First chunk is pathologically slow (JIT compilation); the
        # tuner must not let it poison the first candidate's rate.
        calls = []

        def feed(lo, hi):
            calls.append((lo, hi))
            clock.advance(100.0 if len(calls) == 1 else 1.0)

        result = drive_autotuned(feed, 500_000)
        assert calls[0] == (0, min(AUTOTUNE_GRID))
        first_probe = result.probes[0]
        assert first_probe["seconds"] < 100.0

    def test_short_final_probe_is_distrusted(self, clock):
        # Stream ends 100 tokens into the second candidate: that probe's
        # rate is measured on a sliver and must not win on it.
        grid = (1024, 2048)
        length = 1024 + 3 * 1024 + 100  # warmup + full probes + sliver
        ranges = []
        result = drive_autotuned(
            _recording_feed(ranges, clock, per_token=1e-6),
            length,
            grid=grid,
        )
        assert [p["chunk_size"] for p in result.probes] == [1024, 2048]
        assert result.probes[1]["tokens"] == 100
        assert result.chosen == 1024
        assert result.tokens == length

    def test_stream_exhausted_during_warmup(self):
        ranges = []
        result = drive_autotuned(_recording_feed(ranges), 300)
        assert ranges == [(0, 300)]
        assert result.chosen == DEFAULT_CHUNK_SIZE
        assert result.probes == []
        assert result.tokens == 300

    def test_report_shape(self, clock):
        result = drive_autotuned(
            _recording_feed([], clock, per_chunk=1.0), 500_000
        )
        report = result.report()
        assert report["chosen"] == result.chosen
        assert report["grid"] == [p["chunk_size"] for p in result.probes]
        for probe in report["probes"]:
            assert set(probe) == {
                "chunk_size",
                "tokens",
                "seconds",
                "tokens_per_sec",
            }


class TestRunnerAuto:
    @pytest.fixture(scope="class")
    def stream(self):
        workload = planted_cover(1500, 250, 8, seed=5)
        return EdgeStream.from_system(
            workload.system, order="random", seed=6
        )

    def _estimate(self, stream, chunk_size):
        algo = EstimateMaxCover(
            m=stream.m, n=stream.n, k=8, alpha=4.0, seed=0
        )
        report = StreamRunner(chunk_size=chunk_size).run(algo, stream)
        return algo.estimate(), report

    def test_auto_matches_fixed_answer(self, stream):
        fixed_value, fixed_report = self._estimate(stream, 4096)
        auto_value, auto_report = self._estimate(stream, "auto")
        assert auto_value == fixed_value
        assert auto_report.tokens == fixed_report.tokens
        assert fixed_report.autotune is None
        assert auto_report.autotune is not None
        assert auto_report.chunk_size == auto_report.autotune["chosen"]
        assert auto_report.chunk_size in AUTOTUNE_GRID or (
            auto_report.chunk_size == DEFAULT_CHUNK_SIZE
        )

    def test_runner_flags(self):
        runner = StreamRunner(chunk_size="auto")
        assert runner.autotune
        assert runner.chunk_size == DEFAULT_CHUNK_SIZE
        assert not StreamRunner(chunk_size=512).autotune

    def test_bad_chunk_size_string_rejected(self):
        with pytest.raises(ValueError):
            StreamRunner(chunk_size="fast")
        # Never coerced: True is not 1 and 4096.9 is not 4096.
        for bad in (True, 4096.9, 0):
            with pytest.raises(ValueError, match="chunk_size"):
                StreamRunner(chunk_size=bad)
        assert StreamRunner(chunk_size=np.int64(512)).chunk_size == 512

    def test_non_columnar_stream_uses_default_size(self):
        # Buffered (plain iterable) path has no as_arrays: autotune
        # falls back to the default fixed size rather than failing.
        edges = [(int(s), int(e)) for s in range(20) for e in range(30)]
        algo = EstimateMaxCover(m=20, n=30, k=4, alpha=4.0, seed=0)
        report = StreamRunner(chunk_size="auto").run(algo, iter(edges))
        assert report.tokens == len(edges)
        assert report.autotune is None
        assert report.chunk_size == DEFAULT_CHUNK_SIZE


class TestCli:
    def test_chunk_size_accepts_auto(self):
        args = build_parser().parse_args(
            ["estimate", "edges.txt", "--k", "4", "--chunk-size", "auto"]
        )
        assert args.chunk_size == "auto"

    def test_chunk_size_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "edges.txt", "--k", "4", "--chunk-size", "soon"]
            )

    def test_bench_autotune_flag(self):
        args = build_parser().parse_args(
            ["bench", "edges.txt", "--k", "4", "--autotune"]
        )
        assert args.autotune
