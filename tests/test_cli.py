"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.streams.edge_stream import EdgeStream
from repro.streams.generators import planted_cover


@pytest.fixture()
def stream_file(tmp_path):
    workload = planted_cover(n=200, m=100, k=5, coverage_frac=0.9, seed=91)
    stream = EdgeStream.from_system(workload.system, order="random", seed=1)
    path = tmp_path / "edges.txt"
    stream.save(path)
    return str(path)


class TestGenerate:
    def test_generate_writes_stream(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        code = main(
            [
                "generate", "planted",
                "--n", "100", "--m", "50", "--k", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        loaded = EdgeStream.load(out)
        assert loaded.m == 50
        assert loaded.n == 100
        assert "wrote" in capsys.readouterr().out

    def test_all_families_generate(self, tmp_path):
        for family in ("planted", "few_large", "common", "zipf", "uniform"):
            out = tmp_path / f"{family}.txt"
            assert (
                main(
                    [
                        "generate", family,
                        "--n", "80", "--m", "40", "--k", "4",
                        "--out", str(out),
                    ]
                )
                == 0
            )
            assert EdgeStream.load(out).m <= 40


class TestEstimate:
    def test_estimate_prints_value_and_space(self, stream_file, capsys):
        code = main(
            ["estimate", stream_file, "--k", "5", "--alpha", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        assert "space_words:" in out
        value = float(out.split("estimate:")[1].splitlines()[0])
        assert value > 0


class TestReport:
    def test_report_prints_cover(self, stream_file, capsys):
        code = main(["report", stream_file, "--k", "5", "--alpha", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "set_ids:" in out
        ids_line = out.split("set_ids:")[1].splitlines()[0].split()
        assert 0 < len(ids_line) <= 5


class TestTradeoff:
    def test_tradeoff_table(self, stream_file, capsys):
        code = main(
            [
                "tradeoff", stream_file, "--k", "5",
                "--alphas", "2", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trade-off sweep" in out
        assert "2.00" in out and "8.00" in out


class TestPlan:
    def test_plan_feasible(self, capsys):
        code = main(
            [
                "plan", "--m", "200", "--n", "300", "--k", "6",
                "--budget", "100000000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha:" in out

    def test_plan_infeasible(self, capsys):
        code = main(
            ["plan", "--m", "200", "--n", "300", "--k", "6", "--budget", "5"]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().out


class TestDiagnose:
    def test_diagnose_prints_regime(self, stream_file, capsys):
        code = main(["diagnose", stream_file, "--k", "5", "--alpha", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted_regime:" in out
        assert "large_set_mass:" in out
        assert "common elements" in out

    def test_diagnose_regime_is_known(self, stream_file, capsys):
        main(["diagnose", stream_file, "--k", "5"])
        out = capsys.readouterr().out
        regime = out.split("predicted_regime:")[1].splitlines()[0].strip()
        assert regime in ("large_common", "large_set", "small_set")


class TestStreamIO:
    def test_roundtrip(self, tmp_path):
        stream = EdgeStream([(0, 1), (2, 3), (0, 4)], m=5, n=6)
        path = tmp_path / "s.txt"
        stream.save(path)
        loaded = EdgeStream.load(path)
        assert loaded.edges == stream.edges
        assert (loaded.m, loaded.n) == (5, 6)

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# a comment\n\n0 1\n# another\n2 3\n")
        loaded = EdgeStream.load(path)
        assert loaded.edges == [(0, 1), (2, 3)]

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="expected 'set element'"):
            EdgeStream.load(path)


class TestBench:
    def test_bench_prints_throughput(self, stream_file, capsys):
        code = main(["bench", stream_file, "--k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tokens:" in out
        assert "throughput:" in out
        assert "finalize_seconds:" in out
        assert "profile" not in out

    def test_bench_profile_breakdown(self, stream_file, capsys):
        code = main(["bench", stream_file, "--k", "5", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile (per-kernel wall clock):" in out
        assert "hash-eval" in out
        assert "calls" in out

    def test_bench_profile_stops_profiler(self, stream_file):
        from repro.engine.profile import PROFILER

        main(["bench", stream_file, "--k", "5", "--profile"])
        assert not PROFILER.enabled
