"""Tests for the opt-in kernel profiler (:mod:`repro.engine.profile`).

The profiler backs ``repro bench --profile``; these tests pin down the
accounting rules the report relies on:

* :meth:`KernelProfiler.span` credits *self time*, so nested categories
  (``horner`` inside ``hash-eval``) never double count and category
  totals stay at or below the pass's wall clock;
* instrumented call sites actually fire -- a profiled planned pass
  reports the ``plan-build`` / ``hash-eval`` / ``horner`` / ``layout``
  / ``scatter`` / ``kmv-insert`` / ``l0-insert`` categories it
  advertises.
"""

import time

import numpy as np
import pytest

from repro.base import StreamRunner
from repro.core.estimate import EstimateMaxCover
from repro.engine import profile as profile_module
from repro.engine.plan import EvalPlan
from repro.engine.profile import PROFILER, KernelProfiler
from repro.sketch.contributing import ContributingBank
from repro.sketch.countsketch import CountSketch
from repro.sketch.hashing import KWiseHash
from repro.sketch.l0 import KMVBank, L0Sketch
from repro.streams.edge_stream import EdgeStream
from repro.streams.generators import planted_cover


@pytest.fixture(autouse=True)
def _global_profiler_off():
    """Never leak an enabled global profiler into other tests."""
    yield
    PROFILER.stop()
    PROFILER.reset()


class FakeClock:
    """Deterministic stand-in for ``time.perf_counter``."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(profile_module, "time", fake)
    return fake


class TestAccumulation:
    def test_add_and_snapshot_sorted_by_cost(self):
        prof = KernelProfiler()
        prof.start()
        prof.add("cheap", 0.5)
        prof.add("dear", 2.0)
        prof.add("cheap", 0.25, calls=3)
        snap = prof.snapshot()
        assert list(snap) == ["dear", "cheap"]
        assert snap["cheap"] == {"seconds": 0.75, "calls": 4}
        assert snap["dear"] == {"seconds": 2.0, "calls": 1}

    def test_start_resets_previous_run(self):
        prof = KernelProfiler()
        prof.start()
        prof.add("x", 1.0)
        prof.start()
        assert prof.snapshot() == {}

    def test_disabled_profiler_records_nothing(self, clock):
        prof = KernelProfiler()
        with prof.span("x"):
            clock.advance(1.0)
        assert prof.snapshot() == {}
        assert prof._stack == []


class TestSpanNesting:
    def test_nested_span_credits_self_time(self, clock):
        prof = KernelProfiler()
        prof.start()
        with prof.span("hash-eval"):
            clock.advance(1.0)
            with prof.span("horner"):
                clock.advance(2.0)
            clock.advance(0.5)
        snap = prof.snapshot()
        assert snap["horner"]["seconds"] == pytest.approx(2.0)
        assert snap["hash-eval"]["seconds"] == pytest.approx(1.5)
        assert prof._stack == []

    def test_sibling_children_both_subtract(self, clock):
        prof = KernelProfiler()
        prof.start()
        with prof.span("outer"):
            with prof.span("a"):
                clock.advance(1.0)
            clock.advance(0.25)
            with prof.span("b"):
                clock.advance(3.0)
        snap = prof.snapshot()
        assert snap["a"]["seconds"] == pytest.approx(1.0)
        assert snap["b"]["seconds"] == pytest.approx(3.0)
        assert snap["outer"]["seconds"] == pytest.approx(0.25)

    def test_three_level_nesting(self, clock):
        prof = KernelProfiler()
        prof.start()
        with prof.span("l0"):
            clock.advance(1.0)
            with prof.span("l1"):
                clock.advance(1.0)
                with prof.span("l2"):
                    clock.advance(1.0)
        snap = prof.snapshot()
        assert snap["l0"]["seconds"] == pytest.approx(1.0)
        assert snap["l1"]["seconds"] == pytest.approx(1.0)
        assert snap["l2"]["seconds"] == pytest.approx(1.0)

    def test_same_category_accumulates_across_spans(self, clock):
        prof = KernelProfiler()
        prof.start()
        for _ in range(3):
            with prof.span("horner"):
                clock.advance(0.5)
        snap = prof.snapshot()
        assert snap["horner"] == {"seconds": 1.5, "calls": 3}

    def test_span_survives_exceptions(self, clock):
        prof = KernelProfiler()
        prof.start()
        with pytest.raises(RuntimeError):
            with prof.span("outer"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert prof.snapshot()["outer"]["seconds"] == pytest.approx(1.0)
        assert prof._stack == []

    def test_reset_clears_open_frames(self):
        prof = KernelProfiler()
        prof.start()
        prof._stack.append(1.0)
        prof.reset()
        assert prof._stack == []


class TestInstrumentedSites:
    def _chunk(self, length=512, domain=200, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, domain, size=length, dtype=np.int64)

    def test_megabank_values_emit_horner_inside_hash_eval(self):
        # table_cap=1 forces every non-trivial slot into mega-bank mode,
        # so values() runs the Horner span every chunk.
        plan = EvalPlan(set_domain=200, elem_domain=200, table_cap=1)
        slot = plan.request(plan.elems, KWiseHash(50, degree=4, seed=1))
        PROFILER.start()
        ctx = plan.begin_chunk(self._chunk(), self._chunk(seed=1))
        t0 = time.perf_counter()
        values = ctx.values(slot)
        region = time.perf_counter() - t0
        PROFILER.stop()
        assert len(values) == 512
        snap = PROFILER.snapshot()
        assert snap["horner"]["calls"] == 1
        assert snap["hash-eval"]["calls"] == 1
        assert snap["horner"]["seconds"] >= 0.0
        # Self-time accounting: the two categories never exceed the
        # combined region they were measured in.
        horner = snap["horner"]["seconds"]
        assert horner + snap["hash-eval"]["seconds"] <= region

    def test_tabulated_values_emit_hash_eval_only(self):
        plan = EvalPlan(set_domain=200, elem_domain=200)
        slot = plan.request(plan.elems, KWiseHash(50, degree=4, seed=1))
        PROFILER.start()
        ctx = plan.begin_chunk(self._chunk(), self._chunk(seed=1))
        ctx.values(slot)
        PROFILER.stop()
        snap = PROFILER.snapshot()
        assert "hash-eval" in snap
        assert "horner" not in snap

    def test_countsketch_batch_emits_scatter(self):
        sketch = CountSketch(width=64, depth=3, seed=0)
        PROFILER.start()
        sketch.process_batch(self._chunk(length=2048, domain=5000))
        PROFILER.stop()
        snap = PROFILER.snapshot()
        assert snap["scatter"]["calls"] >= 1

    def test_profiled_pass_totals_within_wall_clock(self):
        workload = planted_cover(800, 120, 6, seed=3)
        stream = EdgeStream.from_system(
            workload.system, order="random", seed=4
        )
        algo = EstimateMaxCover(
            m=stream.m, n=stream.n, k=6, alpha=4.0, seed=0
        )
        PROFILER.start()
        report = StreamRunner(chunk_size=1024).run(algo, stream)
        PROFILER.stop()
        snap = PROFILER.snapshot()
        assert "plan-build" in snap
        assert "hash-eval" in snap
        total = sum(entry["seconds"] for entry in snap.values())
        # Self-time accounting means categories partition (a subset of)
        # the pass; tolerance covers clock granularity on short spans.
        assert total <= report.seconds * 1.05 + 1e-3

    def test_profiled_pass_reports_layout_builds(self, monkeypatch):
        ingests = []
        ingest = ContributingBank.ingest

        def counting(bank, counts, *args):
            ingests.append(bool(counts.any()))
            return ingest(bank, counts, *args)

        monkeypatch.setattr(ContributingBank, "ingest", counting)
        workload = planted_cover(800, 120, 6, seed=3)
        stream = EdgeStream.from_system(
            workload.system, order="random", seed=4
        )
        algo = EstimateMaxCover(
            m=stream.m, n=stream.n, k=6, alpha=4.0, seed=0
        )
        PROFILER.start()
        report = StreamRunner(chunk_size=1024).run(algo, stream)
        PROFILER.stop()
        banks = [oracle._large_set._bank for _z, _r, oracle in algo._branches]
        # Each LargeSet's bank lays out all its runs' detectors, then
        # builds its ingest tables, once, at its first chunk.
        assert all(
            bank._layout is not None and bank._ingest is not None
            for bank in banks
        )
        snap = PROFILER.snapshot()
        layout = snap["layout"]
        assert layout["calls"] == 2 * len(banks)
        assert 0.0 < layout["seconds"] <= report.seconds
        # One scatter per bank and chunk, not one per detector.
        scatter = snap["scatter"]
        assert scatter["calls"] == sum(ingests)
        assert len(banks) < sum(ingests) <= len(banks) * report.chunks
        assert 0.0 < scatter["seconds"] <= report.seconds

    def test_profiled_pass_splits_kmv_from_l0_inserts(self, monkeypatch):
        # LargeSet's case-2b bank is credited to kmv-insert, its inserts
        # and its table builds; l0-insert is LargeCommon's L0Sketch.
        counts = {"insert": 0, "tabulate": 0, "l0": 0}

        def counting(method, name, nonempty=False):
            def wrapper(self, *args):
                counts[name] += not nonempty or bool(len(args[0]))
                return method(self, *args)

            return wrapper

        monkeypatch.setattr(
            KMVBank, "insert", counting(KMVBank.insert, "insert", True)
        )
        monkeypatch.setattr(
            KMVBank, "tabulate", counting(KMVBank.tabulate, "tabulate")
        )
        monkeypatch.setattr(
            L0Sketch, "_ingest_hashed", counting(L0Sketch._ingest_hashed, "l0")
        )
        workload = planted_cover(800, 120, 6, seed=3)
        stream = EdgeStream.from_system(
            workload.system, order="random", seed=4
        )
        algo = EstimateMaxCover(
            m=stream.m, n=stream.n, k=6, alpha=4.0, seed=0
        )
        PROFILER.start()
        report = StreamRunner(chunk_size=1024).run(algo, stream)
        PROFILER.stop()
        tables = sum(
            run._l0._cells is not None
            for _z, _reducer, oracle in algo._branches
            for run in oracle._large_set._runs
        )
        assert 0 < tables == counts["tabulate"]
        snap = PROFILER.snapshot()
        assert snap["kmv-insert"]["calls"] == counts["insert"] + tables
        assert snap["l0-insert"]["calls"] == counts["l0"] > 0
        for name in ("kmv-insert", "l0-insert"):
            assert 0.0 < snap[name]["seconds"] <= report.seconds
