"""Tests for sketch checkpointing (save/restore round trips)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.estimate import EstimateMaxCover
from repro.core.large_set import LargeSet
from repro.core.oracle import Oracle
from repro.core.parameters import Parameters
from repro.sketch.countsketch import CountSketch
from repro.sketch.f2 import F2Sketch
from repro.sketch.hyperloglog import HyperLogLog
from repro.sketch.l0 import L0Sketch
from repro.sketch.serialize import (
    dumps_state,
    load_sketch,
    load_state,
    loads_state,
    save_sketch,
    save_state,
)
from repro.streams.edge_stream import EdgeStream


class TestRoundTrip:
    def test_l0(self, tmp_path):
        sketch = L0Sketch(sketch_size=32, seed=5)
        sketch.process_batch(np.arange(2000) % 700)
        path = tmp_path / "l0.npz"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        assert restored.estimate() == sketch.estimate()

    def test_f2(self, tmp_path):
        sketch = F2Sketch(means=8, medians=3, seed=5)
        sketch.process_batch(np.arange(500) % 40)
        path = tmp_path / "f2.npz"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        assert restored.estimate() == sketch.estimate()

    def test_countsketch(self, tmp_path):
        sketch = CountSketch(width=64, depth=3, seed=5)
        sketch.update_batch(np.arange(500) % 25)
        path = tmp_path / "cs.npz"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        for x in range(25):
            assert restored.query(x) == sketch.query(x)

    def test_domain_countsketch(self, tmp_path):
        sketch = CountSketch(width=64, depth=3, seed=5, domain=25)
        sketch.update_batch(np.arange(500) % 25)
        path = tmp_path / "cs.npz"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        assert restored.domain == 25
        assert np.array_equal(restored._table, sketch._table)
        for x in range(25):
            assert restored.query(x) == sketch.query(x)

    def test_hyperloglog(self, tmp_path):
        sketch = HyperLogLog(precision=9, seed=5)
        sketch.process_batch(np.arange(3000))
        path = tmp_path / "hll.npz"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        assert restored.estimate() == sketch.estimate()


class TestContinuation:
    def test_restored_sketch_continues_identically(self, tmp_path):
        """Checkpoint mid-stream; the restored sketch must finish the
        stream with the same result as an uninterrupted one."""
        items = np.arange(4000) % 900
        uninterrupted = L0Sketch(sketch_size=16, seed=7)
        uninterrupted.process_batch(items)

        first = L0Sketch(sketch_size=16, seed=7)
        first.process_batch(items[:2000])
        path = tmp_path / "ckpt.npz"
        save_sketch(first, path)
        resumed = load_sketch(path)
        resumed.process_batch(items[2000:])
        assert resumed.estimate() == uninterrupted.estimate()
        assert resumed.tokens_seen == 4000

    def test_restored_sketches_merge(self, tmp_path):
        a = HyperLogLog(precision=8, seed=9)
        a.process_batch(np.arange(0, 2000, 2))
        b = HyperLogLog(precision=8, seed=9)
        b.process_batch(np.arange(1, 2000, 2))
        save_sketch(a, tmp_path / "a.npz")
        save_sketch(b, tmp_path / "b.npz")
        full = HyperLogLog(precision=8, seed=9)
        full.process_batch(np.arange(2000))
        merged = load_sketch(tmp_path / "a.npz").merge(
            load_sketch(tmp_path / "b.npz")
        )
        assert merged.estimate() == full.estimate()


class TestErrors:
    def test_unsupported_type(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialise"):
            save_sketch(object(), tmp_path / "x.npz")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, kind=np.bytes_(b"martian"), data=np.arange(3))
        with pytest.raises(ValueError, match="unknown sketch kind"):
            load_sketch(path)


class TestMalformedStateRejected:
    """Every state load raises ``ValueError`` on malformed arrays instead
    of accepting state that later breaks a query or an estimate."""

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((3, 70), dtype=np.int64),
            np.zeros((4, 64, 1), dtype=np.int64),
            np.zeros((4, 64), dtype=np.float64),
        ],
        ids=["shape", "ndim", "float"],
    )
    def test_countsketch_table(self, table):
        sketch = CountSketch(width=64, depth=4, seed=1)
        with pytest.raises(ValueError, match="CountSketch table"):
            sketch.load_state_arrays({"table": table, "tokens": 0})

    def test_countsketch_unreachable_cell(self):
        """A domain-mode sketch holds only the cells its domain reaches;
        a nonzero counter anywhere else cannot come from its stream."""
        sketch = CountSketch(width=64, depth=4, seed=1, domain=10)
        table = np.zeros((4, 64), dtype=np.int64)
        reached = sketch._cells()[2]
        table[0, reached[0]] = 3
        table[2, np.setdiff1d(np.arange(64), reached[2])[0]] = 5
        with pytest.raises(ValueError, match="no coordinate"):
            sketch.load_state_arrays({"table": table, "tokens": 0})
        assert not sketch._table.any()

    def test_countsketch_loads_in_place(self):
        source = CountSketch(width=64, depth=4, seed=1)
        source.update_batch(np.arange(100))
        target = CountSketch(width=64, depth=4, seed=1)
        table = target._table
        target.load_state_arrays(source.state_arrays())
        assert target._table is table
        assert np.array_equal(table, source._table)

    @pytest.mark.parametrize(
        "heap, match",
        [
            (np.arange(20), "more than sketch_size"),
            (np.asarray([-1, 5]), "outside"),
            (np.asarray([5, 2**31 - 1]), "outside"),
            (np.asarray([5, 3]), "strictly increase"),
            (np.asarray([3, 3]), "strictly increase"),
            (np.asarray([1.0, 2.0]), "integer"),
        ],
        ids=["overfull", "negative", "field", "unsorted", "repeated", "float"],
    )
    def test_l0_heap(self, heap, match):
        sketch = L0Sketch(sketch_size=8, seed=1)
        with pytest.raises(ValueError, match=match):
            sketch.load_state_arrays({"heap": heap, "tokens": 0})

    @staticmethod
    def _run_state(planted_workload):
        system = planted_workload.system
        params = Parameters.practical(m=system.m, n=system.n, k=6, alpha=3.0)
        run = LargeSet(params, w=3, seed=21)._runs[0]
        return run, run.state_arrays()

    @pytest.mark.parametrize(
        "sids, counts, values, match",
        [
            ([-1], [1], [5], "row id outside"),
            ([10**6], [1], [5], "row id outside"),
            ([4, 2], [1, 1], [5, 5], "row ids must strictly increase"),
            ([2, 2], [1, 1], [5, 6], "row ids must strictly increase"),
            ([2], [33], list(range(33)), "count outside"),
            ([2], [1], [2**31 - 1], "value outside"),
            ([2], [1], [-3], "value outside"),
            ([2], [2], [7, 7], "values must strictly increase"),
            ([2], [2], [5], "shapes disagree"),
        ],
        ids=[
            "negative-sid",
            "sid-past-domain",
            "unsorted-sids",
            "repeated-sids",
            "overfull-row",
            "value-past-field",
            "negative-value",
            "repeated-value",
            "short-values",
        ],
    )
    def test_kmv_bank(self, planted_workload, sids, counts, values, match):
        run, state = self._run_state(planted_workload)
        state["l0_sids"] = np.asarray(sids, dtype=np.int64)
        state["l0_counts"] = np.asarray(counts, dtype=np.int64)
        state["l0_values"] = np.asarray(values, dtype=np.int64)
        with pytest.raises(ValueError, match=match):
            run.load_state_arrays(state)

    def test_countsketch_file(self, tmp_path):
        path = tmp_path / "cs.npz"
        save_sketch(CountSketch(width=64, depth=4, seed=1), path)
        with np.load(path) as data:
            fields = dict(data)
        fields["table"] = np.zeros((3, 70), dtype=np.int64)
        np.savez(path, **fields)
        with pytest.raises(ValueError, match="CountSketch table"):
            load_sketch(path)

    def test_l0_file(self, tmp_path):
        path = tmp_path / "l0.npz"
        save_sketch(L0Sketch(sketch_size=8, seed=1), path)
        with np.load(path) as data:
            fields = dict(data)
        fields["heap"] = -np.arange(20, 0, -1)
        np.savez(path, **fields)
        with pytest.raises(ValueError, match="more than sketch_size"):
            load_sketch(path)


def _composite_cases(planted_workload):
    """``(name, factory)`` for the composite state-protocol round trips.

    Each factory fixes every constructor argument (seeds included), the
    precondition of :func:`load_state`.
    """
    system = planted_workload.system
    params = Parameters.practical(m=system.m, n=system.n, k=6, alpha=3.0)
    return [
        ("oracle", partial(Oracle, params, seed=21)),
        ("large_set", partial(LargeSet, params, w=3, seed=21)),
        (
            "estimate_max_cover",
            partial(
                EstimateMaxCover,
                m=system.m,
                n=system.n,
                k=6,
                alpha=3.0,
                seed=21,
            ),
        ),
    ]


class TestCompositeState:
    """The generic ``save_state``/``load_state`` protocol on composites."""

    def _halves(self, planted_workload):
        edges = EdgeStream.from_system(
            planted_workload.system, order="random", seed=17
        ).edges
        mid = len(edges) // 2
        return edges[:mid], edges[mid:]

    @staticmethod
    def _feed(algo, edges):
        for set_id, element in edges:
            algo.process(set_id, element)
        return algo

    def test_file_round_trip_preserves_state(
        self, tmp_path, planted_workload
    ):
        first, _second = self._halves(planted_workload)
        for name, factory in _composite_cases(planted_workload):
            algo = self._feed(factory(), first)
            path = tmp_path / f"{name}.npz"
            save_state(algo, path)
            restored = load_state(factory(), path)
            assert restored.tokens_seen == algo.tokens_seen
            before = algo.state_arrays()
            after = restored.state_arrays()
            assert list(before) == list(after)
            for key in before:
                assert np.array_equal(before[key], after[key]), (name, key)

    def test_restored_composites_merge_like_in_process(
        self, planted_workload
    ):
        """serialise -> deserialise -> merge == in-process merge, for
        every composite -- the coordinator's actual code path."""
        first, second = self._halves(planted_workload)
        for name, factory in _composite_cases(planted_workload):
            a = self._feed(factory(), first)
            b = self._feed(factory(), second)
            shipped = loads_state(factory(), dumps_state(a)).merge(
                loads_state(factory(), dumps_state(b))
            )
            in_process = a.merge(b)
            assert shipped.tokens_seen == in_process.tokens_seen
            before = in_process.state_arrays()
            after = shipped.state_arrays()
            assert list(before) == list(after), name
            for key in before:
                assert np.array_equal(before[key], after[key]), (name, key)

    def test_restored_composite_continues_identically(
        self, planted_workload
    ):
        first, second = self._halves(planted_workload)
        _name, factory = _composite_cases(planted_workload)[2]
        uninterrupted = self._feed(factory(), first + second)
        resumed = loads_state(
            factory(), dumps_state(self._feed(factory(), first))
        )
        self._feed(resumed, second)
        assert resumed.estimate() == uninterrupted.estimate()
        assert resumed.tokens_seen == len(first) + len(second)

    def test_load_state_rejects_wrong_class(self, tmp_path):
        sketch = L0Sketch(sketch_size=8, seed=1)
        path = tmp_path / "l0_state.npz"
        save_state(sketch, path)
        with pytest.raises(TypeError, match="cannot load into"):
            load_state(HyperLogLog(precision=8, seed=1), path)
