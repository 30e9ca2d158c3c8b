"""Tests for the vectorised batch-processing path.

The contract: for linear sketches the batch kernels produce *identical*
state to the scalar path; for algorithms with candidate pools the
results are functionally equivalent (same detections, matching
estimates); and the end-to-end batch pipeline matches the sequential
pipeline on every workload regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EdgeStream, Parameters
from repro.base import StreamConsumedError
from repro.baselines import BateniEtAlSketch, McGregorVuEstimator
from repro.core.estimate import EstimateMaxCover
from repro.core.large_common import LargeCommon
from repro.core.large_set import LargeSet
from repro.core.oracle import Oracle
from repro.core.reporting import MaxCoverReporter
from repro.core.small_set import SmallSet
from repro.core.universe_reduction import UniverseReducer
from repro.lowerbound.communication import L2Distinguisher
from repro.lowerbound.disjointness import make_disjointness_instance
from repro.sketch.contributing import F2Contributing
from repro.sketch.countsketch import CountSketch, F2HeavyHitter
from repro.sketch.f2 import F2Sketch
from repro.sketch.l0 import L0Sketch


@pytest.fixture(scope="module")
def edge_arrays(planted_workload):
    stream = EdgeStream.from_system(
        planted_workload.system, order="random", seed=3
    )
    return stream.as_arrays()


class TestProtocol:
    def test_empty_batch_is_noop(self):
        sk = L0Sketch(seed=1)
        sk.process_batch(np.empty(0, dtype=np.int64))
        assert sk.tokens_seen == 0

    def test_batch_counts_tokens(self):
        sk = L0Sketch(seed=1)
        sk.process_batch(np.arange(10))
        assert sk.tokens_seen == 10

    def test_batch_after_finalize_raises(self):
        sk = L0Sketch(seed=1)
        sk.estimate()
        with pytest.raises(StreamConsumedError):
            sk.process_batch(np.arange(3))

    def test_mismatched_columns_rejected(self):
        params = Parameters.practical(50, 50, 3, 2.0)
        oracle = Oracle(params, seed=1)
        with pytest.raises(ValueError, match="equal lengths"):
            oracle.process_batch(np.arange(3), np.arange(4))

    def test_process_stream_batched_edges(self, planted_workload):
        stream = EdgeStream.from_system(
            planted_workload.system, order="random", seed=3
        )
        params = Parameters.practical(
            planted_workload.system.m, planted_workload.system.n, 6, 3.0
        )
        oracle = Oracle(params, seed=1)
        oracle.process_stream_batched(stream, batch_size=100)
        assert oracle.tokens_seen == len(stream)

    def test_process_stream_batched_items(self):
        sk = L0Sketch(seed=2)
        sk.process_stream_batched(range(500), batch_size=64)
        assert sk.tokens_seen == 500

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            L0Sketch(seed=1).process_stream_batched([], batch_size=0)


class TestExactEquivalence:
    """Linear sketches: batch state must equal scalar state exactly."""

    def test_l0(self):
        items = np.asarray([x % 300 for x in range(2000)])
        scalar = L0Sketch(sketch_size=32, seed=5)
        for x in items:
            scalar.process(int(x))
        batched = L0Sketch(sketch_size=32, seed=5)
        batched.process_batch(items)
        assert batched.estimate() == scalar.estimate()

    def test_l0_across_many_small_batches(self):
        items = np.arange(1000) % 217
        scalar = L0Sketch(sketch_size=16, seed=6)
        for x in items:
            scalar.process(int(x))
        batched = L0Sketch(sketch_size=16, seed=6)
        for start in range(0, 1000, 37):
            batched.process_batch(items[start : start + 37])
        assert batched.estimate() == scalar.estimate()

    def test_f2(self):
        items = np.asarray([x % 40 for x in range(800)])
        scalar = F2Sketch(means=8, medians=3, seed=7)
        for x in items:
            scalar.process(int(x))
        batched = F2Sketch(means=8, medians=3, seed=7)
        batched.process_batch(items)
        assert batched.estimate() == scalar.estimate()

    def test_countsketch_table_identical(self):
        items = np.asarray([x % 25 for x in range(600)])
        scalar = CountSketch(width=64, depth=3, seed=8)
        for x in items:
            scalar.update(int(x))
        batched = CountSketch(width=64, depth=3, seed=8)
        batched.update_batch(items)
        assert np.array_equal(scalar._table, batched._table)

    def test_countsketch_with_counts(self):
        scalar = CountSketch(width=32, depth=3, seed=9)
        for _ in range(7):
            scalar.update(3)
        scalar.update(5, 4)
        batched = CountSketch(width=32, depth=3, seed=9)
        batched.update_batch(np.asarray([3, 5]), np.asarray([7, 4]))
        assert np.array_equal(scalar._table, batched._table)


class TestFunctionalEquivalence:
    """Candidate-pool algorithms: same detections, close estimates."""

    def test_heavy_hitter_same_detections(self):
        items = np.asarray([42] * 800 + list(range(100, 400)))
        scalar = F2HeavyHitter(phi=0.1, seed=10)
        for x in items:
            scalar.process(int(x))
        batched = F2HeavyHitter(phi=0.1, seed=10)
        batched.process_batch(items)
        s_out, b_out = scalar.heavy_hitters(), batched.heavy_hitters()
        assert 42 in s_out and 42 in b_out
        assert b_out[42] == s_out[42]  # CountSketch part is identical

    def test_contributing_same_top_coordinate(self):
        items = np.asarray([7] * 500 + [x % 100 + 1000 for x in range(400)])
        scalar = F2Contributing(gamma=0.2, max_class_size=16, seed=11)
        for x in items:
            scalar.process(int(x))
        batched = F2Contributing(gamma=0.2, max_class_size=16, seed=11)
        batched.process_batch(items)
        assert scalar.contributing()[0].coordinate == 7
        assert batched.contributing()[0].coordinate == 7


class TestCoreEquivalence:
    def test_large_common_identical(self, planted_workload, edge_arrays):
        system = planted_workload.system
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        set_ids, elements = edge_arrays
        scalar = LargeCommon(params, seed=12)
        for s, e in zip(set_ids, elements):
            scalar.process(int(s), int(e))
        batched = LargeCommon(params, seed=12)
        batched.process_batch(set_ids, elements)
        assert scalar.layer_coverages() == batched.layer_coverages()

    def test_small_set_identical(self, planted_workload, edge_arrays):
        system = planted_workload.system
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        set_ids, elements = edge_arrays
        scalar = SmallSet(params, seed=13)
        for s, e in zip(set_ids, elements):
            scalar.process(int(s), int(e))
        batched = SmallSet(params, seed=13)
        batched.process_batch(set_ids, elements)
        for a, b in zip(scalar._runs, batched._runs):
            assert np.array_equal(a.edges, b.edges)
            assert a.alive == b.alive
        assert scalar.estimate() == batched.estimate()

    def test_large_set_equivalent_estimate(self, planted_workload, edge_arrays):
        system = planted_workload.system
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        set_ids, elements = edge_arrays
        scalar = LargeSet(params, seed=14)
        for s, e in zip(set_ids, elements):
            scalar.process(int(s), int(e))
        batched = LargeSet(params, seed=14)
        batched.process_batch(set_ids, elements)
        s_est, b_est = scalar.estimate(), batched.estimate()
        if s_est is None or b_est is None:
            assert s_est == b_est
        else:
            assert b_est == pytest.approx(s_est, rel=0.5)

    def test_oracle_end_to_end(self, planted_workload, edge_arrays):
        system = planted_workload.system
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        set_ids, elements = edge_arrays
        scalar = Oracle(params, seed=15)
        for s, e in zip(set_ids, elements):
            scalar.process(int(s), int(e))
        batched = Oracle(params, seed=15)
        batched.process_batch(set_ids, elements)
        assert batched.estimate() == pytest.approx(
            scalar.estimate(), rel=0.5
        )

    def test_estimate_max_cover_batched(self, planted_workload, edge_arrays):
        system = planted_workload.system
        set_ids, elements = edge_arrays
        algo = EstimateMaxCover(
            m=system.m, n=system.n, k=6, alpha=3.0,
            z_guesses=[256], seed=16,
        )
        algo.process_batch(set_ids, elements)
        assert algo.estimate() > 0

    def test_reporter_batched(self, planted_workload, edge_arrays):
        system = planted_workload.system
        set_ids, elements = edge_arrays
        reporter = MaxCoverReporter(
            m=system.m, n=system.n, k=6, alpha=3.0, seed=17
        )
        reporter.process_batch(set_ids, elements)
        cover = reporter.solution()
        assert len(cover.set_ids) <= 6
        assert system.coverage(cover.set_ids) > 0

    def test_universe_reducer_map_batch(self):
        reducer = UniverseReducer(z=32, seed=18)
        xs = np.arange(500)
        assert list(reducer.map_batch(xs)) == [
            reducer.map_element(int(x)) for x in xs
        ]


class TestBaselineEquivalence:
    def test_mcgregor_vu_identical(self, planted_workload, edge_arrays):
        system = planted_workload.system
        set_ids, elements = edge_arrays
        scalar = McGregorVuEstimator(system.m, system.n, 6, eps=0.4, seed=19)
        for s, e in zip(set_ids, elements):
            scalar.process(int(s), int(e))
        batched = McGregorVuEstimator(system.m, system.n, 6, eps=0.4, seed=19)
        batched.process_batch(set_ids, elements)
        assert scalar.estimate() == batched.estimate()

    def test_bateni_identical(self, planted_workload, edge_arrays):
        system = planted_workload.system
        set_ids, elements = edge_arrays
        scalar = BateniEtAlSketch(system.m, system.n, 6, eps=0.4, seed=20)
        for s, e in zip(set_ids, elements):
            scalar.process(int(s), int(e))
        batched = BateniEtAlSketch(system.m, system.n, 6, eps=0.4, seed=20)
        batched.process_batch(set_ids, elements)
        assert scalar.estimate() == batched.estimate()

    def test_distinguisher_same_decision(self):
        inst = make_disjointness_instance(m=300, players=6, no_case=True, seed=21)
        set_ids, elements = inst.stream.as_arrays()
        scalar = L2Distinguisher(300, 6, width=256, seed=22)
        for s, e in zip(set_ids, elements):
            scalar.process(int(s), int(e))
        batched = L2Distinguisher(300, 6, width=256, seed=22)
        batched.process_batch(set_ids, elements)
        assert scalar.decide_no_case() == batched.decide_no_case()


class TestEdgeStreamArrays:
    def test_as_arrays_roundtrip(self, planted_workload):
        stream = EdgeStream.from_system(
            planted_workload.system, order="random", seed=9
        )
        set_ids, elements = stream.as_arrays()
        assert list(zip(set_ids.tolist(), elements.tolist())) == stream.edges

    def test_empty_stream_arrays(self):
        set_ids, elements = EdgeStream([], m=1, n=1).as_arrays()
        assert len(set_ids) == 0
        assert len(elements) == 0
