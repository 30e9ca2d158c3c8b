"""Adversarial and degenerate-input robustness.

The general streaming model allows duplicate edges, pathological
interleavings, and trivial instance shapes; these tests inject each and
assert the algorithms neither crash nor lose their contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EdgeStream, Parameters, lazy_greedy
from repro.baselines import McGregorVuEstimator
from repro.core.estimate import EstimateMaxCover
from repro.core.oracle import Oracle
from repro.core.reporting import MaxCoverReporter
from repro.core.small_set import SmallSet
from repro.coverage.setsystem import SetSystem


class TestDuplicateEdges:
    """Replayed edges must not change estimates or consume budgets."""

    def _replayed(self, workload, copies=5):
        stream = EdgeStream.from_system(workload.system, order="random", seed=1)
        set_ids, elements = stream.as_arrays()
        return (
            np.tile(set_ids, copies),
            np.tile(elements, copies),
            (set_ids, elements),
        )

    def test_small_set_budget_survives_replays(self, planted_workload):
        system = planted_workload.system
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        dup_sets, dup_elems, (set_ids, elements) = self._replayed(
            planted_workload
        )
        clean = SmallSet(params, seed=2)
        clean.process_batch(set_ids, elements)
        noisy = SmallSet(params, seed=2)
        noisy.process_batch(dup_sets, dup_elems)
        for a, b in zip(clean._runs, noisy._runs):
            assert a.alive == b.alive
            assert np.array_equal(a.edges, b.edges)
        assert noisy.estimate() == clean.estimate()

    def test_oracle_estimate_stable_under_replays(self, planted_workload):
        system = planted_workload.system
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        dup_sets, dup_elems, (set_ids, elements) = self._replayed(
            planted_workload
        )
        clean = Oracle(params, seed=3)
        clean.process_batch(set_ids, elements)
        noisy = Oracle(params, seed=3)
        noisy.process_batch(dup_sets, dup_elems)
        clean_est, noisy_est = clean.estimate(), noisy.estimate()
        # L0-backed paths are exactly replay-proof; the F2/heavy-hitter
        # path sees inflated superset sizes, so allow a bounded drift.
        assert noisy_est <= 3 * clean_est + 8
        assert noisy_est >= clean_est / 3 - 8

    def test_mcgregor_vu_budget_survives_replays(self, planted_workload):
        system = planted_workload.system
        dup_sets, dup_elems, (set_ids, elements) = self._replayed(
            planted_workload
        )
        clean = McGregorVuEstimator(system.m, system.n, 6, eps=0.4, seed=4)
        clean.process_batch(set_ids, elements)
        noisy = McGregorVuEstimator(system.m, system.n, 6, eps=0.4, seed=4)
        noisy.process_batch(dup_sets, dup_elems)
        assert noisy.estimate() == clean.estimate()


class TestDegenerateShapes:
    def test_single_set_instance(self):
        system = SetSystem([{0, 1, 2}], n=3)
        params = Parameters.practical(1, 3, 1, 1.0)
        oracle = Oracle(params, seed=1)
        oracle.process_batch(*EdgeStream.from_system(system).as_arrays())
        assert 0 <= oracle.estimate() <= 4.5  # L0 noise allowance

    def test_single_element_universe(self):
        system = SetSystem([{0}, {0}, {0}], n=1)
        params = Parameters.practical(3, 1, 1, 1.0)
        oracle = Oracle(params, seed=1)
        oracle.process_batch(*EdgeStream.from_system(system).as_arrays())
        assert oracle.estimate() <= 1.5

    def test_empty_stream(self):
        params = Parameters.practical(10, 10, 2, 2.0)
        oracle = Oracle(params, seed=1)
        assert oracle.estimate() == 0.0

    def test_k_equals_m(self, tiny_system):
        algo = EstimateMaxCover(
            m=tiny_system.m, n=tiny_system.n, k=tiny_system.m, alpha=2.0,
            seed=1,
        )
        # k * alpha >= m: the trivial branch answers immediately.
        assert algo.trivial
        assert algo.estimate() == pytest.approx(tiny_system.n / 2.0)

    def test_k_one(self, tiny_system):
        stream = EdgeStream.from_system(tiny_system, order="random", seed=1)
        params = Parameters.practical(tiny_system.m, tiny_system.n, 1, 1.0)
        oracle = Oracle(params, seed=2)
        oracle.process_batch(*stream.as_arrays())
        best_single = max(
            tiny_system.set_size(j) for j in range(tiny_system.m)
        )
        assert oracle.estimate() <= 1.5 * best_single

    def test_sets_with_shared_everything(self):
        """All sets identical: OPT(k) = |set| for every k."""
        system = SetSystem([{0, 1, 2, 3, 4}] * 20, n=5)
        stream = EdgeStream.from_system(system, order="random", seed=1)
        params = Parameters.practical(20, 5, 3, 2.0)
        oracle = Oracle(params, seed=3)
        oracle.process_batch(*stream.as_arrays())
        assert oracle.estimate() <= 1.5 * 5

    def test_reporter_on_tiny_instance(self, tiny_system):
        reporter = MaxCoverReporter(
            m=tiny_system.m, n=tiny_system.n, k=2, alpha=1.5, seed=1
        )
        stream = EdgeStream.from_system(tiny_system, order="random", seed=1)
        reporter.process_batch(*stream.as_arrays())
        cover = reporter.solution()
        assert len(cover.set_ids) <= 2
        assert all(0 <= j < tiny_system.m for j in cover.set_ids)


class TestPathologicalInterleavings:
    def test_one_element_at_a_time_alternating(self, planted_workload):
        """Adversarial round-robin: every set's edges maximally spread."""
        system = planted_workload.system
        opt = lazy_greedy(system, 6).coverage
        stream = EdgeStream.from_system(system, order="round_robin")
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        oracle = Oracle(params, seed=5)
        oracle.process_batch(*stream.as_arrays())
        est = oracle.estimate()
        assert opt / 30 <= est <= 1.6 * opt

    def test_sorted_by_element_reversed(self, planted_workload):
        system = planted_workload.system
        edges = sorted(system.edges(), key=lambda se: (-se[1], se[0]))
        stream = EdgeStream(edges, m=system.m, n=system.n)
        params = Parameters.practical(system.m, system.n, 6, 3.0)
        oracle = Oracle(params, seed=6)
        oracle.process_batch(*stream.as_arrays())
        opt = lazy_greedy(system, 6).coverage
        assert oracle.estimate() <= 1.6 * opt
