"""Tests for the SmallSet subroutine (Section 4.3, Figure 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.base import StreamConsumedError
from repro.core.parameters import Parameters
from repro.core.small_set import SmallSet
from repro.coverage.greedy import lazy_greedy
from repro.coverage.setsystem import SetSystem
from repro.sketch.serialize import state_difference
from repro.streams.edge_stream import EdgeStream
from repro.streams.generators import planted_cover


def _params(workload, k, alpha):
    system = workload.system
    return Parameters.practical(m=system.m, n=system.n, k=k, alpha=alpha)


def _stream(workload, seed=1):
    return EdgeStream.from_system(workload.system, order="random", seed=seed)


def _filled(workload, alpha=3.0):
    algo = SmallSet(_params(workload, k=6, alpha=alpha), seed=1)
    algo.process_stream(_stream(workload))
    return algo


def _reference_value(algo, run):
    """A run's value rebuilt from its stored edges with ``lazy_greedy``:
    the support cutoff, then sampled coverage scaled to the universe and
    discounted by 2/3, capped at ``n``."""
    if not run.alive or not run.edges:
        return None
    pairs = run.state_arrays()["edges"].tolist()
    system = SetSystem.from_edges(pairs, n=algo.params.n)
    result = lazy_greedy(system, algo.cover_size)
    if result.coverage < algo.min_support:
        return None
    sampled_rate = run.element_sampler.probability
    scaled = 2.0 * (result.coverage / sampled_rate) / 3.0
    return min(float(algo.params.n), scaled), result.chosen


class TestEstimation:
    def test_fires_on_many_small_sets(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        hits = 0
        for seed in range(5):
            algo = SmallSet(params, seed=seed)
            algo.process_stream(_stream(planted_workload))
            if algo.estimate() is not None:
                hits += 1
        assert hits >= 4

    def test_sound_and_useful(self, planted_workload):
        k, alpha = 6, 3.0
        params = _params(planted_workload, k=k, alpha=alpha)
        opt = lazy_greedy(planted_workload.system, k).coverage
        values = []
        for seed in range(6):
            algo = SmallSet(params, seed=seed)
            algo.process_stream(_stream(planted_workload))
            est = algo.estimate()
            if est is not None:
                values.append(est)
        assert values
        for value in values:
            assert value <= 1.3 * opt            # soundness
        assert max(values) >= opt / (4 * alpha)  # usefulness

    def test_cover_size_respects_k(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=1)
        assert algo.cover_size <= 6

    def test_best_cover_returns_original_ids(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=2)
        algo.process_stream(_stream(planted_workload))
        best = algo.best_cover()
        assert best is not None
        value, ids = best
        system = planted_workload.system
        assert all(0 <= j < system.m for j in ids)
        assert len(ids) <= algo.cover_size
        # The reported sets genuinely cover a related amount.
        true_cov = system.coverage(ids)
        assert true_cov >= value / 3

    def test_run_values_match_lazy_greedy_reference(self, planted_workload):
        """Every run's solve equals one rebuilt with ``lazy_greedy``."""
        cut = []
        for alpha in (3.0, 16.0):
            algo = _filled(planted_workload, alpha)
            for run in algo._runs:
                expected = _reference_value(algo, run)
                assert algo._run_value(run) == expected
                cut.append(expected is None)
        # The support cutoff both keeps and drops runs here.
        assert any(cut) and not all(cut)

    def test_estimate_finalises(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=1)
        algo.process_stream(_stream(planted_workload))
        algo.estimate()
        with pytest.raises(StreamConsumedError):
            algo.process(0, 0)


class TestBudget:
    def test_runs_die_when_budget_exceeded(self):
        """A run with a microscopic budget must terminate, not grow."""
        workload = planted_cover(n=200, m=100, k=6, seed=3)
        params = _params(workload, k=6, alpha=2.0)
        algo = SmallSet(params, seed=1)
        for run in algo._runs:
            run.budget = 2
        algo.process_stream(_stream(workload))
        assert all(not run.alive or not run.edges for run in algo._runs)
        assert algo.estimate() is None

    def test_space_counts_stored_edges(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=1)
        before = algo.space_words()
        algo.process_stream(_stream(planted_workload))
        assert algo.space_words() > before

    def test_space_shrinks_with_alpha(self, planted_workload):
        system = planted_workload.system
        spaces = []
        for alpha in (2.0, 6.0):
            params = Parameters.practical(system.m, system.n, 6, alpha)
            algo = SmallSet(params, seed=1)
            algo.process_stream(_stream(planted_workload))
            spaces.append(algo.space_words())
        assert spaces[1] < spaces[0]


class TestState:
    def test_round_trip(self, planted_workload):
        algo = _filled(planted_workload)
        fresh = SmallSet(algo.params, seed=1)
        fresh.load_state_arrays(algo.state_arrays())
        assert [run.edges for run in fresh._runs] == [
            run.edges for run in algo._runs
        ]
        assert (
            state_difference(fresh.state_arrays(), algo.state_arrays())
            is None
        )
        assert fresh.estimate() == algo.estimate()

    @pytest.mark.parametrize(
        "edges, match",
        [
            (np.zeros((3, 3), dtype=np.int64), r"\(E, 2\) integer array"),
            (np.zeros(4, dtype=np.int64), r"\(E, 2\) integer array"),
            (np.zeros((2, 2)), r"\(E, 2\) integer array"),
            ([[150, 0]], r"set id outside \[0, 150\)"),
            ([[-1, 0]], r"set id outside \[0, 150\)"),
            # Element n of set 0 would alias element 0 of set 1.
            ([[0, 300]], r"element outside \[0, 300\)"),
            ([[0, -1]], r"element outside \[0, 300\)"),
        ],
        ids=[
            "three-columns",
            "one-dimensional",
            "float",
            "set-id-m",
            "negative-set-id",
            "element-n",
            "negative-element",
        ],
    )
    def test_rejects_corrupt_edges(self, planted_workload, edges, match):
        algo = _filled(planted_workload)
        state = algo.state_arrays()
        state["runs/0/edges"] = np.asarray(edges)
        with pytest.raises(ValueError, match=match):
            SmallSet(algo.params, seed=1).load_state_arrays(state)


class TestValidation:
    def test_rejects_bad_repetitions(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        with pytest.raises(ValueError):
            SmallSet(params, repetitions=0)

    def test_gamma_ladder_stops_at_saturation(self, planted_workload):
        """The ladder starts at 1 and is truncated at the first guess
        whose element sample saturates the universe (higher guesses are
        duplicate runs -- the Lemma 4.21 space discipline)."""
        params = _params(planted_workload, k=6, alpha=8.0)
        algo = SmallSet(params, seed=1)
        assert min(algo.gammas) == 1.0
        assert algo.gammas == sorted(algo.gammas)
        import math

        log_m = max(1.0, math.log2(params.m))
        for gamma in algo.gammas[:-1]:
            assert 4.0 * gamma * algo.cover_size * log_m < params.n
