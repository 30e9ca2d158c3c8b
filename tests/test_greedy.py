"""Tests for offline greedy / lazy greedy / exact Max k-Cover solvers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.coverage.exact import exact_max_cover, optimal_coverage
from repro.coverage.greedy import (
    GreedyResult,
    array_greedy,
    greedy_max_cover,
    lazy_greedy,
)
from repro.coverage.setsystem import SetSystem
from repro.streams.generators import planted_cover, random_uniform


def _array_greedy(system, k):
    """:func:`array_greedy` on ``system``'s edges, which come sorted."""
    edges = np.array(system.edges(), dtype=np.int64).reshape(-1, 2)
    return array_greedy(edges[:, 0], edges[:, 1], k)


def _assert_solvers_agree(system, k):
    """All three solvers give the same picks, coverage and gains."""
    plain = greedy_max_cover(system, k)
    assert lazy_greedy(system, k) == plain
    assert _array_greedy(system, k) == plain


class TestGreedy:
    def test_picks_largest_first(self, tiny_system):
        result = greedy_max_cover(tiny_system, 1)
        assert result.chosen == (3,)
        assert result.coverage == 5

    def test_two_picks(self, tiny_system):
        result = greedy_max_cover(tiny_system, 2)
        assert result.chosen[0] == 3
        assert result.coverage == 7  # {0..4} + {6,7}

    def test_stops_when_nothing_gains(self, tiny_system):
        result = greedy_max_cover(tiny_system, 5)
        assert result.coverage == 9
        # set 0 is redundant after set 3, so <= 4 sets suffice.
        assert len(result.chosen) <= 4

    def test_k_zero(self, tiny_system):
        result = greedy_max_cover(tiny_system, 0)
        assert result.chosen == ()
        assert result.coverage == 0

    def test_k_exceeds_m(self, tiny_system):
        result = greedy_max_cover(tiny_system, 100)
        assert result.coverage == 9

    def test_rejects_negative_k(self, tiny_system):
        with pytest.raises(ValueError):
            greedy_max_cover(tiny_system, -1)
        with pytest.raises(ValueError):
            lazy_greedy(tiny_system, -1)
        with pytest.raises(ValueError):
            _array_greedy(tiny_system, -1)

    def test_gains_non_increasing(self):
        workload = random_uniform(n=200, m=50, set_size=20, seed=1)
        result = greedy_max_cover(workload.system, 10)
        assert list(result.gains) == sorted(result.gains, reverse=True)

    def test_gains_sum_to_coverage(self):
        workload = random_uniform(n=200, m=50, set_size=20, seed=2)
        result = greedy_max_cover(workload.system, 8)
        assert sum(result.gains) == result.coverage


class TestLazyGreedy:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_plain_greedy(self, seed):
        workload = random_uniform(n=150, m=40, set_size=15, seed=seed)
        _assert_solvers_agree(workload.system, 7)

    def test_matches_on_tiny(self, tiny_system):
        # k = 0 through k beyond m = 5.
        for k in range(8):
            _assert_solvers_agree(tiny_system, k)

    def test_recovers_planted_solution(self):
        workload = planted_cover(n=300, m=100, k=5, coverage_frac=0.9, seed=3)
        result = lazy_greedy(workload.system, 5)
        assert result.coverage >= workload.planted_coverage * 0.95
        assert _array_greedy(workload.system, 5) == result

    def test_matches_on_tie_heavy_instances(self):
        """Tiny universes make equal gains, and empty sets, common."""
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(1, 16))
            sets = [
                rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                for _ in range(int(rng.integers(1, 13)))
            ]
            k = int(rng.integers(0, 15))
            _assert_solvers_agree(SetSystem(sets, n=n), k)

    def test_matches_on_no_edges(self):
        for system in (SetSystem([]), SetSystem([set(), set()], n=3)):
            for k in (0, 3):
                _assert_solvers_agree(system, k)
        assert _array_greedy(SetSystem([]), 3) == GreedyResult((), 0, ())

    def test_array_greedy_rejects_malformed_edges(self):
        with pytest.raises(ValueError, match="equal length"):
            array_greedy([0, 1], [0], 1)
        with pytest.raises(ValueError, match="non-negative"):
            array_greedy([0, 1], [-1, 0], 1)


class TestExact:
    def test_small_instance(self, tiny_system):
        ids, coverage = exact_max_cover(tiny_system, 2)
        assert coverage == 7
        assert tiny_system.coverage(ids) == 7

    def test_k_zero(self, tiny_system):
        assert exact_max_cover(tiny_system, 0) == ((), 0)

    def test_beats_or_matches_greedy(self):
        for seed in range(5):
            workload = random_uniform(n=60, m=12, set_size=10, seed=seed)
            greedy = lazy_greedy(workload.system, 4).coverage
            _, exact = exact_max_cover(workload.system, 4)
            assert exact >= greedy

    def test_greedy_within_one_minus_one_over_e(self):
        """The Nemhauser-Wolsey-Fisher [35] guarantee, empirically."""
        bound = 1 - 1 / math.e
        for seed in range(5):
            workload = random_uniform(n=80, m=14, set_size=12, seed=seed)
            greedy = lazy_greedy(workload.system, 4).coverage
            _, exact = exact_max_cover(workload.system, 4)
            assert greedy >= bound * exact - 1e-9

    def test_enumeration_cap(self):
        big = SetSystem([{i} for i in range(60)])
        with pytest.raises(ValueError, match="safety cap"):
            exact_max_cover(big, 30)

    def test_rejects_negative_k(self, tiny_system):
        with pytest.raises(ValueError):
            exact_max_cover(tiny_system, -2)


class TestOptimalCoverage:
    def test_uses_exact_when_feasible(self, tiny_system):
        assert optimal_coverage(tiny_system, 2) == 7

    def test_falls_back_to_greedy(self):
        big = SetSystem([{i, (i + 1) % 80} for i in range(80)])
        value = optimal_coverage(big, 40)
        assert value > 0

    def test_k_clamped(self, tiny_system):
        assert optimal_coverage(tiny_system, 0) == 0
        assert optimal_coverage(tiny_system, 100) == 9
