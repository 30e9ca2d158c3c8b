"""Tests for limited-independence hash families (Appendix A substrate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.hashing import (
    MERSENNE_P,
    KWiseHash,
    KWiseHashBank,
    SampledSet,
    SignHash,
    default_degree,
)


class TestDefaultDegree:
    def test_grows_with_instance_size(self):
        assert default_degree(10, 10) <= default_degree(10**6, 10**6)

    def test_at_least_four_wise(self):
        assert default_degree(1, 1) >= 4

    def test_capped(self):
        assert default_degree(2**40, 2**40) <= 64

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            default_degree(0, 5)
        with pytest.raises(ValueError):
            default_degree(5, -1)


class TestKWiseHash:
    def test_range_respected(self):
        h = KWiseHash(17, degree=6, seed=1)
        assert all(0 <= h(x) < 17 for x in range(500))

    def test_deterministic_per_seed(self):
        a = KWiseHash(100, degree=5, seed=42)
        b = KWiseHash(100, degree=5, seed=42)
        assert [a(x) for x in range(50)] == [b(x) for x in range(50)]

    def test_different_seeds_differ(self):
        a = KWiseHash(1000, degree=5, seed=1)
        b = KWiseHash(1000, degree=5, seed=2)
        assert [a(x) for x in range(50)] != [b(x) for x in range(50)]

    def test_scalar_and_vector_paths_agree(self):
        h = KWiseHash(97, degree=8, seed=3)
        xs = np.arange(0, 4000, 7)
        assert list(h(xs)) == [h(int(x)) for x in xs]

    def test_numpy_integer_input(self):
        h = KWiseHash(50, degree=4, seed=9)
        assert h(np.int64(12345)) == h(12345)

    def test_roughly_uniform(self):
        h = KWiseHash(10, degree=4, seed=5)
        counts = np.bincount(h(np.arange(20000)), minlength=10)
        # Each bucket expects 2000; allow generous 20% slack.
        assert counts.min() > 1600
        assert counts.max() < 2400

    def test_pairwise_collision_rate(self):
        h = KWiseHash(1000, degree=4, seed=7)
        values = h(np.arange(1000))
        collisions = 1000 - len(set(values.tolist()))
        # Expected birthday collisions ~ C(1000,2)/1000 ~ 500; allow wide.
        assert collisions < 1000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KWiseHash(0)
        with pytest.raises(ValueError):
            KWiseHash(10, degree=0)

    def test_space_words_equals_degree(self):
        assert KWiseHash(10, degree=13, seed=1).space_words() == 13

    @given(st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=50, deadline=None)
    def test_output_in_range_for_any_input(self, x):
        h = KWiseHash(31, degree=6, seed=8)
        assert 0 <= h(x) < 31


class TestKWiseHashBank:
    """Row ``b`` of one bank pass is member ``b`` hashed on its own."""

    # One degree, different range sizes: the per-row ``mod range`` step
    # must pick each member's own range.
    RANGES = (1, 2, 17, 1000, 1 << 20, MERSENNE_P)
    HASHES = [
        KWiseHash(range_size, degree=5, seed=seed)
        for seed, range_size in enumerate(RANGES)
    ]
    # Includes inputs at and above the field size, reduced mod p first.
    XS = np.array(
        [0, 1, 5, 12_345, MERSENNE_P - 1, MERSENNE_P, MERSENNE_P + 7, 2**40],
        dtype=np.int64,
    )

    def _assert_rows_match(self, rows):
        assert rows.shape == (len(self.HASHES), len(self.XS))
        assert rows.dtype == np.int64
        for row, h in zip(rows, self.HASHES):
            assert np.array_equal(row, h(self.XS))
            assert row.tolist() == [h(int(x)) for x in self.XS]

    def test_rows_match_member_hashes(self):
        self._assert_rows_match(KWiseHashBank(self.HASHES).eval_many(self.XS))

    def test_out_buffer_is_filled_and_returned(self):
        bank = KWiseHashBank(self.HASHES)
        # A prefix view of a wider buffer, the shape a scratch arena
        # hands out for a short final chunk.
        shape = (len(self.HASHES), len(self.XS) + 5)
        wide = np.full(shape, -1, dtype=np.int64)
        out = wide[:, : len(self.XS)]
        rows = bank.eval_many(self.XS, out=out)
        assert rows is out
        self._assert_rows_match(rows)
        assert (wide[:, len(self.XS) :] == -1).all()


class TestSignHash:
    def test_values_are_plus_minus_one(self):
        s = SignHash(seed=1)
        assert set(s(x) for x in range(200)) <= {-1, 1}

    def test_roughly_balanced(self):
        s = SignHash(seed=2)
        total = sum(s(x) for x in range(10000))
        assert abs(total) < 500

    def test_vectorised_agrees_with_scalar(self):
        s = SignHash(seed=3)
        xs = np.arange(300)
        assert list(s(xs)) == [s(int(x)) for x in xs]

    def test_deterministic(self):
        a, b = SignHash(seed=4), SignHash(seed=4)
        assert [a(x) for x in range(100)] == [b(x) for x in range(100)]


class TestSampledSet:
    def test_rate_one_keeps_everything(self):
        s = SampledSet(1.0, seed=1)
        assert all(s.contains(x) for x in range(100))

    def test_rate_zero_rejected(self):
        with pytest.raises(ValueError):
            SampledSet(-1.0)

    def test_probability_matches_buckets(self):
        s = SampledSet(8.0, seed=1)
        assert s.probability == pytest.approx(1 / 8)

    def test_empirical_rate_close_to_nominal(self):
        s = SampledSet(10.0, seed=5)
        kept = sum(s.contains(x) for x in range(20000))
        assert 1400 < kept < 2600  # expect 2000

    def test_contains_many_agrees_with_scalar(self):
        s = SampledSet(4.0, seed=6)
        xs = np.arange(500)
        vec = s.contains_many(xs)
        assert list(vec) == [s.contains(int(x)) for x in xs]

    def test_fractional_rate_rounds_up(self):
        s = SampledSet(2.5, seed=1)
        assert s.buckets == 3

    def test_mersenne_prime_is_prime_fermat(self):
        # Sanity on the field modulus via Fermat's little theorem.
        assert pow(2, MERSENNE_P - 1, MERSENNE_P) == 1
        assert pow(3, MERSENNE_P - 1, MERSENNE_P) == 1
