"""Tests for limited-independence hash families (Appendix A substrate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import hashing
from repro.sketch.hashing import (
    MERSENNE_P,
    KWiseHash,
    KWiseHashBank,
    SampledSet,
    SignHash,
    coefficient_batch,
    default_degree,
    kwise_coefficients,
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

    @pytest.mark.parametrize(
        "x",
        (
            np.arange(12).reshape(3, 4),
            [5, 6, 7],
            np.asarray(12345),
            np.empty((0, 2), dtype=np.int64),
        ),
        ids=("2-d", "list", "0-d", "empty"),
    )
    def test_array_call_keeps_the_input_shape(self, x):
        h = KWiseHash(97, degree=8, seed=3)
        values = h(x)
        assert np.shape(values) == np.shape(x)
        assert np.asarray(values).dtype == np.int64
        assert np.asarray(values).ravel().tolist() == [
            h(int(item)) for item in np.ravel(x)
        ]

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


def _horner_rows(coeffs, ranges, xs):
    """The Horner pass every hash row is defined by, written out."""
    xs = np.asarray(xs, dtype=np.int64) % MERSENNE_P
    acc = np.empty((coeffs.shape[0], len(xs)), dtype=np.int64)
    acc[:] = coeffs[:, :1]
    for j in range(1, coeffs.shape[1]):
        acc *= xs
        acc += coeffs[:, j : j + 1]
        acc %= MERSENNE_P
    return acc % ranges


class TestPowerTableKernel:
    """``eval_rows``'s power-table path equals Horner bit for bit, and
    only stacks of degree 8 to 64 take it."""

    # Inputs at the field's edges and beyond it, reduced mod p first.
    EDGES = np.array(
        [0, 1, MERSENNE_P - 1, MERSENNE_P, 2**31, 2**62], dtype=np.int64
    )

    @staticmethod
    def _inputs(rows, degree, items, seed=0):
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(0, MERSENNE_P, size=(rows, degree))
        xs = np.concatenate(
            (
                TestPowerTableKernel.EDGES,
                rng.integers(0, 2**62, size=items),
            )
        )
        return coeffs, xs

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        power_rows = hashing._power_rows

        def spying(coeffs, xs, out):
            calls.append(coeffs.shape)
            return power_rows(coeffs, xs, out)

        monkeypatch.setattr(hashing, "_power_rows", spying)
        return calls

    @pytest.mark.parametrize("degree", (8, 12, 16, 22, 64))
    def test_random_coefficients(self, spy, degree):
        coeffs, xs = self._inputs(7, degree, 300, seed=degree)
        ranges = np.asarray([1, 2, 17, 1000, 1 << 20, MERSENNE_P - 1,
                             MERSENNE_P])[:, None]
        values = hashing.eval_rows(coeffs, ranges, xs)
        assert spy == [(7, degree)]
        assert values.dtype == np.int64
        assert np.array_equal(values, _horner_rows(coeffs, ranges, xs))

    @pytest.mark.parametrize("degree", (8, 64))
    @pytest.mark.parametrize("range_size", (1, 2, MERSENNE_P))
    def test_largest_coefficients(self, spy, degree, range_size):
        # Every coefficient p - 1: the half sums reach their bound.
        coeffs = np.full((3, degree), MERSENNE_P - 1, dtype=np.int64)
        _coeffs, xs = self._inputs(1, 1, 500, seed=1)
        values = hashing.eval_rows(coeffs, range_size, xs)
        assert spy == [(3, degree)]
        assert np.array_equal(values, _horner_rows(coeffs, range_size, xs))

    def test_matches_member_hashes_at_the_edges(self):
        hashes = [KWiseHash(MERSENNE_P, degree=16, seed=s) for s in range(4)]
        values = KWiseHashBank(hashes).eval_many(self.EDGES)
        for row, h in zip(values, hashes):
            assert row.tolist() == [h(int(x)) for x in self.EDGES]

    def test_out_buffer_over_several_blocks(self, spy):
        coeffs, xs = self._inputs(5, 16, 5000, seed=2)
        ranges = np.asarray([3, 1, 1 << 16, MERSENNE_P, 2])[:, None]
        width = hashing._POWER_BLOCK_CELLS // 16
        assert len(xs) > 4 * width
        wide = np.full((5, len(xs) + 3), -1, dtype=np.int64)
        out = wide[:, : len(xs)]
        values = hashing.eval_rows(coeffs, ranges, xs, out=out)
        assert values is out
        assert spy == [(5, 16)]
        assert np.array_equal(out, _horner_rows(coeffs, ranges, xs))
        assert (wide[:, len(xs) :] == -1).all()

    def test_one_column_blocks(self, spy, monkeypatch):
        monkeypatch.setattr(hashing, "_POWER_BLOCK_CELLS", 1)
        coeffs, xs = self._inputs(2, 9, 20, seed=3)
        values = hashing.eval_rows(coeffs, MERSENNE_P, xs)
        assert np.array_equal(values, _horner_rows(coeffs, MERSENNE_P, xs))

    def test_empty_input(self, spy):
        coeffs, _xs = self._inputs(3, 16, 0)
        values = hashing.eval_rows(coeffs, 5, np.empty(0, dtype=np.int64))
        assert values.shape == (3, 0)

    @pytest.mark.parametrize(
        "rows, degree", ((40, 4), (4, 7), (4, 65), (1, 16), (1, 64))
    )
    def test_other_shapes_take_horner(self, spy, rows, degree):
        coeffs, xs = self._inputs(rows, degree, 100, seed=4)
        values = hashing.eval_rows(coeffs, 1000, xs)
        assert spy == []
        assert np.array_equal(values, _horner_rows(coeffs, 1000, xs))


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


def _numpy_coefficients(seed, degree):
    """What ``KWiseHash(r, degree, seed)`` drew before the kernel existed:
    numpy's own generator, leading coefficient forced non-zero."""
    coeffs = np.random.default_rng(seed).integers(
        0, MERSENNE_P, size=degree, dtype=np.int64
    )
    if degree > 1 and coeffs[0] == 0:
        coeffs[0] = 1
    return coeffs


class TestKWiseCoefficients:
    """The vectorised kernel replays numpy's per-seed draw bit for bit."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
    SEEDS = [
        int(s)
        for s in np.random.default_rng(20261018).integers(
            0, 2**64, size=2000, dtype=np.uint64
        )
    ] + EDGE_SEEDS

    @pytest.mark.parametrize("degree", [1, 2, 4, *range(12, 23), 64])
    def test_matches_numpy_per_seed(self, degree):
        got = kwise_coefficients(self.SEEDS, degree)
        assert got.shape == (len(self.SEEDS), degree)
        assert got.dtype == np.int64
        for seed, row in zip(self.SEEDS, got):
            assert np.array_equal(row, _numpy_coefficients(seed, degree))

    def test_mixed_degrees_take_prefixes_of_one_draw(self):
        seeds = self.SEEDS[:600]
        degrees = np.random.default_rng(3).choice([1, 2, 4, 16, 22, 64], 600)
        got = kwise_coefficients(seeds, degrees)
        assert got.shape == (600, 64)
        for seed, degree, row in zip(seeds, degrees.tolist(), got):
            expected = _numpy_coefficients(seed, degree)
            assert np.array_equal(row[:degree], expected)
            assert not row[degree:].any()

    @pytest.mark.parametrize(
        "range_size",
        # About 50% and 25% of 32-bit draws rejected, so most lanes redraw;
        # at MERSENNE_P the rejection path has probability ~2^-31.
        [2**31 + 1, 3 * 2**30],
    )
    def test_rejected_draws_are_redrawn_like_numpy(self, range_size):
        seeds = self.SEEDS[:400]
        counts = np.random.default_rng(4).integers(1, 40, size=len(seeds))
        got = hashing._bounded_draws(seeds, counts, range_size)
        for seed, count, row in zip(seeds, counts.tolist(), got):
            expected = np.random.default_rng(seed).integers(
                0, range_size, size=count, dtype=np.int64
            )
            assert np.array_equal(row[:count], expected)

    def test_rejects_bad_seeds_and_degrees(self):
        with pytest.raises(ValueError):
            kwise_coefficients([3, -1], 4)
        with pytest.raises(ValueError):
            kwise_coefficients([3, 4], 0)
        with pytest.raises(ValueError):
            kwise_coefficients([1.5], 4)


class TestBatchedHashes:
    """Inside a coefficient batch, integer seeds wait for one kernel call;
    every other seed still draws through numpy at once."""

    def test_integer_seeds_wait_and_match_numpy(self):
        seeds = [0, 5, np.int64(7), np.uint64(2**64 - 1), 2**40]
        with coefficient_batch():
            hashes = [KWiseHash(97, degree=6, seed=s) for s in seeds]
            assert all("_coeffs" not in vars(h) for h in hashes)
        for seed, h in zip(seeds, hashes):
            assert np.array_equal(h._coeffs, _numpy_coefficients(int(seed), 6))
            assert "_batch" not in vars(h)

    def test_other_seeds_take_numpy_path_unchanged(self):
        with coefficient_batch():
            from_generator = KWiseHash(
                97, degree=6, seed=np.random.default_rng(5)
            )
            from_sequence = KWiseHash(
                97, degree=6, seed=np.random.SeedSequence(9)
            )
            from_none = KWiseHash(97, degree=6, seed=None)
            too_big = KWiseHash(97, degree=6, seed=2**64)
            for h in (from_generator, from_sequence, from_none, too_big):
                assert "_coeffs" in vars(h)
        assert np.array_equal(
            from_generator._coeffs, _numpy_coefficients(5, 6)
        )
        assert np.array_equal(
            from_sequence._coeffs,
            _numpy_coefficients(np.random.SeedSequence(9), 6),
        )
        assert np.array_equal(too_big._coeffs, _numpy_coefficients(2**64, 6))
        assert from_none._coeffs.min() >= 0
        assert from_none._coeffs.max() < MERSENNE_P

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            KWiseHash(10, seed=-1)
        with pytest.raises(ValueError):
            with coefficient_batch():
                KWiseHash(10, seed=np.int64(-3))


def _numpy_children(seed, count):
    """The seeds an object drawing ``rng.integers(0, 2**63)`` ``count``
    times from ``default_rng(seed)`` hands its children."""
    return np.random.default_rng(seed).integers(0, 2**63, size=count)


class _Holder:
    """A coefficient-batch target that keeps every block it is handed."""

    def _fill(self, *blocks):
        self.blocks = blocks


class TestSeedDraws:
    """The bulk seed tree replays numpy's per-seed ``integers(0, 2**63)``
    draws bit for bit."""

    SEEDS = TestKWiseCoefficients.SEEDS[-300:]

    def test_matches_numpy_per_seed(self):
        counts = np.random.default_rng(6).integers(0, 24, size=len(self.SEEDS))
        got = hashing.seed_draws(self.SEEDS, counts)
        assert got.shape == (len(self.SEEDS), counts.max())
        assert got.dtype == np.int64
        for seed, count, row in zip(self.SEEDS, counts.tolist(), got):
            assert np.array_equal(row[:count], _numpy_children(seed, count))
            assert not row[count:].any()

    def test_one_count_for_every_seed(self):
        got = hashing.seed_draws(TestKWiseCoefficients.EDGE_SEEDS, 8)
        for seed, row in zip(TestKWiseCoefficients.EDGE_SEEDS, got):
            assert np.array_equal(row, _numpy_children(seed, 8))

    @pytest.mark.parametrize("batched", (False, True))
    def test_derived_requests_match_numpy(self, batched):
        # Two derived requests of different counts and one direct one:
        # 300 parents take the kernel, 6 edge seeds the per-seed path
        # outside a batch.
        many, few = self.SEEDS, TestKWiseCoefficients.EDGE_SEEDS
        holder = _Holder()
        requests = ((many, 4, 3), (few, 16), (few, 2, 5))
        if batched:
            with coefficient_batch():
                hashing.defer_coefficients(holder, *requests)
                assert not hasattr(holder, "blocks")
        else:
            hashing.defer_coefficients(holder, *requests)
        derived, direct, small = holder.blocks
        assert derived.shape == (3 * len(many), 4)
        assert direct.shape == (len(few), 16)
        assert small.shape == (5 * len(few), 2)
        expected = [
            _numpy_coefficients(int(child), 4)
            for seed in many
            for child in _numpy_children(seed, 3)
        ]
        assert np.array_equal(derived, np.stack(expected))
        for seed, row in zip(few, direct):
            assert np.array_equal(row, _numpy_coefficients(seed, 16))
        expected = [
            _numpy_coefficients(int(child), 2)
            for seed in few
            for child in _numpy_children(seed, 5)
        ]
        assert np.array_equal(small, np.stack(expected))

    def test_rejects_bad_seeds_and_counts(self):
        with pytest.raises(ValueError):
            hashing.seed_draws([3, -1], 4)
        with pytest.raises(ValueError):
            hashing.seed_draws([1.5], 4)
        with pytest.raises(ValueError):
            hashing.seed_draws([3, 4], [2, -1])
