"""Tests for CountSketch and F2 heavy hitters (Theorem 2.10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.base import MergeIncompatibleError, StreamConsumedError
from repro.sketch import countsketch
from repro.sketch.countsketch import CountSketch, F2HeavyHitter
from repro.sketch.serialize import dumps_state, loads_state


class TestCountSketch:
    def test_single_item_exact(self):
        cs = CountSketch(width=64, depth=5, seed=1)
        for _ in range(37):
            cs.update(9)
        assert cs.query(9) == pytest.approx(37.0)

    def test_absent_item_near_zero(self):
        cs = CountSketch(width=256, depth=5, seed=2)
        for x in range(50):
            cs.update(x)
        assert abs(cs.query(10**6)) <= 10

    def test_heavy_item_recovered_among_noise(self):
        cs = CountSketch(width=256, depth=5, seed=3)
        for _ in range(1000):
            cs.update(7)
        for x in range(500):
            cs.update(1000 + x)
        assert cs.query(7) == pytest.approx(1000, rel=0.25)

    def test_count_argument(self):
        a = CountSketch(width=32, depth=3, seed=4)
        b = CountSketch(width=32, depth=3, seed=4)
        for _ in range(15):
            a.update(2)
        b.update(2, 15)
        assert a.query(2) == b.query(2)

    def test_f2_estimate_single_item(self):
        cs = CountSketch(width=64, depth=5, seed=5)
        cs.update(1, 40)
        assert cs.f2_estimate() == pytest.approx(1600.0)

    def test_f2_estimate_uniform_within_factor_two(self):
        cs = CountSketch(width=512, depth=5, seed=6)
        for x in range(300):
            cs.update(x, 4)
        truth = 300 * 16
        assert truth / 2 <= cs.f2_estimate() <= truth * 2

    def test_process_protocol(self):
        cs = CountSketch(width=16, depth=3, seed=1)
        cs.process(5)
        cs.finalize()
        with pytest.raises(StreamConsumedError):
            cs.process(5)

    def test_space_words_structure(self):
        cs = CountSketch(width=10, depth=4, seed=1)
        # 40 counters plus 8 hash functions of degree 4.
        assert cs.space_words() == 40 + 8 * 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CountSketch(width=0)
        with pytest.raises(ValueError):
            CountSketch(depth=0)

    @pytest.mark.parametrize("depth", (4, 5))
    @pytest.mark.parametrize("compact", (False, True))
    def test_query_many_matches_query(self, depth, compact):
        """Bit-for-bit the scalar floats, hashed or read from the compact
        layout's slot tables (even depth averages the two middle rows)."""
        cs = CountSketch(
            width=16, depth=depth, seed=8, domain=200 if compact else None
        )
        rng = np.random.default_rng(8)
        cs.update_batch(rng.integers(0, 200, size=3000))
        ids = np.arange(200)
        many = cs.query_many(ids)
        assert (cs._layout is not None) == compact
        scalar = np.array([cs.query(i) for i in ids.tolist()])
        assert many.dtype == np.float64
        assert many.tobytes() == scalar.tobytes()

    def test_median_robust_to_one_bad_row(self):
        """Depth 5 medians tolerate collisions in a minority of rows."""
        errors = []
        for seed in range(10):
            cs = CountSketch(width=128, depth=5, seed=seed)
            cs.update(0, 500)
            for x in range(1, 400):
                cs.update(x)
            errors.append(abs(cs.query(0) - 500))
        assert np.median(errors) < 60


class TestF2HeavyHitter:
    def test_finds_dominant_item(self):
        hh = F2HeavyHitter(phi=0.1, seed=1)
        for _ in range(1000):
            hh.process(3)
        for x in range(200):
            hh.process(100 + x)
        out = hh.heavy_hitters()
        assert 3 in out
        assert out[3] == pytest.approx(1000, rel=0.5)

    def test_empty_stream(self):
        assert F2HeavyHitter(phi=0.1, seed=1).heavy_hitters() == {}

    def test_uniform_stream_reports_nothing_heavy(self):
        hh = F2HeavyHitter(phi=0.5, seed=2)
        for x in range(2000):
            hh.process(x)
        out = hh.heavy_hitters()
        # No coordinate holds 50% of F2 = 2000, sqrt(0.5*2000) ~ 31.
        assert all(v < 40 for v in out.values())

    def test_multiple_heavy_items(self):
        hh = F2HeavyHitter(phi=0.05, seed=3)
        for _ in range(800):
            hh.process(1)
        for _ in range(600):
            hh.process(2)
        for x in range(300):
            hh.process(100 + x)
        out = hh.heavy_hitters()
        assert 1 in out and 2 in out

    def test_frequencies_within_factor_two(self):
        """Theorem 2.10's (1 +/- 1/2) frequency guarantee."""
        hh = F2HeavyHitter(phi=0.05, seed=4)
        for _ in range(1000):
            hh.process(11)
        for _ in range(400):
            hh.process(22)
        out = hh.heavy_hitters()
        assert 500 <= out[11] <= 1500
        if 22 in out:
            assert 200 <= out[22] <= 600

    def test_candidate_pool_survives_pruning(self):
        """A heavy item seen early must survive a long noise tail."""
        hh = F2HeavyHitter(phi=0.1, seed=5)
        for _ in range(2000):
            hh.process(42)
        for x in range(5000):
            hh.process(10**6 + x)
        assert 42 in hh.heavy_hitters()

    def test_space_scales_inverse_phi(self):
        small = F2HeavyHitter(phi=0.5, seed=1)
        large = F2HeavyHitter(phi=0.01, seed=1)
        assert small.space_words() < large.space_words()

    def test_heavy_hitters_finalises(self):
        hh = F2HeavyHitter(phi=0.1, seed=1)
        hh.process(1)
        hh.heavy_hitters()
        with pytest.raises(StreamConsumedError):
            hh.process(2)

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            F2HeavyHitter(phi=0.0)
        with pytest.raises(ValueError):
            F2HeavyHitter(phi=1.5)


def _zipf_items(domain: int, size: int = 4000) -> np.ndarray:
    rng = np.random.default_rng(17)
    return rng.zipf(1.3, size=size).astype(np.int64) % domain


class TestDomainMode:
    """``F2HeavyHitter(domain=D)``: no pool, every coordinate scored."""

    @pytest.mark.parametrize("domain", (0, -3, True, 2.5, "8"))
    def test_rejects_bad_domain(self, domain):
        with pytest.raises(ValueError, match="domain"):
            F2HeavyHitter(phi=0.1, domain=domain)

    @pytest.mark.parametrize("bad", (-1, 50))
    @pytest.mark.parametrize("entry", ("process", "process_batch", "ingest_unique"))
    def test_out_of_domain_id_raises(self, entry, bad):
        hh = F2HeavyHitter(phi=0.1, seed=1, domain=50)
        items = np.array(sorted([3, bad, 7]), dtype=np.int64)
        with pytest.raises(ValueError, match=rf"item {bad} .*\[0, 50\)"):
            if entry == "process":
                hh.process(bad)
            elif entry == "process_batch":
                hh.process_batch(items[::-1])
            else:
                hh.ingest_unique(items, np.ones(3, dtype=np.int64), 3)
        assert not hh._sketch._table.any()

    def test_ingest_unique_needs_domain(self):
        hh = F2HeavyHitter(phi=0.1, seed=1)
        with pytest.raises(TypeError, match="domain"):
            hh.ingest_unique(np.array([1]), np.array([1]), 1)

    @pytest.mark.parametrize("domain", (16, 200, 4096))
    @pytest.mark.parametrize("phi", (0.05, 0.1, 0.3))
    def test_contains_open_domain_report(self, domain, phi):
        """Every key the pool reports, with an equal frequency."""
        items = _zipf_items(domain)
        pooled = F2HeavyHitter(phi, depth=3, seed=5)
        scanned = F2HeavyHitter(phi, depth=3, seed=5, domain=domain)
        pooled.process_batch(items)
        scanned.process_batch(items)
        pool_report = pooled.heavy_hitters()
        scan_report = scanned.heavy_hitters()
        assert pool_report
        for item, frequency in pool_report.items():
            assert scan_report[item] == frequency

    def test_ingest_unique_matches_process_batch(self):
        items = _zipf_items(200)
        batched = F2HeavyHitter(0.1, seed=2, domain=200)
        batched.process_batch(items)
        grouped = F2HeavyHitter(0.1, seed=2, domain=200)
        unique, counts = np.unique(items, return_counts=True)
        grouped.ingest_unique(unique, counts, len(items))
        assert np.array_equal(grouped._sketch._table, batched._sketch._table)
        assert grouped.tokens_seen == batched.tokens_seen == len(items)

    def test_space_words_drop_pool_charge(self):
        pooled = F2HeavyHitter(phi=0.1, seed=1)
        scanned = F2HeavyHitter(phi=0.1, seed=1, domain=200)
        assert scanned.space_words() == (
            pooled.space_words() - 2 * pooled.capacity - 2
        )
        assert set(scanned.state_arrays()) == {
            "sketch/table", "sketch/tokens", "tokens"
        }

    def test_merge_rejects_other_domain(self):
        with pytest.raises(MergeIncompatibleError):
            F2HeavyHitter(0.1, seed=1, domain=200).merge(
                F2HeavyHitter(0.1, seed=1, domain=100)
            )
        with pytest.raises(MergeIncompatibleError):
            F2HeavyHitter(0.1, seed=1, domain=200).merge(
                F2HeavyHitter(0.1, seed=1)
            )


def _fed_pair(width: int, domain: int, stream_seed: int = 0):
    """An open-domain and a domain-mode CountSketch with one seed, fed
    one stream through ``update``, ``update_batch`` and
    ``update_grouped``."""
    sketches = (
        CountSketch(width=width, depth=5, seed=11),
        CountSketch(width=width, depth=5, seed=11, domain=domain),
    )
    rng = np.random.default_rng(stream_seed)
    scalar = rng.integers(0, domain, size=40).tolist()
    batch = rng.zipf(1.5, size=2000) % domain
    weights = rng.integers(1, 9, size=2000)
    grouped, sums = np.unique(
        rng.integers(0, domain, size=500), return_counts=True
    )
    for sketch in sketches:
        for item in scalar:
            sketch.update(item, 3)
        sketch.update_batch(batch, weights)
        sketch.update_grouped(grouped, sums)
    return sketches


def _assert_same_sketch(reference, sketch, domain: int) -> None:
    """Byte-equal state tables, queries and ``F_2`` estimates."""
    expected = reference.state_arrays()["table"]
    table = sketch.state_arrays()["table"]
    assert table.dtype == expected.dtype and table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()
    ids = np.arange(domain)
    assert (
        sketch.query_many(ids).tobytes() == reference.query_many(ids).tobytes()
    )
    for item in (0, 1, domain // 2, domain - 1):
        assert sketch.query(item) == reference.query(item)
    assert sketch.f2_estimate() == reference.f2_estimate()


class TestCompactLayout:
    """A domain-mode CountSketch holds ``(depth, min(domain, width))``
    counters and answers exactly like the open-domain sketch."""

    DOMAIN = 150

    @pytest.mark.parametrize("width", (16, 150, 1024))
    def test_matches_open_domain(self, width):
        reference, compact = _fed_pair(width, self.DOMAIN)
        assert compact._table.shape == (5, min(width, self.DOMAIN))
        assert compact._table.any()
        _assert_same_sketch(reference, compact, self.DOMAIN)

    @pytest.mark.parametrize("width", (16, 1024))
    def test_matches_after_merge(self, width):
        reference, compact = _fed_pair(width, self.DOMAIN, stream_seed=1)
        other_reference, other_compact = _fed_pair(
            width, self.DOMAIN, stream_seed=2
        )
        reference.merge(other_reference)
        compact.merge(other_compact)
        _assert_same_sketch(reference, compact, self.DOMAIN)

    @pytest.mark.parametrize("width", (16, 1024))
    def test_matches_after_round_trip(self, width):
        reference, compact = _fed_pair(width, self.DOMAIN)
        restored = loads_state(
            CountSketch(width=width, depth=5, seed=11, domain=self.DOMAIN),
            dumps_state(compact),
        )
        assert restored._table.shape == compact._table.shape
        _assert_same_sketch(reference, restored, self.DOMAIN)
        # The restored sketch keeps streaming like the original.
        for sketch in (reference, restored):
            sketch.update_batch(np.arange(self.DOMAIN))
        _assert_same_sketch(reference, restored, self.DOMAIN)

    def test_f2_estimate_sums_the_full_row_past_2_53(self, monkeypatch):
        """Once a row's sum of squares reaches 2^53 the float sum depends
        on the summation order, so the compact sketch sums the row
        scattered back to full width."""
        width, domain = 64, 40
        compact = CountSketch(width=width, depth=1, seed=3, domain=domain)
        reached = np.unique(compact._cells()[2][0])
        table = np.zeros((1, width), dtype=np.int64)
        for big in reached.tolist():
            table[0, reached] = 1
            table[0, big] = 2**27
            compact.load_state_arrays({"table": table, "tokens": 0})
            squares = compact._table.astype(np.float64) ** 2
            if squares.sum() != (table.astype(np.float64) ** 2).sum():
                break
        else:
            pytest.fail("no table whose compact and full sums differ")
        reference = CountSketch(width=width, depth=1, seed=3)
        reference.load_state_arrays({"table": table, "tokens": 0})
        assert compact.f2_estimate() == reference.f2_estimate()
        # Summing the compact row alone would give another float.
        monkeypatch.setattr(countsketch, "_EXACT_SUM", np.inf)
        assert compact.f2_estimate() != reference.f2_estimate()

    def test_above_cap_keeps_full_table(self, monkeypatch):
        monkeypatch.setattr(countsketch, "TABLE_DOMAIN_CAP", self.DOMAIN - 1)
        reference, capped = _fed_pair(1024, self.DOMAIN)
        assert not capped._compact
        assert capped._layout is None
        assert capped._table.shape == (5, 1024)
        _assert_same_sketch(reference, capped, self.DOMAIN)
        with pytest.raises(ValueError, match=r"item 150 .*\[0, 150\)"):
            capped.update(self.DOMAIN)


class TestCompactGuards:
    @pytest.mark.parametrize("bad", (-1, 50))
    @pytest.mark.parametrize(
        "entry",
        ("update", "update_batch", "update_grouped", "query", "query_many"),
    )
    def test_out_of_domain_id_raises(self, entry, bad):
        """Without the check a negative id would index the slot tables
        from their end."""
        sketch = CountSketch(width=64, depth=4, seed=1, domain=50)
        items = np.array(sorted([3, bad, 7]), dtype=np.int64)
        with pytest.raises(ValueError, match=rf"item {bad} .*\[0, 50\)"):
            if entry == "update":
                sketch.update(bad)
            elif entry == "update_batch":
                sketch.update_batch(items)
            elif entry == "update_grouped":
                sketch.update_grouped(items, np.ones(3, dtype=np.int64))
            elif entry == "query":
                sketch.query(bad)
            else:
                sketch.query_many(items)
        assert not sketch._table.any()

    def test_merge_rejects_other_domain(self):
        # Domain 70 >= width 64: the compact table has the open table's
        # shape, but its columns are slot numbers, not buckets.
        with pytest.raises(MergeIncompatibleError):
            CountSketch(64, 4, seed=1).merge(
                CountSketch(64, 4, seed=1, domain=70)
            )
        with pytest.raises(MergeIncompatibleError):
            CountSketch(64, 4, seed=1, domain=70).merge(
                CountSketch(64, 4, seed=1, domain=80)
            )
