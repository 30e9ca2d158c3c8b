"""The array-backed ingest state against its per-object references.

``LargeSetRun`` keeps its case-2b ``L_0`` sketches as rows of one
:class:`~repro.sketch.l0.KMVBank`, which gathers its hash values from a
table and folds its keys lazily, ``F2Contributing`` keeps its levels
as arrays, which ``LargeSet`` lays out, scatters and scores for all its
runs' detectors as one :class:`~repro.sketch.contributing.ContributingBank`,
and ``SmallSetRun`` appends packed edge arrays that it deduplicates
lazily.  Each must hold exactly what the per-superset ``L0Sketch``, the
per-level ``SampledSet`` and ``F2HeavyHitter``, the detector standing
alone and the per-edge ``feed`` would.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import EdgeStream, StreamRunner
from repro.base import MergeIncompatibleError
from repro.core.estimate import EstimateMaxCover
from repro.core.large_set import _L0_SIZE, LargeSet, LargeSetOutcome
from repro.core.oracle import Oracle
from repro.core.parameters import Parameters
from repro.core.small_set import SmallSet
from repro.sketch import contributing, countsketch, l0
from repro.sketch.contributing import (
    ContributingBank,
    ContributingCoordinate,
    F2Contributing,
)
from repro.sketch.countsketch import F2HeavyHitter
from repro.sketch.hashing import MERSENNE_P, SampledSet
from repro.sketch.l0 import KMVBank, L0Sketch
from repro.sketch.serialize import dumps_state, loads_state
from repro.streams.generators import planted_cover


def _oracle_params(workload):
    system = workload.system
    return Parameters.practical(m=system.m, n=system.n, k=6, alpha=3.0)


def _large_set_oracle(workload):
    """A standalone ``Oracle`` running only ``LargeSet``: the planned path."""
    return Oracle(_oracle_params(workload), seed=5, enable={"large_set"})


def _feed(algo, set_ids, elements, chunk_size):
    for lo in range(0, len(set_ids), chunk_size):
        algo.process_batch(
            set_ids[lo : lo + chunk_size], elements[lo : lo + chunk_size]
        )
    return algo


def _bank_rows(run) -> dict:
    """``{sid: values}`` read from a run's state arrays."""
    state = run.state_arrays()
    rows = np.split(state["l0_values"], np.cumsum(state["l0_counts"])[:-1])
    return {
        sid: row.tolist() for sid, row in zip(state["l0_sids"].tolist(), rows)
    }


def _reference_rows(run, set_ids, elements) -> dict:
    """Standalone ``L0Sketch``es fed each sampled superset's elements."""
    sketches: dict = {}
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        if not run.element_sampler.contains(element):
            continue
        sid = run._partition(set_id)
        if not run._superset_sampler.contains(sid):
            continue
        if sid not in sketches:
            sketches[sid] = L0Sketch(
                sketch_size=_L0_SIZE,
                seed=(run._l0_seed + sid) & (2**63 - 1),
            )
        sketches[sid].process(element)
    return {
        sid: sketch.state_arrays()["heap"].tolist()
        for sid, sketch in sorted(sketches.items())
    }


def _assert_rows_match(oracle, set_ids, elements):
    runs = oracle._large_set._runs
    assert any(_bank_rows(run) for run in runs), "no superset was sampled"
    for run in runs:
        reference = _reference_rows(run, set_ids, elements)
        assert _bank_rows(run) == reference
        sids, estimates = run._l0.estimates()
        for sid, estimate in zip(sids.tolist(), estimates.tolist()):
            sketch = L0Sketch(
                sketch_size=_L0_SIZE,
                seed=(run._l0_seed + sid) & (2**63 - 1),
            )
            sketch.load_state_arrays(
                {"heap": np.asarray(reference[sid]), "tokens": 0}
            )
            assert estimate == sketch.peek_estimate()


def _assert_tabulated(oracle):
    """Every run's KMV bank gathered its values from a table."""
    for run in oracle._large_set._runs:
        assert run._l0_tabulated
        assert run._l0._cells is not None


class TestKMVBankReference:
    """Every bank row is the sorted heap of the superset's own sketch."""

    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 8192))
    def test_rows_equal_standalone_sketches(
        self, planted_workload, planted_stream, chunk_size
    ):
        set_ids, elements = planted_stream.as_arrays()
        oracle = _feed(
            _large_set_oracle(planted_workload), set_ids, elements, chunk_size
        )
        _assert_tabulated(oracle)
        _assert_rows_match(oracle, set_ids, elements)

    def test_rows_after_two_shard_merge(self, planted_workload, planted_stream):
        set_ids, elements = planted_stream.as_arrays()
        cut = len(set_ids) // 3
        left = _feed(
            _large_set_oracle(planted_workload),
            set_ids[:cut], elements[:cut], 64,
        )
        right = _feed(
            _large_set_oracle(planted_workload),
            set_ids[cut:], elements[cut:], 64,
        )
        left.merge(right)
        _assert_tabulated(left)
        _assert_rows_match(left, set_ids, elements)

    def test_rows_after_mid_pass_round_trip(
        self, planted_workload, planted_stream
    ):
        set_ids, elements = planted_stream.as_arrays()
        cut = len(set_ids) // 2
        first = _feed(
            _large_set_oracle(planted_workload),
            set_ids[:cut], elements[:cut], 64,
        )
        resumed = loads_state(
            _large_set_oracle(planted_workload), dumps_state(first)
        )
        _feed(resumed, set_ids[cut:], elements[cut:], 64)
        _assert_tabulated(resumed)
        _assert_rows_match(resumed, set_ids, elements)

    def test_sampled_l0_ties_go_to_the_smallest_sid(self, planted_workload):
        run = _large_set_oracle(planted_workload)._large_set._runs[0]
        size = _L0_SIZE
        row = np.arange(1, size + 1, dtype=np.int64)
        state = run.state_arrays()
        state["l0_sids"] = np.asarray([3, 7], dtype=np.int64)
        state["l0_counts"] = np.asarray([size, size], dtype=np.int64)
        state["l0_values"] = np.concatenate((row, row))
        run.load_state_arrays(state)
        outcome = run.peek_outcome()
        assert (outcome.case, outcome.superset_id) == ("sampled-l0", 3)


class TestKMVTable:
    """The case-2b value table and the lazy fold keep the bank exact.

    A tabulated bank gathers what a hashing bank computes per pair and
    the scalar path per item; pending keys fold before every read."""

    ROWS, SIZE, SEED = 120, 8, 3

    @classmethod
    def _pairs(cls, count, seed=0):
        """``(rows, items, pair rows, pair items)``: 30 of the rows and
        400 items, and ``count`` pairs drawn from them with repeats."""
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(cls.ROWS, 30, replace=False))
        items = np.sort(rng.choice(2000, 400, replace=False))
        return rows, items, rng.choice(rows, count), rng.choice(items, count)

    def _bank(self):
        return KMVBank(self.ROWS, self.SIZE, self.SEED)

    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 8192))
    def test_tabulated_hashed_and_scalar_banks_agree(self, chunk_size):
        rows, items, pair_rows, pair_items = self._pairs(3000)
        tabulated, lazy, hashed, scalar = (self._bank() for _ in range(4))
        assert tabulated.tabulate(rows, items)
        assert lazy.tabulate(rows, items)
        assert tabulated._cells[0].shape == (len(rows), len(items))
        for lo in range(0, len(pair_rows), chunk_size):
            chunk_rows = pair_rows[lo : lo + chunk_size]
            chunk_items = pair_items[lo : lo + chunk_size]
            tabulated.insert(chunk_rows, chunk_items, tabulated=True)
            lazy.insert(chunk_rows, chunk_items, tabulated=True)
            hashed.insert(chunk_rows, chunk_items)
            for row, item in zip(chunk_rows.tolist(), chunk_items.tolist()):
                scalar.insert_one(row, item)
            for bank in (tabulated, hashed):
                bank._fold()
                assert np.array_equal(bank._keys, scalar._keys)
                assert np.array_equal(bank._threshold, scalar._threshold)
        # Every row filled up, so the thresholds filtered.
        assert (scalar._threshold[rows] < MERSENNE_P).all()
        # Read only now: folded on the bank's own schedule.
        for mine, ref in zip(lazy.state_arrays(), scalar.state_arrays()):
            assert np.array_equal(mine, ref)
        assert np.array_equal(lazy._threshold, scalar._threshold)

    def _pending_bank(self, seed=0):
        """``(bank, reference)``: the same pairs, the bank with keys
        still pending and the reference folded."""
        _rows, _items, pair_rows, pair_items = self._pairs(600, seed)
        bank, reference = self._bank(), self._bank()
        bank.insert(pair_rows[:300], pair_items[:300])
        bank._fold()
        bank.insert(pair_rows[300:], pair_items[300:])
        assert bank._pending
        reference.insert(pair_rows, pair_items)
        reference._fold()
        return bank, reference

    @pytest.mark.parametrize(
        "read",
        (
            lambda bank: bank.estimates(),
            lambda bank: bank.state_arrays(),
            lambda bank: (bank.space_words(),),
            lambda bank: bank.insert_one(5, 7) or bank.state_arrays(),
        ),
        ids=("estimates", "state_arrays", "space_words", "insert_one"),
    )
    def test_reads_fold_first(self, read):
        bank, reference = self._pending_bank()
        for mine, ref in zip(read(bank), read(reference)):
            assert np.array_equal(mine, ref)
        assert not bank._pending and bank._pending_size == 0
        assert np.array_equal(bank._threshold, reference._threshold)

    def test_merge_folds_both_sides(self):
        left, left_ref = self._pending_bank(seed=1)
        right, right_ref = self._pending_bank(seed=2)
        left.merge(right)
        left_ref.merge(right_ref)
        assert not left._pending and not right._pending
        for mine, ref in zip(left.state_arrays(), left_ref.state_arrays()):
            assert np.array_equal(mine, ref)
        assert np.array_equal(left._threshold, left_ref._threshold)

    def test_load_drops_pending_keys(self):
        bank, _reference = self._pending_bank(seed=1)
        other, _ = self._pending_bank(seed=2)
        state = other.state_arrays()
        bank.load_state_arrays(*state)
        assert not bank._pending and bank._pending_size == 0
        for mine, ref in zip(bank.state_arrays(), state):
            assert np.array_equal(mine, ref)
        assert np.array_equal(bank._threshold, other._threshold)

    def test_capped_table_falls_back_to_hashing(
        self, planted_workload, planted_stream, monkeypatch
    ):
        set_ids, elements = planted_stream.as_arrays()
        tabulated = _feed(
            _large_set_oracle(planted_workload), set_ids, elements, 64
        )
        _assert_tabulated(tabulated)
        runs = tabulated._large_set._runs
        cells = min(run._l0._cells[0].size for run in runs)
        monkeypatch.setattr(l0, "TABLE_DOMAIN_CAP", cells - 1)
        hashed = _feed(
            _large_set_oracle(planted_workload), set_ids, elements, 64
        )
        for mine, ref in zip(hashed._large_set._runs, runs):
            assert mine._l0_tabulated is False
            assert mine._l0._cells is None
            assert _bank_rows(mine) == _bank_rows(ref)
            assert np.array_equal(mine._l0._threshold, ref._l0._threshold)
        _assert_rows_match(hashed, set_ids, elements)


def _reference_levels(detector, seed):
    """Standalone ``SampledSet`` and ``F2HeavyHitter`` per level, seeded
    by sequential draws from ``default_rng(seed)``, as each level of a
    detector once built its own objects."""
    rng = np.random.default_rng(seed)
    levels = []
    for level in range(detector.num_levels):
        sampler = SampledSet(
            max(1.0, (1 << level) / 8), seed=rng.integers(0, 2**63)
        )
        heavy = F2HeavyHitter(
            detector.phi,
            depth=detector.depth,
            seed=rng.integers(0, 2**63),
            domain=detector.domain,
        )
        levels.append((sampler, heavy))
    return levels


def _feed_reference(levels, items):
    unique, counts = np.unique(items, return_counts=True)
    for sampler, heavy in levels:
        keep = sampler.contains_many(unique)
        if keep.any():
            heavy.ingest_unique(
                unique[keep], counts[keep], int(counts[keep].sum())
            )


def _walked_contributing(levels) -> list:
    """The per-level loop every detector ran before its bank: the best
    frequency per coordinate, the first level on ties, sorted by
    frequency with ties in first-report order."""
    best: dict = {}
    for level, (_sampler, heavy) in enumerate(levels):
        for coordinate, frequency in heavy.peek_heavy_hitters().items():
            known = best.get(coordinate)
            if known is None or frequency > known.frequency:
                best[coordinate] = ContributingCoordinate(
                    coordinate, frequency, level
                )
    return sorted(best.values(), key=lambda c: c.frequency, reverse=True)


def _level_reports(detector):
    """``(estimates, heavy)`` of the detector's levels, from its bank."""
    bank = detector._member_bank()
    first = bank.index(detector)
    return bank._reports(first, first + 1)


def _assert_bank_matches(detector, levels):
    state = detector.state_arrays()
    estimates, heavy = _level_reports(detector)
    for level, (_sampler, reference) in enumerate(levels):
        expected = reference.state_arrays()
        for key in ("sketch/table", "sketch/tokens", "tokens"):
            mine = state[f"levels/{level}/{key}"]
            assert mine.dtype == expected[key].dtype
            assert np.array_equal(mine, expected[key])
        assert int(state[f"levels/{level}/tokens"]) == reference.tokens_seen
        reported = np.flatnonzero(heavy[level])
        assert dict(
            zip(reported.tolist(), estimates[level, reported].tolist())
        ) == reference.peek_heavy_hitters()
    assert detector.peek_contributing() == _walked_contributing(levels)
    top = detector.peek_top()
    assert top == (detector.peek_contributing() or [None])[0]


class TestStackedContributing:
    """The array bank equals standalone per-level ``SampledSet`` and
    ``F2HeavyHitter`` objects: tables, tokens, reports and the detector's
    report, after merges and state round trips too."""

    DOMAIN = 150

    @pytest.mark.parametrize("compact", (False, True))
    def test_table_and_tokens_equal_per_level_kernel(
        self, compact, monkeypatch
    ):
        if not compact:
            # Above the cap: full tables, every chunk hashed.
            for module in (countsketch, contributing):
                monkeypatch.setattr(
                    module, "TABLE_DOMAIN_CAP", self.DOMAIN - 1
                )
        stacked = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        other = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        levels = _reference_levels(stacked, 3)
        other_levels = _reference_levels(stacked, 3)
        gathers = []
        present_rows = ContributingBank._present_rows

        def spy(bank, present, first, last):
            if bank is stacked._bank:
                gathers.append(present)
            return present_rows(bank, present, first, last)

        monkeypatch.setattr(ContributingBank, "_present_rows", spy)
        rng = np.random.default_rng(0)
        chunks = [
            rng.integers(0, self.DOMAIN, size=int(rng.integers(1, 400)))
            for _ in range(6)
        ]
        # A sparse and a dense chunk: the compact bank gathers the few
        # present columns of one and applies every term for the other.
        chunks += [np.array([5, 5, 140]), np.arange(self.DOMAIN)]
        for items in chunks:
            stacked.ingest_grouped(
                np.bincount(items, minlength=self.DOMAIN), len(items)
            )
            _feed_reference(levels, items)
        assert stacked.num_levels > 1
        assert (stacked._layout is not None) == compact
        if compact:
            assert 0 < len(gathers) < len(chunks)
        else:
            assert len(gathers) == len(chunks)
        assert stacked._tables.any()
        assert stacked.peek_contributing()
        _assert_bank_matches(stacked, levels)

        # A merge adds the banks as the levels' sketches add.
        for items in chunks[:3]:
            other.process_batch(items)
            _feed_reference(other_levels, items)
        stacked.merge(other)
        for (_s, mine), (_o, theirs) in zip(levels, other_levels):
            mine.merge(theirs)
        _assert_bank_matches(stacked, levels)

        # A state round trip into a fresh detector.
        restored = loads_state(
            F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN),
            dumps_state(stacked),
        )
        _assert_bank_matches(restored, levels)
        assert restored.tokens_seen == stacked.tokens_seen

    def test_rejects_what_the_levels_rejected(self):
        def detector(seed=3, domain=self.DOMAIN):
            return F2Contributing(0.05, 40, seed=seed, domain=domain)

        fed = detector()
        fed.process_batch(np.arange(self.DOMAIN))
        state = fed.state_arrays()
        for feed in (
            lambda d: d.process_batch(np.array([3, self.DOMAIN])),
            lambda d: d.process(-1),
        ):
            with pytest.raises(ValueError):
                feed(detector())
        for counts in (
            np.ones(self.DOMAIN - 1, dtype=np.int64),
            # Counts an int64 cast would floor: 0.5 to 0, 1.7 to 1.
            np.full(self.DOMAIN, 0.5),
            np.full(self.DOMAIN, 1.7),
        ):
            rejected = detector()
            with pytest.raises(ValueError):
                rejected.ingest_grouped(counts, 5)
            assert rejected.tokens_seen == 0
            assert not rejected._tables.any()
            assert not rejected._level_tokens.any()
        bad = dict(state)
        bad["levels/2/sketch/table"] = np.zeros((4, 70), dtype=np.int64)
        with pytest.raises(ValueError, match="CountSketch table must be"):
            detector().load_state_arrays(bad)
        # A counter in a bucket no superset id reaches at level 0.
        table = np.array(state["levels/0/sketch/table"])
        reached = fed._layout_tables()[2][0]
        table[0, np.setdiff1d(np.arange(fed.width), reached)[0]] = 1
        bad["levels/2/sketch/table"] = state["levels/2/sketch/table"]
        bad["levels/0/sketch/table"] = table
        target = detector()
        with pytest.raises(ValueError, match="no coordinate"):
            target.load_state_arrays(bad)
        assert not target._tables.any()
        for other in (
            detector(seed=4),
            detector(domain=self.DOMAIN + 1),
            F2Contributing(0.05, 40, seed=3),
            F2Contributing(0.05, 40, seed=3, depth=5, domain=self.DOMAIN),
            F2Contributing(
                0.05, 40, seed=3, phi_scale=4.0, domain=self.DOMAIN
            ),
        ):
            with pytest.raises(MergeIncompatibleError):
                detector().merge(other)

    @pytest.mark.parametrize("domain", (4, 100))
    def test_level_tokens_count_signed_arrivals(self, domain):
        # One coordinate of 4 is a dense chunk, one of 100 a sparse one;
        # both add the signed count, as ``ingest_unique``'s total does.
        detector = F2Contributing(0.5, 8, seed=3, domain=domain)
        levels = _reference_levels(detector, 3)
        detector.process(1, -3)
        for sampler, heavy in levels:
            if sampler.contains(1):
                heavy.ingest_unique(np.array([1]), np.array([-3]), -3)
        assert detector._level_tokens.tolist() == [
            heavy.tokens_seen for _sampler, heavy in levels
        ]
        assert -3 in detector._level_tokens
        _assert_bank_matches(detector, levels)

    def test_level_tables_stay_views_after_load(self):
        source = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        source.process_batch(np.arange(self.DOMAIN))
        target = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        bank = target._tables
        loads_state(target, dumps_state(source))
        # Loaded in place: the bank that later chunks scatter into.
        assert target._tables is bank
        assert np.array_equal(bank, source._tables)
        assert np.array_equal(target._level_tokens, source._level_tokens)


def _members(large_set) -> list:
    """A LargeSet's detectors in its bank's order: small, large per run."""
    return [
        detector
        for run in large_set._runs
        for detector in (run._cntr_small, run._cntr_large)
    ]


def _stand_alone(large_set):
    """Move every detector of ``large_set`` into a bank of its own."""
    for detector in _members(large_set):
        ContributingBank([detector])
    return large_set


def _feed_alone(large_set, alone, set_ids, elements):
    """Feed ``alone``'s standalone detectors one chunk, each the
    superset-id counts its twin run in ``large_set`` takes."""
    for run, twin in zip(large_set._runs, alone._runs):
        keep = run.element_sampler._membership.contains_many(elements)
        sids = run._partition(set_ids[keep])
        counts = np.bincount(sids, minlength=run.num_supersets)
        for detector in (twin._cntr_small, twin._cntr_large):
            detector.ingest_grouped(counts, len(sids))


def _feed_alone_chunks(large_set, alone, set_ids, elements, chunk_size):
    for lo in range(0, len(set_ids), chunk_size):
        _feed_alone(
            large_set,
            alone,
            set_ids[lo : lo + chunk_size],
            elements[lo : lo + chunk_size],
        )


def _assert_bank_equals_alone(large_set, alone):
    bank = large_set._bank
    members, lone = _members(large_set), _members(alone)
    assert bank._members == members
    for mine, theirs in zip(members, lone):
        assert mine._bank is bank and len(theirs._bank) == 1
        # Views of the bank's storage, not copies beside it.
        assert np.shares_memory(mine._tables, bank._counters)
        assert np.shares_memory(mine._level_tokens, bank._tokens)
        state, expected = mine.state_arrays(), theirs.state_arrays()
        assert state.keys() == expected.keys()
        for key, value in state.items():
            assert value.dtype == expected[key].dtype
            assert value.tobytes() == expected[key].tobytes()
        assert np.array_equal(mine._level_tokens, theirs._level_tokens)
        assert mine.peek_contributing() == theirs.peek_contributing()
        assert mine.peek_top() == theirs.peek_top()
    tops = bank.tops()
    assert tops == [theirs.peek_top() for theirs in lone]
    assert any(top is not None for top in tops)


class TestContributingBank:
    """A LargeSet's one bank equals its detectors standing alone, each
    in a bank of one fed its run's counts: state bytes, level tokens,
    reports and top entries."""

    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 8192))
    def test_chunked_pass(
        self, chunk_size, planted_workload, planted_stream, monkeypatch
    ):
        set_ids, elements = planted_stream.as_arrays()
        oracle = _large_set_oracle(planted_workload)
        alone = _stand_alone(_large_set_oracle(planted_workload)._large_set)
        bank = oracle._large_set._bank
        calls = {"ingest": 0, "gather": 0}
        ingest = ContributingBank.ingest
        present_rows = ContributingBank._present_rows

        def counting_ingest(target, counts, *args):
            calls["ingest"] += target is bank
            return ingest(target, counts, *args)

        def counting_gather(target, *args):
            calls["gather"] += target is bank
            return present_rows(target, *args)

        monkeypatch.setattr(ContributingBank, "ingest", counting_ingest)
        monkeypatch.setattr(ContributingBank, "_present_rows", counting_gather)
        _feed(oracle, set_ids, elements, chunk_size)
        _feed_alone_chunks(
            oracle._large_set, alone, set_ids, elements, chunk_size
        )
        # One scatter per chunk that any run's sample kept: lone ids
        # gather their columns, the whole stream applies every term.
        assert 0 < calls["ingest"] <= -(-len(set_ids) // chunk_size)
        if chunk_size == 1:
            assert calls["gather"] == calls["ingest"]
        if chunk_size == 8192:
            assert len(set_ids) <= chunk_size
            assert calls["gather"] == 0
        _assert_bank_equals_alone(oracle._large_set, alone)

    def test_members_of_different_widths(self):
        # The report_wide --quick shape: 300 superset ids meet small-class
        # width 19,200 (300 held columns) and large-class width 256.
        planted = planted_cover(
            n=6000, m=600, k=25, coverage_frac=0.9, seed=99
        )
        stream = EdgeStream.from_system(
            planted.system, order="random", seed=2
        )
        set_ids, elements = stream.as_arrays()
        params = Parameters.practical(m=600, n=6000, k=25, alpha=4.0)
        large_set = LargeSet(params, seed=5)
        alone = _stand_alone(LargeSet(params, seed=5))
        assert {
            detector._tables.shape[2] for detector in _members(large_set)
        } == {300, 256}
        _feed(large_set, set_ids, elements, 4096)
        _feed_alone_chunks(large_set, alone, set_ids, elements, 4096)
        _assert_bank_equals_alone(large_set, alone)

    def test_above_the_cap(
        self, planted_workload, planted_stream, monkeypatch
    ):
        # 100 superset ids above a cap of 99: full tables, hashed chunks.
        for module in (countsketch, contributing):
            monkeypatch.setattr(module, "TABLE_DOMAIN_CAP", 99)
        set_ids, elements = planted_stream.as_arrays()
        oracle = _large_set_oracle(planted_workload)
        alone = _stand_alone(_large_set_oracle(planted_workload)._large_set)
        for detector in _members(oracle._large_set):
            assert detector.domain == 100 and not detector._compact
            assert detector._tables.shape[2] == detector.width
        _feed(oracle, set_ids, elements, 256)
        _feed_alone_chunks(oracle._large_set, alone, set_ids, elements, 256)
        assert oracle._large_set._bank._layout is None
        _assert_bank_equals_alone(oracle._large_set, alone)

    def test_two_shard_merge(self, planted_workload, planted_stream):
        set_ids, elements = planted_stream.as_arrays()
        cut = len(set_ids) // 3
        left = _feed(
            _large_set_oracle(planted_workload),
            set_ids[:cut], elements[:cut], 64,
        )
        right = _feed(
            _large_set_oracle(planted_workload),
            set_ids[cut:], elements[cut:], 64,
        )
        left.merge(right)
        alone = _stand_alone(_large_set_oracle(planted_workload)._large_set)
        _feed_alone_chunks(left._large_set, alone, set_ids, elements, 64)
        _assert_bank_equals_alone(left._large_set, alone)

    @pytest.mark.parametrize("built", (False, True))
    def test_mid_pass_round_trip(
        self, built, planted_workload, planted_stream
    ):
        # Into a fresh LargeSet whose bank the load builds, or one whose
        # bank a score built before the load.
        set_ids, elements = planted_stream.as_arrays()
        cut = len(set_ids) // 2
        source = _feed(
            _large_set_oracle(planted_workload),
            set_ids[:cut], elements[:cut], 64,
        )
        resumed = _large_set_oracle(planted_workload)
        bank = resumed._large_set._bank
        if built:
            assert resumed._large_set.peek_best_outcome() is None
        assert (bank._layout is not None) == built
        loads_state(resumed, dumps_state(source))
        assert bank._layout is not None
        _feed(resumed, set_ids[cut:], elements[cut:], 64)
        alone = _stand_alone(_large_set_oracle(planted_workload)._large_set)
        _feed_alone_chunks(resumed._large_set, alone, set_ids, elements, 64)
        _assert_bank_equals_alone(resumed._large_set, alone)

    def test_scalar_path_after_the_bank_is_built(
        self, planted_workload, planted_stream
    ):
        set_ids, elements = planted_stream.as_arrays()
        cut = len(set_ids) // 2
        oracle = _feed(
            _large_set_oracle(planted_workload),
            set_ids[:cut], elements[:cut], 64,
        )
        large_set = oracle._large_set
        alone = _stand_alone(_large_set_oracle(planted_workload)._large_set)
        _feed_alone_chunks(large_set, alone, set_ids[:cut], elements[:cut], 64)
        assert large_set._bank._ingest is not None
        for set_id, element in zip(
            set_ids[cut : cut + 400].tolist(),
            elements[cut : cut + 400].tolist(),
        ):
            oracle.process(set_id, element)
            for run, twin in zip(large_set._runs, alone._runs):
                if run.element_sampler.contains(element):
                    sid = run._partition(set_id)
                    twin._cntr_small.process(sid)
                    twin._cntr_large.process(sid)
        _assert_bank_equals_alone(large_set, alone)


def _arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through ``repro`` objects,
    lists, tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif type(obj).__module__.startswith("repro") and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _arrays(item, seen)


def _reachable(obj) -> list:
    """Every object reachable from ``obj`` through ``repro`` objects,
    lists, tuples and dicts."""
    found, seen, stack = [], set(), [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        found.append(item)
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif type(item).__module__.startswith("repro") and hasattr(
            item, "__dict__"
        ):
            stack.extend(vars(item).values())
    return found


def _quick_reference_pass(alpha=4):
    """The e2e ``--quick`` reference shape, seed 7, after its pass."""
    planted = planted_cover(n=1000, m=200, k=10, coverage_frac=0.9, seed=99)
    stream = EdgeStream.from_system(planted.system, order="random", seed=2)
    algo = EstimateMaxCover(m=200, n=1000, k=10, alpha=alpha, seed=7)
    StreamRunner(chunk_size=4096).run(algo, stream)
    return algo


def _detectors(algo) -> list:
    return [
        detector
        for _z, _reducer, oracle in algo._branches
        for run in oracle._large_set._runs
        for detector in (run._cntr_small, run._cntr_large)
    ]


class TestCompactMemory:
    """LargeSet's levels hold only the counters their domain reaches.

    The ``--quick`` shape of the e2e ``reference`` workload: 330 levels
    of width 256 or 6,400 over 100 superset ids.  Full tables would
    hold 4,024,320 counters (32.2 MB); the compact ones hold 132,000.
    """

    #: ``space_words()`` of this pass when every level held its full
    #: ``(depth, width)`` table: the charge must not move.
    SPACE_WORDS = 4_216_722
    HELD_COUNTERS = 132_000
    #: Reachable ``KWiseHash`` objects after the pass; 3,182 while every
    #: level built a ``SampledSet``, an ``F2HeavyHitter`` and its rows.
    KWISE_HASHES = 212

    def test_levels_hold_depth_times_domain(self):
        tracemalloc.start()
        try:
            algo = _quick_reference_pass()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held, full_bytes, levels, full_shapes = 0, 0, 0, set()
        for detector in _detectors(algo):
            bank = detector._tables
            shape = (detector.depth, detector.width)
            assert bank.shape == (
                detector.num_levels,
                detector.depth,
                min(detector.domain, detector.width),
            )
            levels += detector.num_levels
            held += bank.size
            full_bytes += detector.num_levels * np.prod(shape) * bank.itemsize
            full_shapes |= {shape, (detector.num_levels, *shape)}
        assert levels == 330
        assert held == self.HELD_COUNTERS
        assert not any(a.shape in full_shapes for a in _arrays(algo))
        # Construction and pass together never held what the full
        # tables alone would take, even for a moment.
        assert peak < full_bytes
        assert algo.space_words() == self.SPACE_WORDS
        assert algo.estimate() == 428.0

    #: Cells of the runs' KMV value tables: alpha 4 is this shape,
    #: alpha 16 the e2e ``high_alpha`` workload's ``--quick`` shape.
    @pytest.mark.parametrize("alpha, cells", ((4, 47_375), (16, 185_000)))
    def test_kmv_tables_are_int32(self, alpha, cells):
        algo = _quick_reference_pass(alpha)
        banks = [
            run._l0
            for _z, _reducer, oracle in algo._branches
            for run in oracle._large_set._runs
        ]
        assert all(bank._cells is not None for bank in banks)
        for table, row_starts, item_slots in (bank._cells for bank in banks):
            assert table.dtype == np.int32
            assert row_starts.dtype == item_slots.dtype == np.int32
        assert sum(bank._cells[0].size for bank in banks) == cells

    def test_no_per_level_objects(self):
        algo = _quick_reference_pass()
        names = [type(obj).__name__ for obj in _reachable(algo)]
        for name in ("F2HeavyHitter", "CountSketch", "SignHash"):
            assert name not in names
        assert names.count("F2Contributing") == 60
        assert names.count("KWiseHash") == self.KWISE_HASHES


def _walked_outcome(run) -> LargeSetOutcome | None:
    """``LargeSetRun.peek_outcome`` as it walked every reported
    coordinate of both detectors before reading their top entries."""
    p = run.params
    thr1, thr2 = run.thresholds()
    best = None

    def consider(candidate):
        nonlocal best
        if best is None or candidate.value_on_sample > best.value_on_sample:
            best = candidate

    for detector, threshold, case in (
        (run._cntr_small, thr1, "contributing-small"),
        (run._cntr_large, thr2, "contributing-large"),
    ):
        for coord in detector.peek_contributing():
            if coord.frequency >= 0.5 * threshold:
                consider(
                    LargeSetOutcome(
                        2.0 * coord.frequency / (3.0 * p.f),
                        coord.coordinate,
                        case,
                    )
                )
    sids, values = run._l0.estimates()
    passing = values >= 0.5 * thr2
    for sid, val in zip(sids[passing].tolist(), values[passing].tolist()):
        consider(LargeSetOutcome(2.0 * val / 3.0, sid, "sampled-l0"))
    return best


class TestPeekOutcome:
    """Reading each detector's top entry picks what walking every
    reported coordinate picked."""

    def test_top_entries_equal_the_walk(self):
        algo = _quick_reference_pass()
        runs = [
            run
            for _z, _reducer, oracle in algo._branches
            for run in oracle._large_set._runs
        ]
        outcomes = [run.peek_outcome() for run in runs]
        assert outcomes == [_walked_outcome(run) for run in runs]
        assert {o.case for o in outcomes if o is not None} >= {
            "contributing-small"
        }

    @staticmethod
    def _fresh_run():
        algo = EstimateMaxCover(m=200, n=1000, k=10, alpha=4, seed=7)
        return algo._branches[0][2]._large_set._runs[0]

    def test_ties_go_to_the_first_report(self):
        run = self._fresh_run()
        state = run.state_arrays()
        # Level 0 of both detectors holds coordinates 3 and 7 at one
        # large count: equal frequencies within each detector and equal
        # values across them.
        for name in ("cntr_small", "cntr_large"):
            detector = getattr(run, f"_{name}")
            slots, signs, buckets = detector._layout_tables()
            table = np.zeros((detector.depth, detector.width), dtype=np.int64)
            for coordinate in (3, 7):
                for row in range(detector.depth):
                    table[row, buckets[row, coordinate]] += (
                        int(signs[row, coordinate]) * 10**6
                    )
            for level in range(detector.num_levels):
                key = f"{name}/levels/{level}/sketch/table"
                state[key] = table if level == 0 else np.zeros_like(table)
        fresh = self._fresh_run()
        fresh.load_state_arrays(state)
        for detector in (fresh._cntr_small, fresh._cntr_large):
            top = detector.peek_contributing()[:2]
            assert [c.coordinate for c in top] == [3, 7]
            assert top[0].frequency == top[1].frequency
        outcome = fresh.peek_outcome()
        assert outcome == _walked_outcome(fresh)
        assert (outcome.case, outcome.superset_id) == ("contributing-small", 3)


class TestSmallSetLazyDedup:
    """Lazy deduplication kills a run exactly when per-edge checks do."""

    @staticmethod
    def _runs(workload, budget):
        params = _oracle_params(workload)
        algos = (SmallSet(params, seed=4), SmallSet(params, seed=4))
        for algo in algos:
            for run in algo._runs:
                run.budget = budget
        return algos

    @pytest.mark.parametrize("chunk_size", (500, 8192))
    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_budget_crossed_mid_chunk(
        self, planted_workload, planted_stream, offset, chunk_size
    ):
        # Every edge twice, shuffled: the raw count passes the budget
        # before the distinct count does, and new edges keep arriving
        # among the replays after the first fold.
        order = np.random.default_rng(8).permutation(2 * len(planted_stream))
        set_ids, elements = (
            np.tile(column, 2)[order] for column in planted_stream.as_arrays()
        )
        probe = SmallSet(_oracle_params(planted_workload), seed=4)
        probe.process_batch(set_ids, elements)
        distinct = max(len(run.edges) for run in probe._runs)
        scalar, batched = self._runs(planted_workload, distinct + offset)
        for set_id, element in zip(set_ids.tolist(), elements.tolist()):
            for run in scalar._runs:
                run.feed(set_id, element)
        _feed(batched, set_ids, elements, chunk_size)
        assert any(run.alive for run in batched._runs)
        assert all(run.alive for run in batched._runs) == (offset >= 0)
        for mine, reference in zip(batched._runs, scalar._runs):
            assert mine.alive == reference.alive
            assert np.array_equal(mine.edges, reference.edges)
            assert mine.space_words() == reference.space_words()

    def test_edges_are_read_only(self, planted_workload, planted_stream):
        algo = SmallSet(_oracle_params(planted_workload), seed=4)
        algo.process_batch(*planted_stream.as_arrays())
        run = next(run for run in algo._runs if len(run.edges))
        with pytest.raises(AttributeError):
            run.edges = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            run.edges[0] = 0
        assert np.all(np.diff(run.edges) > 0)
