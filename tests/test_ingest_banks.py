"""The array-backed ingest state against its per-object references.

``LargeSetRun`` keeps its case-2b ``L_0`` sketches as rows of one
:class:`~repro.sketch.l0.KMVBank`, ``F2Contributing`` updates its
levels' CountSketch tables with one stacked scatter, and ``SmallSetRun``
appends packed edge arrays that it deduplicates lazily.  Each must hold
exactly what the per-superset ``L0Sketch``, the per-level
``F2HeavyHitter.ingest_unique`` and the per-edge ``feed`` would.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import EdgeStream, StreamRunner
from repro.core.estimate import EstimateMaxCover
from repro.core.large_set import _L0_SIZE
from repro.core.oracle import Oracle
from repro.core.parameters import Parameters
from repro.core.small_set import SmallSet
from repro.sketch import countsketch
from repro.sketch.contributing import F2Contributing
from repro.sketch.l0 import L0Sketch
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


class TestStackedContributing:
    """One stacked scatter equals the per-level ``ingest_unique`` loop."""

    DOMAIN = 150

    @pytest.mark.parametrize("compact", (False, True))
    def test_table_and_tokens_equal_per_level_kernel(
        self, compact, monkeypatch
    ):
        if not compact:
            # Above the cap: full tables, every chunk hashed.
            monkeypatch.setattr(
                countsketch, "TABLE_DOMAIN_CAP", self.DOMAIN - 1
            )
        stacked = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        per_level = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        gathers = []
        level_rows = stacked._level_rows

        def spy(unique):
            gathers.append(unique)
            return level_rows(unique)

        monkeypatch.setattr(stacked, "_level_rows", spy)
        rng = np.random.default_rng(0)
        chunks = [
            rng.integers(0, self.DOMAIN, size=int(rng.integers(1, 400)))
            for _ in range(6)
        ]
        # A sparse and a dense chunk: the compact bank gathers the few
        # present columns of one and applies every term for the other.
        chunks += [np.array([5, 5, 140]), np.arange(self.DOMAIN)]
        for items in chunks:
            unique, counts = np.unique(items, return_counts=True)
            stacked.ingest_grouped(
                np.bincount(items, minlength=self.DOMAIN), len(items)
            )
            keep = per_level._sampler_bank.contains_matrix(unique)
            for sketch, row in zip(per_level._sketches, keep):
                if counts[row].sum():
                    sketch.ingest_unique(
                        unique[row], counts[row], int(counts[row].sum())
                    )
        assert stacked.num_levels > 1
        assert (stacked._layout is not None) == compact
        if compact:
            assert 0 < len(gathers) < len(chunks)
        else:
            assert len(gathers) == len(chunks)
        for mine, reference in zip(stacked._sketches, per_level._sketches):
            assert np.array_equal(mine._sketch._table, reference._sketch._table)
            assert mine.tokens_seen == reference.tokens_seen
        assert any(s._sketch._table.any() for s in stacked._sketches)

    def test_level_tables_stay_views_after_load(self):
        source = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        source.process_batch(np.arange(self.DOMAIN))
        target = F2Contributing(0.05, 40, seed=3, domain=self.DOMAIN)
        loads_state(target, dumps_state(source))
        for level, sketch in enumerate(target._sketches):
            assert np.shares_memory(sketch._sketch._table, target._tables)
            assert np.array_equal(
                target._tables[level], source._sketches[level]._sketch._table
            )


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

    def test_levels_hold_depth_times_domain(self):
        planted = planted_cover(
            n=1000, m=200, k=10, coverage_frac=0.9, seed=99
        )
        stream = EdgeStream.from_system(planted.system, order="random", seed=2)
        tracemalloc.start()
        try:
            algo = EstimateMaxCover(m=200, n=1000, k=10, alpha=4, seed=7)
            StreamRunner(chunk_size=4096).run(algo, stream)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        levels = [
            heavy._sketch
            for _z, _reducer, oracle in algo._branches
            for run in oracle._large_set._runs
            for detector in (run._cntr_small, run._cntr_large)
            for heavy in detector._sketches
        ]
        held, full_bytes, full_shapes = 0, 0, set()
        for sketch in levels:
            assert sketch._table.shape == (
                sketch.depth,
                min(sketch.domain, sketch.width),
            )
            held += sketch._table.size
            full_bytes += sketch.depth * sketch.width * sketch._table.itemsize
            full_shapes.add((sketch.depth, sketch.width))
        assert len(levels) == 330
        assert held == self.HELD_COUNTERS
        assert not any(a.shape in full_shapes for a in _arrays(algo))
        # Construction and pass together never held what the full
        # tables alone would take, even for a moment.
        assert peak < full_bytes
        assert algo.space_words() == self.SPACE_WORDS
        assert algo.estimate() == 428.0


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
