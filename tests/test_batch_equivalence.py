"""Scalar/batch equivalence: the vectorized engine is bit-identical.

The scalar per-token ``process`` path is the reference implementation;
the batched ``process_batch`` path (hash banks, stacked reducers,
windowed candidate pools) must produce *the same numbers*, not merely
statistically similar ones, for every way of chunking the stream.  Each
test replays one fixed-seed stream through chunk sizes 1, 7, 4096 and
whole-stream and demands exact equality with the per-token run.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import EstimateMaxCover, MaxCoverReporter
from repro.core.large_common import LargeCommon
from repro.core.large_set import LargeSet
from repro.core.oracle import Oracle
from repro.core.small_set import SmallSet
from repro.sketch.serialize import ORDER_FREE_KEYS, state_difference

CHUNK_SIZES = (1, 7, 4096, None)  # None = the whole stream in one call


def _replay_scalar(algo, set_ids, elements):
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        algo.process(set_id, element)
    return algo


def _replay_chunked(algo, set_ids, elements, chunk_size):
    if chunk_size is None:
        chunk_size = max(1, len(set_ids))
    for start in range(0, len(set_ids), chunk_size):
        stop = start + chunk_size
        algo.process_batch(set_ids[start:stop], elements[start:stop])
    return algo


def _stream_arrays(planted_stream):
    return planted_stream.as_arrays()


@pytest.fixture(scope="module")
def arrays(planted_stream):
    return planted_stream.as_arrays()


@pytest.fixture(scope="module")
def planted_reporter(planted_workload):
    system = planted_workload.system
    return partial(
        MaxCoverReporter, m=system.m, n=system.n, k=6, alpha=3.0, seed=13
    )


@pytest.fixture(scope="module")
def scalar_reporter(planted_reporter, arrays):
    """Scalar-path reference reporter over ``arrays``, run once."""
    return _replay_scalar(planted_reporter(), *arrays)


class TestEstimateMaxCover:
    def _make(self, planted_workload):
        system = planted_workload.system
        return EstimateMaxCover(
            m=system.m, n=system.n, k=6, alpha=3.0, seed=5
        )

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_estimate_bit_identical(
        self, planted_workload, arrays, chunk_size
    ):
        set_ids, elements = arrays
        reference = _replay_scalar(
            self._make(planted_workload), set_ids, elements
        )
        batched = _replay_chunked(
            self._make(planted_workload), set_ids, elements, chunk_size
        )
        assert batched.estimate() == reference.estimate()

    def test_branch_estimates_bit_identical(self, planted_workload, arrays):
        set_ids, elements = arrays
        reference = _replay_scalar(
            self._make(planted_workload), set_ids, elements
        )
        batched = _replay_chunked(
            self._make(planted_workload), set_ids, elements, 4096
        )
        reference.finalize()
        batched.finalize()
        assert batched.branch_estimates() == reference.branch_estimates()


class TestOracle:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_estimate_bit_identical(
        self, practical_params, arrays, chunk_size
    ):
        set_ids, elements = arrays
        reference = _replay_scalar(
            Oracle(practical_params, seed=5), set_ids, elements
        )
        batched = _replay_chunked(
            Oracle(practical_params, seed=5), set_ids, elements, chunk_size
        )
        assert batched.estimate() == reference.estimate()


class TestSubroutines:
    """Each oracle subroutine individually, same seeds both paths."""

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize(
        "factory", [LargeCommon, LargeSet, SmallSet],
        ids=lambda f: f.__name__,
    )
    def test_estimate_bit_identical(
        self, practical_params, arrays, factory, chunk_size
    ):
        set_ids, elements = arrays
        reference = _replay_scalar(
            factory(practical_params, seed=5), set_ids, elements
        )
        batched = _replay_chunked(
            factory(practical_params, seed=5), set_ids, elements, chunk_size
        )
        assert batched.estimate() == reference.estimate()


class TestChunkingInvariance:
    """Chunk boundaries never leak into the result: ragged vs regular."""

    def test_ragged_chunks_match_regular(self, planted_workload, arrays):
        set_ids, elements = arrays
        system = planted_workload.system

        def make():
            return EstimateMaxCover(
                m=system.m, n=system.n, k=6, alpha=3.0, seed=9
            )

        regular = _replay_chunked(make(), set_ids, elements, 512)
        ragged = make()
        rng = np.random.default_rng(0)
        start = 0
        while start < len(set_ids):
            stop = min(len(set_ids), start + int(rng.integers(1, 700)))
            ragged.process_batch(set_ids[start:stop], elements[start:stop])
            start = stop
        assert ragged.estimate() == regular.estimate()


class TestPlannedEquivalence:
    """The fused evaluation plan is bit-identical to the scalar reference.

    The plan layer (``repro.engine.plan``) collects every hash family in
    the composite tree, evaluates deduplicated mega-banks once per
    chunk, and hands memoised columns to each branch.  None of that may
    change a single bit: for every chunking and every adversarial
    arrival order, the planned run must equal the per-token ``process``
    run in its final answer, its ``space_words`` *and* its complete
    serialised state.

    The planned pass is parametrised over the column form it is fed
    (``column_form`` fixture): Python-list columns must build exactly
    the state int64 arrays do.
    """

    PLAN_CHUNKS = (1, 7, 64, 8192)

    @staticmethod
    def _assert_same_state(
        planned, state, space_words, order_free=ORDER_FREE_KEYS
    ):
        # By default ``state_difference`` compares the reporter's
        # per-group id lists (``gids``) as sets: their first-seen order
        # depends on batching granularity, the sketches they name do not.
        assert (
            state_difference(planned.state_arrays(), state, order_free)
            is None
        )
        assert planned.space_words() == space_words

    @pytest.mark.parametrize("chunk_size", PLAN_CHUNKS)
    def test_estimator_state_bit_identical(
        self, planted_estimator, scalar_runs, arrays, chunk_size, column_form
    ):
        # ``arrays`` is the random order ``scalar_runs`` replayed.
        scalar = scalar_runs["random"]
        set_ids, elements = map(column_form, arrays)
        planned = _replay_chunked(
            planted_estimator(), set_ids, elements, chunk_size
        )
        # LargeSet's KMV bank lists its superset ids sorted, so the
        # estimator's state is exact: no key compared as a set, key
        # order included.
        self._assert_same_state(
            planned, scalar.state, scalar.space_words, order_free=()
        )
        assert planned.estimate() == scalar.estimate

    @pytest.mark.parametrize("chunk_size", PLAN_CHUNKS)
    def test_reporter_solution_bit_identical(
        self, planted_reporter, scalar_reporter, arrays, chunk_size,
        column_form,
    ):
        set_ids, elements = map(column_form, arrays)
        planned = _replay_chunked(
            planted_reporter(), set_ids, elements, chunk_size
        )
        self._assert_same_state(
            planned, scalar_reporter.state_arrays(),
            scalar_reporter.space_words(),
        )
        assert planned.solution() == scalar_reporter.solution()

    def test_every_arrival_order(
        self, planted_estimator, adversarial_streams, scalar_runs,
        column_form,
    ):
        for name, stream in adversarial_streams.items():
            scalar = scalar_runs[name]
            set_ids, elements = map(column_form, stream.as_arrays())
            planned = _replay_chunked(
                planted_estimator(), set_ids, elements, 64
            )
            self._assert_same_state(planned, scalar.state, scalar.space_words)
            assert planned.estimate() == scalar.estimate, name


class TestEvictionPressure:
    """Candidate pools under heavy eviction churn, scalar vs chunked.

    Regression guard for the windowed pool replay: streams engineered
    so items are evicted and later re-arrive (the hard case for any
    vectorised prune schedule) must still match the per-token pool
    exactly -- contents, counts, *and* dict insertion order.  Domain
    mode keeps no pool, so on the same streams its scalar, chunked and
    2-way-merged states must be byte-identical, where merged pools may
    diverge.
    """

    @staticmethod
    def _cycling():
        return np.concatenate([np.arange(24, dtype=np.int64) % 12] * 40)

    @staticmethod
    def _evict_rearrive(domain):
        rng = np.random.default_rng(17)
        return rng.zipf(1.3, size=4000).astype(np.int64) % domain

    @pytest.mark.parametrize("chunk_size", (1, 5, 24, 1000))
    def test_cycling_items_match_scalar(self, chunk_size):
        from repro.sketch.countsketch import F2HeavyHitter

        items = self._cycling()
        scalar = F2HeavyHitter(0.5, depth=2, seed=3)
        for item in items.tolist():
            scalar.process(item)
        chunked = F2HeavyHitter(0.5, depth=2, seed=3)
        for start in range(0, len(items), chunk_size):
            chunked.process_batch(items[start : start + chunk_size])
        assert list(chunked._candidates.items()) == list(
            scalar._candidates.items()
        )
        assert chunked._pool_tokens == scalar._pool_tokens

    @pytest.mark.parametrize("domain", (16, 200, 1 << 20))
    def test_evict_rearrive_matches_scalar(self, domain):
        from repro.sketch.countsketch import F2HeavyHitter

        items = self._evict_rearrive(domain)
        scalar = F2HeavyHitter(0.1, depth=2, seed=3)
        for item in items.tolist():
            scalar.process(item)
        chunked = F2HeavyHitter(0.1, depth=2, seed=3)
        for start in range(0, len(items), 333):
            chunked.process_batch(items[start : start + 333])
        assert list(chunked._candidates.items()) == list(
            scalar._candidates.items()
        )
        assert np.array_equal(
            chunked._sketch._table, scalar._sketch._table
        )

    @pytest.mark.parametrize(
        "phi, domain, chunk_size",
        [(0.5, None, 5), (0.1, 16, 333), (0.1, 200, 333), (0.1, 1 << 20, 333)],
        ids=["cycling", "evict-16", "evict-200", "evict-1048576"],
    )
    def test_domain_mode_scalar_chunked_merged_identical(
        self, phi, domain, chunk_size
    ):
        from repro.sketch.countsketch import F2HeavyHitter

        if domain is None:
            items, domain = self._cycling(), 12
        else:
            items = self._evict_rearrive(domain)
        make = partial(F2HeavyHitter, phi, depth=2, seed=3, domain=domain)
        scalar = make()
        for item in items.tolist():
            scalar.process(item)
        chunked = make()
        for start in range(0, len(items), chunk_size):
            chunked.process_batch(items[start : start + chunk_size])
        half = len(items) // 2
        merged = make().process_batch(items[:half])
        merged.merge(make().process_batch(items[half:]))
        reference = scalar.state_arrays()
        for other in (chunked, merged):
            assert state_difference(
                other.state_arrays(), reference, order_free=()
            ) is None
        assert merged.heavy_hitters() == scalar.heavy_hitters()


class TestOutOfDomainFallback:
    """Chunks with ids outside the declared ``[0, m)`` / ``[0, n)``.

    The fused plan's table gathers index by raw ids, so such a chunk is
    routed through the scalar reference loop instead; the resulting
    state must be byte-identical to feeding the same tokens one at a
    time through ``process``.
    """

    PREFIX = 300

    def _chunk(self, system, arrays):
        set_ids, elements = arrays
        # One set id >= m and one element >= n, mid-chunk.
        extra_sets = np.array([system.m, 0, system.m + 3], dtype=np.int64)
        extra_elems = np.array([0, system.n, system.n + 5], dtype=np.int64)
        half = self.PREFIX // 2
        return (
            np.concatenate(
                (set_ids[:half], extra_sets, set_ids[half : self.PREFIX])
            ),
            np.concatenate(
                (elements[:half], extra_elems, elements[half : self.PREFIX])
            ),
        )

    def _check(self, make, set_ids, elements):
        batched = make()
        batched.process_batch(set_ids, elements)
        scalar = _replay_scalar(make(), set_ids, elements)
        assert state_difference(
            batched.state_arrays(), scalar.state_arrays(), order_free=()
        ) is None
        assert batched.tokens_seen == scalar.tokens_seen == len(set_ids)
        return batched, scalar

    def test_estimator(self, planted_workload, arrays):
        system = planted_workload.system
        set_ids, elements = self._chunk(system, arrays)
        batched, scalar = self._check(
            lambda: EstimateMaxCover(
                m=system.m, n=system.n, k=6, alpha=3.0, seed=5
            ),
            set_ids,
            elements,
        )
        assert batched.estimate() == scalar.estimate()

    def test_reporter(self, planted_workload, arrays):
        from repro import MaxCoverReporter

        system = planted_workload.system
        set_ids, elements = self._chunk(system, arrays)
        batched, scalar = self._check(
            lambda: MaxCoverReporter(
                m=system.m, n=system.n, k=6, alpha=3.0, seed=13
            ),
            set_ids,
            elements,
        )
        assert batched.solution() == scalar.solution()

    def test_standalone_oracle(self, planted_workload, practical_params, arrays):
        set_ids, elements = self._chunk(planted_workload.system, arrays)
        batched, scalar = self._check(
            lambda: Oracle(practical_params, seed=5), set_ids, elements
        )
        assert batched.estimate() == scalar.estimate()
