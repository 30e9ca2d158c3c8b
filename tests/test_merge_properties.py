"""Algebraic merge laws, checked for every mergeable algorithm.

A shard coordinator is free to merge partial states in any grouping, so
``merge`` must behave like the monoid it claims to be:

* **associative** -- ``(a + b) + c`` and ``a + (b + c)`` agree on the
  full serialised state (including pool insertion order, which later
  tie-breaks depend on);
* **commutative on answers** -- ``a + b`` and ``b + a`` may order their
  candidate pools differently but must report the same values;
* **identity** -- merging a freshly-constructed (empty) instance is a
  no-op on the state;
* **seed/parameter mismatches** raise :class:`MergeIncompatibleError`,
  and foreign types raise :class:`TypeError`, instead of silently
  corrupting state.

Every case round-trips its operands through the shard wire format
(:func:`dumps_state` / :func:`loads_state`) first, so these laws hold
for shipped state, not just in-process objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import pytest

from repro import EstimateMaxCover, MaxCoverReporter, MergeIncompatibleError
from repro.core.large_common import LargeCommon
from repro.core.large_set import LargeSet
from repro.core.parameters import Parameters
from repro.core.reporting import ReportingLargeCommon
from repro.core.small_set import SmallSet
from repro.core.oracle import Oracle
from repro.sketch.contributing import F2Contributing
from repro.sketch.countsketch import CountSketch, F2HeavyHitter
from repro.sketch.f2 import F2Sketch
from repro.sketch.hyperloglog import HyperLogLog
from repro.sketch.l0 import L0Sketch
from repro.sketch.l0_sampling import L0Sampler
from repro.sketch.serialize import dumps_state, loads_state
from repro.streams.edge_stream import EdgeStream
from repro.streams.generators import planted_cover

# Ragged relative to every pool capacity and stride in play, so chunk
# boundaries land mid-group and the batched kernels are stressed.
FEED_CHUNK = 37

# 60 distinct items, repeated: comfortably below every candidate-pool
# capacity in play, so pool merges are exact and order-insensitive on
# content (commutativity of *answers* is provable there).
ITEMS = [(x * 37) % 60 for x in range(600)]

_WORKLOAD = planted_cover(n=120, m=60, k=4, coverage_frac=0.9, seed=5)
EDGES = EdgeStream.from_system(_WORKLOAD.system, order="random", seed=9).edges
PARAMS = Parameters.practical(m=60, n=120, k=4, alpha=3.0)


@dataclass(frozen=True)
class Case:
    """One mergeable type: how to build it, feed it, and read it."""

    name: str
    factory: Callable
    mismatched: Callable  # same type, different seed/parameters
    tokens: list  # ints for item sketches, (set, element) for composites
    answer: Callable  # order-insensitive observable (may finalise)


CASES = [
    Case(
        "l0",
        partial(L0Sketch, sketch_size=16, seed=3),
        partial(L0Sketch, sketch_size=16, seed=4),
        ITEMS,
        lambda a: a.estimate(),
    ),
    Case(
        "f2",
        partial(F2Sketch, means=8, medians=3, seed=3),
        partial(F2Sketch, means=8, medians=5, seed=3),
        ITEMS,
        lambda a: a.estimate(),
    ),
    Case(
        "countsketch",
        partial(CountSketch, width=64, depth=3, seed=3),
        partial(CountSketch, width=64, depth=3, seed=4),
        ITEMS,
        lambda a: tuple(a.query(x) for x in range(60)),
    ),
    Case(
        "heavy_hitter",
        partial(F2HeavyHitter, phi=0.05, seed=3),
        partial(F2HeavyHitter, phi=0.07, seed=3),
        ITEMS,
        lambda a: a.peek_heavy_hitters(),
    ),
    Case(
        "hyperloglog",
        partial(HyperLogLog, precision=8, seed=3),
        partial(HyperLogLog, precision=9, seed=3),
        ITEMS,
        lambda a: a.estimate(),
    ),
    Case(
        "l0_sampler",
        partial(L0Sampler, samples=8, seed=3),
        partial(L0Sampler, samples=8, seed=4),
        ITEMS,
        lambda a: a.sample(),
    ),
    Case(
        "contributing",
        partial(F2Contributing, gamma=0.1, max_class_size=8, seed=3),
        partial(F2Contributing, gamma=0.2, max_class_size=8, seed=3),
        ITEMS,
        lambda a: {
            (c.coordinate, c.frequency, c.level)
            for c in a.peek_contributing()
        },
    ),
    Case(
        "small_set",
        partial(SmallSet, PARAMS, seed=3),
        partial(SmallSet, PARAMS, seed=4),
        EDGES,
        lambda a: a.estimate(),
    ),
    Case(
        "large_set",
        partial(LargeSet, PARAMS, w=3, seed=3),
        partial(LargeSet, PARAMS, w=3, seed=4),
        EDGES,
        lambda a: a.estimate(),
    ),
    Case(
        "large_common",
        partial(LargeCommon, PARAMS, seed=3),
        partial(LargeCommon, PARAMS, seed=4),
        EDGES,
        lambda a: a.estimate(),
    ),
    Case(
        "reporting_large_common",
        partial(ReportingLargeCommon, PARAMS, seed=3),
        partial(ReportingLargeCommon, PARAMS, seed=4),
        EDGES,
        lambda a: a.best_group(),
    ),
    Case(
        "oracle",
        partial(Oracle, PARAMS, seed=3),
        partial(Oracle, PARAMS, seed=4),
        EDGES,
        lambda a: a.oracle_estimate(),
    ),
    Case(
        "estimate_max_cover",
        partial(EstimateMaxCover, m=60, n=120, k=4, alpha=3.0, seed=3),
        partial(EstimateMaxCover, m=60, n=120, k=4, alpha=3.0, seed=4),
        EDGES,
        lambda a: a.estimate(),
    ),
    Case(
        "max_cover_reporter",
        partial(MaxCoverReporter, m=60, n=120, k=4, alpha=3.0, seed=3),
        partial(MaxCoverReporter, m=60, n=120, k=4, alpha=3.0, seed=4),
        EDGES,
        lambda a: a.solution(),
    ),
]


def _feed(algo, tokens, as_column):
    """Feed tokens in ragged column batches through ``process_batch``,
    so the batched kernels build the states whose merge laws are under
    test (scalar/batch equivalence is asserted separately in
    test_batch_equivalence.py).  ``as_column`` is the ``column_form``
    fixture: every law must hold whichever form the columns arrive in."""
    if not tokens:
        return algo
    if isinstance(tokens[0], tuple):
        columns = [as_column(c) for c in zip(*tokens)]
    else:
        columns = [as_column(tokens)]
    for start in range(0, len(columns[0]), FEED_CHUNK):
        algo.process_batch(
            *(c[start : start + FEED_CHUNK] for c in columns)
        )
    return algo


def _thirds(tokens):
    third = len(tokens) // 3
    return tokens[:third], tokens[third : 2 * third], tokens[2 * third :]


def _clone(case: Case, algo):
    """Round-trip through the shard wire format: the operand a
    coordinator actually merges."""
    return loads_state(case.factory(), dumps_state(algo))


def _parts(case: Case, as_column):
    return [
        _feed(case.factory(), part, as_column)
        for part in _thirds(case.tokens)
    ]


def _receivers(case: Case, as_column):
    """A fresh and a fed instance: either must refuse a bad merge."""
    return case.factory(), _feed(case.factory(), case.tokens[:10], as_column)


def _assert_same_state(x, y):
    """Full state equality, insertion order included."""
    sx, sy = x.state_arrays(), y.state_arrays()
    assert list(sx) == list(sy)
    for key in sx:
        assert np.array_equal(sx[key], sy[key]), key


@pytest.fixture(params=CASES, ids=[c.name for c in CASES], scope="module")
def case(request) -> Case:
    return request.param


class TestMergeLaws:
    def test_associative(self, case, column_form):
        a, b, c = _parts(case, column_form)
        left = _clone(case, a).merge(_clone(case, b)).merge(_clone(case, c))
        bc = _clone(case, b).merge(_clone(case, c))
        right = _clone(case, a).merge(bc)
        _assert_same_state(left, right)
        assert case.answer(left) == case.answer(right)

    def test_commutative_answers(self, case, column_form):
        a, b, _c = _parts(case, column_form)
        ab = _clone(case, a).merge(_clone(case, b))
        ba = _clone(case, b).merge(_clone(case, a))
        assert ab.tokens_seen == ba.tokens_seen
        assert case.answer(ab) == case.answer(ba)

    def test_empty_is_identity(self, case, column_form):
        a, _b, _c = _parts(case, column_form)
        merged = _clone(case, a).merge(case.factory())
        _assert_same_state(merged, a)
        assert case.answer(merged) == case.answer(_clone(case, a))

    def test_merge_matches_single_pass_answer(self, case, column_form):
        single = _feed(case.factory(), case.tokens, column_form)
        a, b, c = _parts(case, column_form)
        merged = (
            _clone(case, a).merge(_clone(case, b)).merge(_clone(case, c))
        )
        assert merged.tokens_seen == single.tokens_seen
        assert case.answer(merged) == case.answer(single)


class TestMergeValidation:
    def test_mismatched_parameters_raise(self, case, column_form):
        for receiver in _receivers(case, column_form):
            with pytest.raises(MergeIncompatibleError):
                receiver.merge(case.mismatched())

    def test_mismatch_is_a_value_error(self, case, column_form):
        """Compatibility contract with the pre-existing suite: parameter
        mismatches are (a subclass of) ValueError."""
        for receiver in _receivers(case, column_form):
            with pytest.raises(ValueError):
                receiver.merge(case.mismatched())

    def test_foreign_type_raises(self, case, column_form):
        foreign = (
            F2Sketch(seed=1)
            if not isinstance(case.factory(), F2Sketch)
            else L0Sketch(seed=1)
        )
        for receiver in _receivers(case, column_form):
            with pytest.raises(TypeError):
                receiver.merge(foreign)

    def test_merge_after_finalize_raises(self, case, column_form):
        algo = _feed(case.factory(), case.tokens[:10], column_form)
        algo.finalize()
        from repro.base import StreamConsumedError

        with pytest.raises(StreamConsumedError):
            algo.merge(case.factory())
