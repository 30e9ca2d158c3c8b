"""Tests for the per-plan scratch arena (:mod:`repro.engine.arena`).

The arena's contract: every ``(key)`` gets a reused, correctly shaped
and typed buffer per chunk; buffers grow monotonically and short chunks
reuse a prefix view of the largest allocation.  Plan integration:
consecutive chunks of a frozen :class:`~repro.engine.plan.EvalPlan`
write their intermediates into the same storage, so the steady state
allocates nothing.
"""

import numpy as np
import pytest

from repro.engine.arena import ScratchArena
from repro.engine.plan import EvalPlan
from repro.sketch.hashing import KWiseHash


class TestTake:
    def test_shape_and_dtype(self):
        arena = ScratchArena()
        buf = arena.take("a", (3, 7))
        assert buf.shape == (3, 7)
        assert buf.dtype == np.int64
        mask = arena.take("b", (5,), bool)
        assert mask.shape == (5,)
        assert mask.dtype == np.bool_

    def test_same_key_reuses_storage(self):
        arena = ScratchArena()
        first = arena.take("k", (4, 8))
        second = arena.take("k", (4, 8))
        assert np.shares_memory(first, second)
        assert arena.hits == 1
        assert arena.misses == 1
        assert arena.buffer_count == 1

    def test_smaller_request_is_prefix_view(self):
        arena = ScratchArena()
        big = arena.take("k", (4, 100))
        small = arena.take("k", (4, 60))
        assert small.shape == (4, 60)
        assert np.shares_memory(big, small)
        assert arena.misses == 1

    def test_growth_reallocates_elementwise_max(self):
        arena = ScratchArena()
        arena.take("k", (2, 100))
        grown = arena.take("k", (5, 50))
        assert grown.shape == (5, 50)
        assert arena.misses == 2
        # Capacity is now (5, 100): both historical shapes fit.
        assert arena.take("k", (5, 100)).shape == (5, 100)
        assert arena.misses == 2

    def test_dtype_change_reallocates(self):
        arena = ScratchArena()
        arena.take("k", (8,), np.int64)
        mask = arena.take("k", (8,), bool)
        assert mask.dtype == np.bool_
        assert arena.misses == 2

    def test_ndim_change_reallocates(self):
        arena = ScratchArena()
        arena.take("k", (8,))
        two_d = arena.take("k", (2, 8))
        assert two_d.shape == (2, 8)
        assert arena.misses == 2

    def test_distinct_keys_distinct_buffers(self):
        arena = ScratchArena()
        a = arena.take(("bank", 0), (4,))
        b = arena.take(("bank", 1), (4,))
        assert not np.shares_memory(a, b)
        assert arena.buffer_count == 2
        assert arena.nbytes() == a.nbytes + b.nbytes


class TestPlanIntegration:
    def _chunk(self, length, domain, seed):
        rng = np.random.default_rng(seed)
        return rng.integers(0, domain, size=length, dtype=np.int64)

    def test_megabank_chunks_reuse_one_bank_buffer(self):
        plan = EvalPlan(set_domain=500, elem_domain=500, table_cap=1)
        slot = plan.request(plan.elems, KWiseHash(64, degree=4, seed=1))
        ctx1 = plan.begin_chunk(
            self._chunk(256, 500, 0), self._chunk(256, 500, 1)
        )
        values1 = np.array(ctx1.values(slot))  # copy before reuse
        raw1 = ctx1.values(slot)
        ctx2 = plan.begin_chunk(
            self._chunk(256, 500, 2), self._chunk(256, 500, 3)
        )
        raw2 = ctx2.values(slot)
        assert np.shares_memory(raw1, raw2)
        # Values stay bit-identical to an unplanned evaluation.
        expected = slot.hash(ctx2.elements)
        np.testing.assert_array_equal(raw2, expected)
        assert not np.array_equal(values1, raw2)

    def test_short_final_chunk_reuses_prefix(self):
        plan = EvalPlan(set_domain=500, elem_domain=500, table_cap=1)
        slot = plan.request(plan.elems, KWiseHash(64, degree=4, seed=1))
        ctx1 = plan.begin_chunk(
            self._chunk(256, 500, 0), self._chunk(256, 500, 1)
        )
        full = ctx1.values(slot)
        ctx2 = plan.begin_chunk(
            self._chunk(40, 500, 2), self._chunk(40, 500, 3)
        )
        tail = ctx2.values(slot)
        assert len(tail) == 40
        assert np.shares_memory(full, tail)
        np.testing.assert_array_equal(tail, slot.hash(ctx2.elements))

    def test_tabulated_gather_and_all_true_reuse(self):
        plan = EvalPlan(set_domain=500, elem_domain=500)
        slot = plan.request(plan.elems, KWiseHash(64, degree=4, seed=1))
        trivial = plan.request(plan.sets, KWiseHash(1, degree=4, seed=2))
        ctx1 = plan.begin_chunk(
            self._chunk(128, 500, 0), self._chunk(128, 500, 1)
        )
        gathered1 = ctx1.values(slot)
        true1 = ctx1.mask(trivial)
        assert bool(true1.all())
        ctx2 = plan.begin_chunk(
            self._chunk(128, 500, 2), self._chunk(128, 500, 3)
        )
        gathered2 = ctx2.values(slot)
        true2 = ctx2.mask(trivial)
        assert np.shares_memory(gathered1, gathered2)
        assert np.shares_memory(true1, true2)
        np.testing.assert_array_equal(gathered2, slot.hash(ctx2.elements))

    def test_steady_state_has_no_arena_misses(self):
        plan = EvalPlan(set_domain=500, elem_domain=500, table_cap=1)
        slot = plan.request(plan.elems, KWiseHash(64, degree=4, seed=1))
        for seed in range(4):
            ctx = plan.begin_chunk(
                self._chunk(256, 500, seed), self._chunk(256, 500, seed + 10)
            )
            ctx.values(slot)
        misses_after_warmup = plan.arena.misses
        for seed in range(4, 8):
            ctx = plan.begin_chunk(
                self._chunk(256, 500, seed), self._chunk(256, 500, seed + 10)
            )
            ctx.values(slot)
        assert plan.arena.misses == misses_after_warmup
        assert plan.arena.hits > 0
