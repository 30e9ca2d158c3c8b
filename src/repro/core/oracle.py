"""The ``(alpha, delta, eta)``-oracle for Max k-Cover (Section 4, Figure 2).

Definition 3.4: an oracle that (a) never overestimates the optimal
coverage (w.h.p.), and (b) whenever the optimal ``k``-cover covers at
least a ``1/eta`` fraction of the universe, returns at least
``|C(OPT)|/alpha`` with probability ``1 - delta``.

The oracle runs three single-pass subroutines *in parallel on the same
stream* and reports the maximum:

* :class:`~repro.core.large_common.LargeCommon` -- wins when some
  common-element level is dense (case I);
* :class:`~repro.core.large_set.LargeSet` -- wins when few large sets
  dominate an optimal solution (case II); per Figure 2 it is invoked with
  superset cap ``w = k`` when ``s alpha >= 2k`` (Claim 4.3: ``OPT_large``
  then always dominates) and ``w = alpha`` otherwise;
* :class:`~repro.core.small_set.SmallSet` -- wins when many small sets
  dominate (case III); only needed when ``s alpha < 2k``.

Each subroutine individually never overestimates, so the max inherits
property (a); the case analysis of Section 4 shows every instance with
``|C(OPT)| >= |U|/eta`` lands in at least one subroutine's win condition,
giving property (b).  Total space is the sum of the parts,
``O~(m/alpha^2)`` (Theorem 4.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    pack_state,
    unpack_state,
)
from repro.core.large_common import LargeCommon
from repro.core.large_set import LargeSet
from repro.core.parameters import Parameters
from repro.core.small_set import SmallSet
from repro.engine.plan import EvalPlan
from repro.sketch.hashing import coefficient_batch

__all__ = ["OracleEstimate", "Oracle"]


@dataclass(frozen=True)
class OracleEstimate:
    """The oracle's answer with provenance.

    Attributes
    ----------
    value:
        Estimated optimal coverage (0.0 when every subroutine was
        infeasible -- a legal answer for an instance violating the
        ``eta`` promise).
    source:
        Winning subroutine: ``"large_common"``, ``"large_set"``,
        ``"small_set"``, or ``"infeasible"``.
    per_subroutine:
        Raw per-subroutine estimates (``None`` = infeasible), for the
        ablation experiments.
    """

    value: float
    source: str
    per_subroutine: dict


class Oracle(StreamingAlgorithm):
    """Figure 2's dispatcher over the three subroutines.

    Parameters
    ----------
    params:
        Resolved parameter schedule (controls which ``LargeSet`` branch
        runs, and whether ``SmallSet`` is constructed at all).
    seed:
        Randomness, split between subroutines.
    enable:
        Iterable of subroutine names to run (default: the Figure 2
        selection).  The ablation benchmark passes subsets.
    """

    SUBROUTINES = ("large_common", "large_set", "small_set")

    def __init__(self, params: Parameters, seed=0, enable=None):
        super().__init__()
        self.params = params
        rng = np.random.default_rng(seed)
        if enable is None:
            enable = set(self.SUBROUTINES)
            if params.large_set_dominates:
                enable.discard("small_set")
        else:
            enable = set(enable)
            unknown = enable - set(self.SUBROUTINES)
            if unknown:
                raise ValueError(
                    f"unknown subroutines {sorted(unknown)}; "
                    f"choose from {self.SUBROUTINES}"
                )
        self.enabled = frozenset(enable)
        p = params
        w = p.k if p.large_set_dominates else int(math.ceil(p.alpha))
        w = max(1, min(w, p.k))
        # Draw one seed per subroutine slot unconditionally, so ablating
        # one subroutine leaves the others' randomness untouched.
        seeds = {name: rng.integers(0, 2**63) for name in self.SUBROUTINES}
        # A standalone oracle derives its coefficients in one kernel
        # call; inside EstimateMaxCover this joins the estimator's batch.
        with coefficient_batch():
            self._large_common = (
                LargeCommon(p, seed=seeds["large_common"])
                if "large_common" in enable
                else None
            )
            self._large_set = (
                LargeSet(p, w=w, seed=seeds["large_set"])
                if "large_set" in enable
                else None
            )
            self._small_set = (
                SmallSet(p, seed=seeds["small_set"])
                if "small_set" in enable
                else None
            )
        # Standalone fused plan, built lazily when this oracle is driven
        # directly (not through EstimateMaxCover's shared plan).
        self._plan = None

    def _process(self, set_id, element) -> None:
        if self._large_common is not None:
            self._large_common.process(set_id, element)
        if self._large_set is not None:
            self._large_set.process(set_id, element)
        if self._small_set is not None:
            self._small_set.process(set_id, element)

    def _process_batch(self, set_ids, elements) -> None:
        if self._plan is None:
            plan = EvalPlan(self.params.m, self.params.n)
            self._register_plan(plan, plan.sets, plan.elems)
            self._plan = plan
        ctx = self._plan.begin_chunk(set_ids, elements)
        if ctx is None:
            # Ids outside the declared [0, m) / [0, n): the scalar
            # reference loop handles the chunk.
            super()._process_batch(set_ids, elements)
            return
        # Hand down the context's int64 columns, not the raw chunk.
        self._process_planned(ctx.set_ids, ctx.elements, ctx)

    # -- fused-plan hooks ---------------------------------------------------

    def _register_plan(self, plan, set_col, elem_col) -> None:
        if self._large_common is not None:
            self._large_common._register_plan(plan, set_col, elem_col)
        if self._large_set is not None:
            self._large_set._register_plan(plan, set_col, elem_col)
        if self._small_set is not None:
            self._small_set._register_plan(plan, set_col, elem_col)

    def _process_planned(self, set_ids, elements, ctx) -> None:
        if self._large_common is not None:
            self._large_common._ingest_planned(set_ids, elements, ctx)
        if self._large_set is not None:
            self._large_set._ingest_planned(set_ids, elements, ctx)
        if self._small_set is not None:
            self._small_set._ingest_planned(set_ids, elements, ctx)

    def _children(self):
        return (
            ("large_common", self._large_common),
            ("large_set", self._large_set),
            ("small_set", self._small_set),
        )

    def _require_mergeable(self, other: "Oracle") -> None:
        if other.params != self.params or other.enabled != self.enabled:
            raise MergeIncompatibleError(
                "can only merge Oracle instances with identical "
                "parameters and enabled subroutines"
            )

    def _merge(self, other: "Oracle") -> None:
        for (_name, mine), (_n2, theirs) in zip(
            self._children(), other._children()
        ):
            if mine is not None:
                mine.merge(theirs)

    def _state_arrays(self) -> dict:
        state: dict = {}
        for name, child in self._children():
            if child is not None:
                pack_state(state, name, child.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        for name, child in self._children():
            if child is not None:
                child.load_state_arrays(unpack_state(state, name))

    def oracle_estimate(self) -> OracleEstimate:
        """Finalise; max over subroutines, with provenance."""
        self.finalize()
        for sub in (self._large_common, self._large_set, self._small_set):
            if sub is not None:
                sub.finalize()
        return self.peek_oracle_estimate()

    def peek_oracle_estimate(self) -> OracleEstimate:
        """Mid-stream snapshot of :meth:`oracle_estimate` (no finalise).

        The anytime hook: streaming deployments can read the current
        certified estimate while the pass continues.
        """
        per: dict[str, float | None] = {}
        if self._large_common is not None:
            per["large_common"] = self._large_common.peek_estimate()
        if self._large_set is not None:
            per["large_set"] = self._large_set.peek_estimate()
        if self._small_set is not None:
            per["small_set"] = self._small_set.peek_estimate()
        best_name, best_value = "infeasible", 0.0
        for name, value in per.items():
            if value is not None and value > best_value:
                best_name, best_value = name, value
        return OracleEstimate(best_value, best_name, per)

    def estimate(self) -> float:
        """Finalise; the scalar estimate (0.0 when infeasible)."""
        return self.oracle_estimate().value

    def peek_estimate(self) -> float:
        """Mid-stream scalar snapshot (no finalise)."""
        return self.peek_oracle_estimate().value

    @property
    def large_set(self) -> LargeSet | None:
        """The ``LargeSet`` subroutine (reporting needs its partition)."""
        return self._large_set

    @property
    def small_set(self) -> SmallSet | None:
        """The ``SmallSet`` subroutine (reporting needs its covers)."""
        return self._small_set

    @property
    def large_common(self) -> LargeCommon | None:
        """The ``LargeCommon`` subroutine."""
        return self._large_common

    def space_profile(self) -> dict[str, int]:
        """Per-subroutine space breakdown (words)."""
        profile = {}
        if self._large_common is not None:
            profile["large_common"] = self._large_common.space_words()
        if self._large_set is not None:
            profile["large_set"] = self._large_set.space_words()
        if self._small_set is not None:
            profile["small_set"] = self._small_set.space_words()
        return profile

    def space_words(self) -> int:
        return sum(self.space_profile().values())
