"""Reporting an approximate k-cover (Theorem 3.2).

Theorem 3.2 promises a single-pass algorithm that *returns the sets* of an
``alpha``-approximate ``k``-cover in ``O~(m/alpha^2 + k)`` space.  The
paper defers the construction to its full version but leaves the hooks in
place, which we follow:

* ``SmallSet`` stores real ``(set, element)`` edges, so its offline greedy
  solution *is* a k-cover (original set ids) -- no extra machinery.
* ``LargeSet``'s winning superset ``i*`` expands to its member sets
  ``{S : h(S) = i*}`` (at most ``w <= k`` of them) by scanning the id
  space with the stored partition hash -- the ``add return {S | h(S) =
  i*}`` comments in Figure 6.
* ``LargeCommon`` certifies a *collection* of ``~beta k`` sampled sets;
  Observation 2.4 guarantees some ``k``-subset retains a ``1/beta``
  fraction of its coverage.  :class:`ReportingLargeCommon` makes that
  effective: it splits each layer's sample into ``beta_g`` groups of
  ``~k`` sets with a second hash and meters every group with its own
  ``L_0`` sketch (``O~(beta_g) = O~(alpha)`` extra words per layer),
  then reports the best group's sets.

:class:`MaxCoverReporter` runs the three reporting-capable subroutines in
parallel and returns the best certified cover, trimmed to ``k`` sets.
Following the paper's reporting setting, it operates on the raw universe
(no universe reduction): the reduction step only matters for *estimation*
on instances whose optimum covers a vanishing fraction of ``U``, and
composing it with reporting is exactly the part the paper leaves to its
full version.
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
from repro.core.large_set import LargeSet
from repro.core.parameters import Parameters
from repro.core.small_set import SmallSet
from repro.engine.plan import EvalPlan
from repro.sketch.hashing import (
    KWiseHash,
    coefficient_batch,
    default_degree,
    same_hash,
    same_sampled_set,
)
from repro.sketch.l0 import L0Sketch
from repro.sketch.set_sampling import SetSampler

__all__ = ["ReportedCover", "ReportingLargeCommon", "MaxCoverReporter"]

#: Synopsis size of each group's coverage meter.
_GROUP_L0_SIZE = 32


@dataclass(frozen=True)
class ReportedCover:
    """A reported approximate k-cover.

    Attributes
    ----------
    set_ids:
        At most ``k`` original set ids.
    estimated_coverage:
        The reporter's certificate for the cover's coverage (a lower
        bound w.h.p.).
    source:
        Which subroutine produced it.
    """

    set_ids: tuple[int, ...]
    estimated_coverage: float
    source: str


class ReportingLargeCommon(StreamingAlgorithm):
    """``LargeCommon`` with per-group coverage meters (Observation 2.4).

    For each layer ``beta_g = 2^i``: sample ``~beta_g k`` sets, split them
    into ``beta_g`` groups of ``~k`` with an independent hash, and track
    each group's coverage with an ``L_0`` sketch.  The best group is a
    ``k``-sized certified cover.
    """

    def __init__(
        self,
        params: Parameters,
        seed=0,
        sample_scale: float = 1.0,
    ):
        super().__init__()
        self.params = params
        p = params
        rng = np.random.default_rng(seed)
        num_layers = max(1, int(math.ceil(math.log2(max(2.0, p.alpha)))))
        self.betas = [float(2**i) for i in range(num_layers + 1)]
        self.betas = [b for b in self.betas if b <= 2 * p.alpha]
        degree = default_degree(p.m, p.n)
        self._samplers: list[SetSampler] = []
        self._group_hashes: list[KWiseHash] = []
        self._group_l0: list[dict[int, L0Sketch]] = []
        self._l0_seeds: list[int] = []
        self._member_cache: list[dict[int, int]] = []
        for beta in self.betas:
            expected = min(float(p.m), sample_scale * beta * p.k)
            self._samplers.append(
                SetSampler(p.m, expected, seed=rng.integers(0, 2**63), n=p.n)
            )
            groups = max(1, int(round(beta)))
            self._group_hashes.append(
                KWiseHash(groups, degree=degree, seed=rng.integers(0, 2**63))
            )
            self._group_l0.append({})
            self._l0_seeds.append(int(rng.integers(0, 2**63)))
            self._member_cache.append({})

    def _process(self, set_id, element) -> None:
        set_id, element = int(set_id), int(element)
        for layer in range(len(self.betas)):
            cache = self._member_cache[layer]
            group = cache.get(set_id, -2)
            if group == -2:
                if self._samplers[layer].contains(set_id):
                    group = self._group_hashes[layer](set_id)
                else:
                    group = -1
                cache[set_id] = group
            if group < 0:
                continue
            sketch = self._group_l0[layer].get(group)
            if sketch is None:
                sketch = L0Sketch(
                    sketch_size=_GROUP_L0_SIZE,
                    seed=(self._l0_seeds[layer] + group) & (2**63 - 1),
                )
                self._group_l0[layer][group] = sketch
            sketch.process(element)

    def _process_batch(self, set_ids, elements) -> None:
        for layer in range(len(self.betas)):
            mask = self._samplers[layer]._membership.contains_many(set_ids)
            if not mask.any():
                continue
            kept_sets, kept_elems = set_ids[mask], elements[mask]
            groups = self._group_hashes[layer](kept_sets)
            layer_l0 = self._group_l0[layer]
            for group in np.unique(groups).tolist():
                group = int(group)
                sketch = layer_l0.get(group)
                if sketch is None:
                    sketch = L0Sketch(
                        sketch_size=_GROUP_L0_SIZE,
                        seed=(self._l0_seeds[layer] + group) & (2**63 - 1),
                    )
                    layer_l0[group] = sketch
                sketch.process_batch(kept_elems[groups == group])

    # -- fused-plan hooks ---------------------------------------------------

    def _register_plan(self, plan, set_col, elem_col) -> None:
        """Per layer: one membership mask plus one group-hash slot."""
        self._layer_slots = [
            (
                plan.request_mask(set_col, sampler._membership),
                plan.request(set_col, group_hash),
            )
            for sampler, group_hash in zip(
                self._samplers, self._group_hashes
            )
        ]

    def _process_planned(self, set_ids, elements, ctx) -> None:
        slots = getattr(self, "_layer_slots", None)
        if slots is None:
            self._process_batch(set_ids, elements)
            return
        for layer, (member_slot, group_slot) in enumerate(slots):
            mask = member_slot.mask(ctx)
            if not mask.any():
                continue
            kept_elems = elements[mask]
            groups = group_slot.values(ctx)[mask]
            layer_l0 = self._group_l0[layer]
            for group in np.unique(groups).tolist():
                group = int(group)
                sketch = layer_l0.get(group)
                if sketch is None:
                    sketch = L0Sketch(
                        sketch_size=_GROUP_L0_SIZE,
                        seed=(self._l0_seeds[layer] + group) & (2**63 - 1),
                    )
                    layer_l0[group] = sketch
                sketch.process_batch(kept_elems[groups == group])

    def _require_mergeable(self, other: "ReportingLargeCommon") -> None:
        if (
            other.params != self.params
            or other.betas != self.betas
            or other._l0_seeds != self._l0_seeds
            or any(
                not same_sampled_set(mine._membership, theirs._membership)
                for mine, theirs in zip(self._samplers, other._samplers)
            )
            or any(
                not same_hash(mine, theirs)
                for mine, theirs in zip(
                    self._group_hashes, other._group_hashes
                )
            )
        ):
            raise MergeIncompatibleError(
                "can only merge ReportingLargeCommon instances with "
                "identical seeds and parameters"
            )

    def _merge(self, other: "ReportingLargeCommon") -> None:
        # Per-group sketches are created lazily, keyed by group id with a
        # deterministic per-group seed, so a group present in only one
        # shard merges by adoption.  Keep self's first-seen group order,
        # appending the other shard's new groups in its order, which
        # reproduces the single-pass dict order shard-by-shard.
        for layer, theirs in enumerate(other._group_l0):
            mine = self._group_l0[layer]
            for group, sketch in theirs.items():
                known = mine.get(group)
                if known is None:
                    mine[group] = sketch
                else:
                    known.merge(sketch)

    def _state_arrays(self) -> dict:
        state: dict = {}
        for layer, layer_l0 in enumerate(self._group_l0):
            state[f"layers/{layer}/gids"] = np.asarray(
                list(layer_l0.keys()), dtype=np.int64
            )
            for gid, sketch in layer_l0.items():
                pack_state(
                    state,
                    f"layers/{layer}/groups/{gid}",
                    sketch.state_arrays(),
                )
        return state

    def _load_state_arrays(self, state: dict) -> None:
        for layer in range(len(self.betas)):
            layer_l0: dict[int, L0Sketch] = {}
            for gid in state[f"layers/{layer}/gids"]:
                gid = int(gid)
                sketch = L0Sketch(
                    sketch_size=_GROUP_L0_SIZE,
                    seed=(self._l0_seeds[layer] + gid) & (2**63 - 1),
                )
                sketch.load_state_arrays(
                    unpack_state(state, f"layers/{layer}/groups/{gid}")
                )
                layer_l0[gid] = sketch
            self._group_l0[layer] = layer_l0

    def best_group(self) -> tuple[float, int, int] | None:
        """Finalise; ``(coverage estimate, layer, group)`` clearing the
        Figure 3 threshold, or ``None``."""
        self.finalize()
        p = self.params
        best: tuple[float, int, int] | None = None
        for layer, beta in enumerate(self.betas):
            layer_total = sum(
                sk.peek_estimate() for sk in self._group_l0[layer].values()
            )
            threshold = p.sigma * beta * p.n / (4.0 * p.alpha)
            if layer_total < threshold:
                continue
            for group, sketch in self._group_l0[layer].items():
                value = 2.0 * sketch.peek_estimate() / 3.0
                if best is None or value > best[0]:
                    best = (value, layer, group)
        return best

    def group_members(self, layer: int, group: int) -> list[int]:
        """Recover ``{S : sampled at layer, group_hash(S) = group}``."""
        ids = np.arange(self.params.m)
        sampled = self._samplers[layer]
        mask = sampled._membership.contains_many(ids)
        candidates = ids[mask]
        groups = self._group_hashes[layer](candidates)
        return [int(j) for j in candidates[groups == group]]

    def space_words(self) -> int:
        total = 0
        for layer in range(len(self.betas)):
            total += self._samplers[layer].space_words()
            total += self._group_hashes[layer].space_words()
            total += sum(
                sk.space_words() for sk in self._group_l0[layer].values()
            )
        return total


class MaxCoverReporter(StreamingAlgorithm):
    """Single-pass ``alpha``-approximate k-cover reporting (Theorem 3.2).

    Parameters
    ----------
    m, n, k, alpha:
        Instance shape and targets.
    mode:
        Parameter schedule mode (``"practical"`` / ``"paper"``).
    seed:
        Randomness.
    """

    def __init__(
        self,
        m: int,
        n: int,
        k: int,
        alpha: float,
        mode: str = "practical",
        seed=0,
    ):
        super().__init__()
        maker = Parameters.paper if mode == "paper" else Parameters.practical
        self.params = maker(m, n, k, alpha)
        rng = np.random.default_rng(seed)
        p = self.params
        w = p.k if p.large_set_dominates else int(math.ceil(p.alpha))
        w = max(1, min(w, p.k))
        # Every subroutine's hash coefficients come from one kernel call.
        with coefficient_batch():
            self._large_common = ReportingLargeCommon(
                p, seed=rng.integers(0, 2**63)
            )
            self._large_set = LargeSet(p, w=w, seed=rng.integers(0, 2**63))
            self._small_set = (
                None
                if p.large_set_dominates
                else SmallSet(p, seed=rng.integers(0, 2**63))
            )
        # Fused evaluation plan over all three subroutines, built lazily
        # at the first vectorised chunk.
        self._plan = None

    def _process(self, set_id, element) -> None:
        self._large_common.process(set_id, element)
        self._large_set.process(set_id, element)
        if self._small_set is not None:
            self._small_set.process(set_id, element)

    def _ensure_plan(self) -> EvalPlan:
        if self._plan is None:
            plan = EvalPlan(self.params.m, self.params.n)
            self._large_common._register_plan(plan, plan.sets, plan.elems)
            self._large_set._register_plan(plan, plan.sets, plan.elems)
            if self._small_set is not None:
                self._small_set._register_plan(
                    plan, plan.sets, plan.elems
                )
            self._plan = plan
        return self._plan

    def _process_batch(self, set_ids, elements) -> None:
        ctx = self._ensure_plan().begin_chunk(set_ids, elements)
        if ctx is None:
            # Ids outside the declared [0, m) / [0, n): the scalar
            # reference loop handles the chunk.
            super()._process_batch(set_ids, elements)
            return
        # Hand down the context's int64 columns, not the raw chunk.
        self._large_common._ingest_planned(ctx.set_ids, ctx.elements, ctx)
        self._large_set._ingest_planned(ctx.set_ids, ctx.elements, ctx)
        if self._small_set is not None:
            self._small_set._ingest_planned(ctx.set_ids, ctx.elements, ctx)

    def _require_mergeable(self, other: "MaxCoverReporter") -> None:
        if other.params != self.params:
            raise MergeIncompatibleError(
                "can only merge MaxCoverReporter instances with identical "
                "parameters"
            )

    def _merge(self, other: "MaxCoverReporter") -> None:
        # Children validate their own seeds; mismatched top-level seeds
        # surface as a child MergeIncompatibleError.
        self._large_common.merge(other._large_common)
        self._large_set.merge(other._large_set)
        if self._small_set is not None:
            self._small_set.merge(other._small_set)

    def _state_arrays(self) -> dict:
        state: dict = {}
        pack_state(state, "large_common", self._large_common.state_arrays())
        pack_state(state, "large_set", self._large_set.state_arrays())
        if self._small_set is not None:
            pack_state(state, "small_set", self._small_set.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        self._large_common.load_state_arrays(
            unpack_state(state, "large_common")
        )
        self._large_set.load_state_arrays(unpack_state(state, "large_set"))
        if self._small_set is not None:
            self._small_set.load_state_arrays(
                unpack_state(state, "small_set")
            )

    def solution(self) -> ReportedCover:
        """Finalise; the best certified k-cover across subroutines."""
        self.finalize()
        p = self.params
        candidates: list[ReportedCover] = []

        group = self._large_common.best_group()
        if group is not None:
            value, layer, gid = group
            ids = tuple(self._large_common.group_members(layer, gid)[: p.k])
            if ids:
                candidates.append(ReportedCover(ids, value, "large_common"))

        best_ls = self._large_set.best_outcome()
        if best_ls is not None:
            outcome, run = best_ls
            probability = (
                run.element_sampler.probability
                if run.element_sampler is not None
                else 1.0
            )
            value = min(float(p.n), outcome.value_on_sample / probability)
            ids = tuple(run.superset_members(outcome.superset_id)[: p.k])
            if ids:
                candidates.append(ReportedCover(ids, value, "large_set"))

        if self._small_set is not None:
            best_ss = self._small_set.best_cover()
            if best_ss is not None:
                value, ids = best_ss
                ids = tuple(ids[: p.k])
                if ids:
                    candidates.append(
                        ReportedCover(ids, value, "small_set")
                    )

        if not candidates:
            return ReportedCover((), 0.0, "infeasible")
        return max(candidates, key=lambda c: c.estimated_coverage)

    def space_words(self) -> int:
        total = self._large_common.space_words()
        total += self._large_set.space_words()
        if self._small_set is not None:
            total += self._small_set.space_words()
        return total + self.params.k
