"""``SmallSet``: the element-sampling subroutine (Section 4.3).

Case III of the oracle's analysis: the optimal coverage comes mostly from
*small* sets (``|C(OPT_large)| < |C(OPT)|/2``), and no common-element
level is dense (``LargeCommon`` returned infeasible).  Two samplings then
compose (Figure 5):

* **Set subsampling** at rate ``~1/(s alpha)``: by Lemma 4.16 /
  Corollary 4.19, a ``(36k/(s alpha))``-cover with coverage
  ``Omega~(|U|/alpha)`` survives among the sampled sets -- a factor
  ``alpha`` smaller problem.
* **Element sampling** (Lemma 2.5) at the rate matching each guess
  ``gamma_g`` of the survivor's coverage fraction: a constant-factor
  cover of the sampled instance transfers back to the universe.

The induced sub-instance ``(L, M)`` fits in ``O~(m/alpha^2)`` words
(Lemmas 4.20/4.21, leaning on the sparse frequency levels guaranteed by
``LargeCommon``'s infeasibility); each run stores its edges explicitly,
*terminating itself* if the cap is ever exceeded -- exactly the guard in
Figure 5 -- and is solved offline with greedy after the pass.  A run's
greedy value only counts when it clears a support threshold
(``sol = Omega~(k/alpha)``), which is also what keeps the scaled estimate
from overshooting ``|C(OPT)|`` (Lemma 4.23).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    pack_state,
    sorted_unique,
    unpack_state,
)
from repro.core.parameters import Parameters
from repro.coverage.greedy import array_greedy
# Unused here, but benchmarks/e2e/tracing.py patches it by this name.
from repro.coverage.greedy import lazy_greedy  # noqa: F401
from repro.sketch.element_sampling import ElementSampler
from repro.sketch.hashing import SampledSetBank, same_sampled_set
from repro.sketch.set_sampling import SetSampler

__all__ = ["SmallSetRun", "SmallSet"]


@dataclass
class SmallSetRun:
    """One ``(gamma_g, repetition)`` cell of Figure 5's grid.

    Stored edges are kept packed as ``set_id * n + element`` int64s
    (elements live in ``[0, n)`` by the model's known-universe
    assumption), so the packed sort order is the pair sort order.  A
    run holds one sorted, duplicate-free base array plus the batches
    appended since, duplicates included; :meth:`merge` appends the other
    run's arrays the same way.  The pending batches are folded into the
    base only when the raw count passes the budget and when the edges
    are read (:attr:`edges`, behind ``space_words``, ``state_arrays``
    and the offline solve).  A fold sorts only the pending edges, drops
    those the base already holds by binary search and inserts the rest,
    so a run at its budget that keeps receiving edges it already stores
    never re-sorts its whole store.  The model's streams
    may repeat an edge arbitrarily often, and duplicates must neither
    inflate the stored sub-instance nor let an adversary exhaust the
    budget by replaying one pair: a run's distinct-edge count only
    grows, so folding once the raw count passes the budget kills a run
    exactly when a per-edge check would, and buffered raw edges never
    exceed the budget plus one batch.
    """

    gamma: float
    set_sampler: SetSampler
    element_sampler: ElementSampler
    budget: int
    alive: bool = True

    def __post_init__(self) -> None:
        # Membership memos: recomputable from the samplers' hash seeds,
        # so they are CPython speed caches outside the space model.
        self._set_memo: dict[int, bool] = {}
        self._elem_memo: dict[int, bool] = {}
        self._stride = self.element_sampler.n
        # Packed edges: the sorted, duplicate-free ``_base`` and the
        # arrays appended since; ``_raw`` counts both, duplicates
        # included.
        self._base = np.empty(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []
        self._raw = 0

    @property
    def edges(self) -> np.ndarray:
        """Stored edges, packed, sorted and duplicate-free (read-only)."""
        self._fold()
        edges = self._base.view()
        edges.flags.writeable = False
        return edges

    def _fold(self) -> None:
        """Merge the pending arrays into the base."""
        if not self._pending:
            return
        new = sorted_unique(np.concatenate(self._pending))
        self._pending = []
        base = self._base
        if len(base):
            at = np.searchsorted(base, new)
            missing = base[np.minimum(at, len(base) - 1)] != new
            if missing.any():
                base = np.insert(base, at[missing], new[missing])
        else:
            base = new
        self._base = base
        self._raw = len(base)

    def _store(self, packed: np.ndarray) -> None:
        """Append packed edges; Figure 5's guard on the distinct count."""
        self._pending.append(packed)
        self._raw += len(packed)
        self._check_budget()

    def _check_budget(self) -> None:
        if self._raw > self.budget:
            self._fold()
            if self._raw > self.budget:
                # A run that outgrows O~(m/alpha^2) words is terminated
                # (its precondition evidently does not hold).
                self._die()

    def _die(self) -> None:
        self.alive = False
        self._base = np.empty(0, dtype=np.int64)
        self._pending = []
        self._raw = 0

    def feed_masked(self, packed, mask) -> None:
        """Store the chunk's packed edges where ``mask`` holds.

        :class:`SmallSet` packs each chunk once and decides every run's
        sampler masks at once, then lands here; dead runs ignore their
        rows exactly like :meth:`feed`.
        """
        if not self.alive:
            return
        edges = packed[mask]
        if len(edges):
            self._store(edges)

    def feed(self, set_id: int, element: int) -> None:
        if not self.alive:
            return
        keep = self._set_memo.get(set_id)
        if keep is None:
            keep = self.set_sampler.contains(set_id)
            self._set_memo[set_id] = keep
        if not keep:
            return
        keep = self._elem_memo.get(element)
        if keep is None:
            keep = self.element_sampler.contains(element)
            self._elem_memo[element] = keep
        if not keep:
            return
        self._store(
            np.asarray([set_id * self._stride + element], dtype=np.int64)
        )

    def merge(self, other: "SmallSetRun") -> "SmallSetRun":
        """Absorb a same-seeds shard of this run; *provably exact*.

        A run's stored edge set grows monotonically until it dies, and
        it dies exactly when its distinct stored edges exceed the
        budget.  The merged union exceeds the budget iff a single pass
        over the concatenated stream would have -- so dead-absorbs-all
        and die-on-overflow reproduce the single pass's aliveness and
        edges exactly.  The other run's arrays are appended as pending
        batches and folded like any other.
        """
        if (
            other.gamma != self.gamma
            or other.budget != self.budget
            or not same_sampled_set(
                self.set_sampler._membership, other.set_sampler._membership
            )
            or not same_sampled_set(
                self.element_sampler._membership,
                other.element_sampler._membership,
            )
        ):
            raise MergeIncompatibleError(
                "can only merge SmallSet runs with identical seeds, "
                "gamma, and budget"
            )
        if not (self.alive and other.alive):
            self._die()
            return self
        if other._raw:
            if len(other._base):
                self._pending.append(other._base)
            self._pending.extend(other._pending)
            self._raw += other._raw
            self._check_budget()
        return self

    def state_arrays(self) -> dict:
        set_ids, elements = np.divmod(self.edges, self._stride)
        return {
            "edges": np.column_stack((set_ids, elements)).reshape(-1, 2),
            "alive": np.asarray(self.alive, dtype=np.bool_),
        }

    def load_state_arrays(self, state: dict) -> None:
        edges = np.asarray(state["edges"])
        if edges.ndim != 2 or edges.shape[1] != 2 or (
            edges.size and edges.dtype.kind not in "iu"
        ):
            raise ValueError(
                "SmallSet run edges must be an (E, 2) integer array, got "
                f"{edges.dtype} {edges.shape}"
            )
        set_ids, elements = edges.astype(np.int64).T
        # Unchecked, element n of set s would pack to element 0 of s + 1.
        for name, column, bound in (
            ("set id", set_ids, self.set_sampler.m),
            ("element", elements, self._stride),
        ):
            if column.size and (column.min() < 0 or column.max() >= bound):
                raise ValueError(
                    f"SmallSet run edge has a {name} outside [0, {bound})"
                )
        self._base = sorted_unique(set_ids * self._stride + elements)
        self._pending = []
        self._raw = len(self._base)
        self.alive = bool(state["alive"])

    def space_words(self) -> int:
        stored = 2 * len(self.edges)
        return (
            stored
            + self.set_sampler.space_words()
            + self.element_sampler.space_words()
        )


class SmallSet(StreamingAlgorithm):
    """Element-sampling oracle for many-small-sets instances (Thm 4.22).

    Parameters
    ----------
    params:
        Resolved parameter schedule.
    repetitions:
        Independent samples per ``gamma_g`` guess (the paper's
        ``log n``); defaults accordingly in paper mode, 2 in practical.
    seed:
        Randomness for all samplers.
    min_support:
        Feasibility cutoff: a run's greedy cover must hit at least this
        many sampled elements before its scaled estimate is trusted
        (the paper's ``sol = Omega~(k/alpha)`` check).
    """

    def __init__(
        self,
        params: Parameters,
        repetitions: int | None = None,
        seed=0,
        min_support: int = 8,
    ):
        super().__init__()
        self.params = params
        p = params
        if repetitions is None:
            if p.mode == "paper":
                repetitions = max(2, int(math.ceil(math.log2(max(2, p.n)))))
            else:
                repetitions = 2
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.repetitions = repetitions
        self.min_support = int(min_support)
        self.cover_size = p.small_set_cover_size()
        rng = np.random.default_rng(seed)
        # Guesses gamma_g of the survivor cover's coverage reciprocal
        # gamma ~ s * alpha * eta / 9 (Corollary 4.19): powers of two up
        # to ~4 * alpha * eta.
        max_gamma = max(2.0, 4.0 * p.alpha * p.eta)
        num_guesses = int(math.ceil(math.log2(max_gamma))) + 1
        self.gammas = [float(2**i) for i in range(num_guesses)]
        budget = p.small_set_budget()
        # Paper: sets survive at rate 18/(s alpha) = Theta~(1/alpha)
        # (Corollary 4.19); practical mode uses the collapsed rate.
        if p.mode == "paper":
            set_sample_size = max(1.0, 18.0 * p.m / max(1.0, p.s_alpha))
        else:
            set_sample_size = max(1.0, 4.0 * p.m / p.alpha)
        self._runs: list[SmallSetRun] = []
        # Lemma 2.5's Theta~(eta k) sample size hides the log(m) factor
        # that union-bounds over candidate covers; without it the offline
        # greedy overfits the sample and the scaled estimate overshoots.
        log_m = max(1.0, math.log2(max(2, p.m)))
        # Once a guess's sample saturates the universe, higher guesses
        # are identical runs; keep only the first saturated layer (this
        # is what keeps the stored-edge total at O~(m/alpha^2),
        # Lemma 4.21).
        kept_gammas = []
        for gamma in self.gammas:
            kept_gammas.append(gamma)
            if 4.0 * gamma * self.cover_size * log_m >= p.n:
                break
        self.gammas = kept_gammas
        for gamma in self.gammas:
            for _ in range(repetitions):
                element_size = max(
                    float(2 * self.min_support),
                    4.0 * gamma * self.cover_size * log_m,
                )
                self._runs.append(
                    SmallSetRun(
                        gamma=gamma,
                        set_sampler=SetSampler(
                            p.m,
                            set_sample_size,
                            seed=rng.integers(0, 2**63),
                            n=p.n,
                        ),
                        element_sampler=ElementSampler(
                            p.n,
                            element_size,
                            seed=rng.integers(0, 2**63),
                            m=p.m,
                        ),
                        budget=budget,
                    )
                )
        # Both sampler grids stacked across runs: two Horner passes per
        # chunk decide every run's set- and element-sampling masks.
        self._set_bank = SampledSetBank(
            [run.set_sampler._membership for run in self._runs]
        )
        self._elem_bank = SampledSetBank(
            [run.element_sampler._membership for run in self._runs]
        )

    def _process(self, set_id, element) -> None:
        set_id, element = int(set_id), int(element)
        for run in self._runs:
            run.feed(set_id, element)

    def _process_batch(self, set_ids, elements) -> None:
        set_masks = self._set_bank.contains_matrix(set_ids)
        elem_masks = self._elem_bank.contains_matrix(elements)
        packed = set_ids * self.params.n + elements
        for run, smask, emask in zip(self._runs, set_masks, elem_masks):
            run.feed_masked(packed, smask & emask)

    # -- fused-plan hooks ---------------------------------------------------

    def _register_plan(self, plan, set_col, elem_col) -> None:
        """Register both sampler grids; one slot pair per run."""
        self._run_slots = [
            (
                plan.request_mask(set_col, run.set_sampler._membership),
                plan.request_mask(elem_col, run.element_sampler._membership),
            )
            for run in self._runs
        ]

    def _process_planned(self, set_ids, elements, ctx) -> None:
        slots = getattr(self, "_run_slots", None)
        if slots is None:
            self._process_batch(set_ids, elements)
            return
        packed = set_ids * self.params.n + elements
        for run, (set_slot, elem_slot) in zip(self._runs, slots):
            if not run.alive:
                continue
            # Rate-1 samplers short-circuit to the shared all-true mask,
            # skipping both the gather and the boolean AND.
            if set_slot.trivial:
                mask = elem_slot.mask(ctx)
            elif elem_slot.trivial:
                mask = set_slot.mask(ctx)
            else:
                mask = set_slot.mask(ctx) & elem_slot.mask(ctx)
            run.feed_masked(packed, mask)

    def _run_value(self, run: SmallSetRun) -> tuple[float, tuple[int, ...]] | None:
        """Greedy-solve a run's stored sub-instance; universe-scaled value."""
        edges = run.edges
        if not run.alive or not len(edges):
            return None
        result = array_greedy(*np.divmod(edges, run._stride), self.cover_size)
        if result.coverage < self.min_support:
            return None
        # Scale sampled coverage to the universe, discounted by 2/3 like
        # the paper's L_0-backed estimates: binomial concentration at the
        # min_support level keeps the discounted value below the cover's
        # true coverage w.h.p. (the Lemma 4.23 soundness direction).
        scaled = 2.0 * run.element_sampler.scale_to_universe(
            result.coverage
        ) / 3.0
        return min(float(self.params.n), scaled), result.chosen

    def estimate(self) -> float | None:
        """Finalise; best scaled estimate across the grid, or ``None``."""
        self.finalize()
        return self.peek_estimate()

    def peek_estimate(self) -> float | None:
        """Mid-stream snapshot of :meth:`estimate` (no finalise).

        Note the snapshot runs the offline greedy on the edges stored so
        far -- cheap for ``SmallSet``'s capped tables, but not free.
        """
        best: float | None = None
        for run in self._runs:
            value = self._run_value(run)
            if value is None:
                continue
            if best is None or value[0] > best:
                best = value[0]
        return best

    def best_cover(self) -> tuple[float, tuple[int, ...]] | None:
        """``(estimate, set ids)`` of the best run -- the reporting hook.

        The returned ids are *original* set ids: ``SmallSet`` stores real
        ``(set_id, element)`` edges, so its offline greedy solution is
        directly a (partial) k-cover of the input instance.
        """
        self.finalize()
        best: tuple[float, tuple[int, ...]] | None = None
        for run in self._runs:
            value = self._run_value(run)
            if value is None:
                continue
            if best is None or value[0] > best[0]:
                best = value
        return best

    def _require_mergeable(self, other: "SmallSet") -> None:
        if (
            other.params != self.params
            or other.repetitions != self.repetitions
            or other.min_support != self.min_support
            or other.gammas != self.gammas
            or len(other._runs) != len(self._runs)
        ):
            raise MergeIncompatibleError(
                "can only merge SmallSet instances with identical "
                "parameters and grid"
            )

    def _merge(self, other: "SmallSet") -> None:
        for mine, theirs in zip(self._runs, other._runs):
            mine.merge(theirs)

    def _state_arrays(self) -> dict:
        state: dict = {}
        for index, run in enumerate(self._runs):
            pack_state(state, f"runs/{index}", run.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        for index, run in enumerate(self._runs):
            run.load_state_arrays(unpack_state(state, f"runs/{index}"))

    def space_words(self) -> int:
        return sum(run.space_words() for run in self._runs)
