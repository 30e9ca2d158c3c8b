"""``EstimateMaxCover``: the paper's headline algorithm (Figure 1).

Theorem 3.1: a single pass over an arbitrary-order edge stream estimates
the optimal ``k``-cover size within factor ``O~(alpha)`` in
``O~(m/alpha^2)`` space, for ``alpha`` up to ``Omega~(sqrt(m))``.

Structure, faithful to Figure 1:

* **Trivial regime.**  When ``k * alpha >= m``, return ``n/alpha`` with
  no state at all: the best ``k`` sets cover at least ``k/m >= 1/alpha``
  of the covered universe.
* **Guess-and-reduce.**  For each guess ``z = 2^i <= n`` of the optimal
  coverage, and ``log(1/delta)`` repetitions, draw a fresh 4-wise
  independent hash ``h : U -> [z]`` (Section 3.1) and feed the reduced
  edge ``(S, h(e))`` to an independent ``(alpha, delta, eta=4)``-oracle
  (Section 4).  If ``z <= |C(OPT)|``, Lemma 3.5 makes the reduced
  instance's optimum at least ``z/4`` -- a constant fraction of its
  universe -- so the oracle owes ``>= z/(4 alpha)``.
* **Harvest.**  ``est_z`` is the max over repetitions; the answer is the
  largest ``est_z`` that clears its own plausibility bar ``z/(4 alpha)``
  (Theorem 3.6's argument shows this lies in
  ``[|C(OPT)|/(8 alpha), |C(OPT)|]`` w.h.p.).

The number of parallel oracles is ``log n * log(1/delta)``; each is
``O~(m/alpha^2)`` words, so the polylog-suppressed total matches
Theorem 3.1.
"""

from __future__ import annotations

import math

import numpy as np

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    pack_state,
    unpack_state,
)
from repro.core.oracle import Oracle
from repro.core.parameters import Parameters
from repro.core.universe_reduction import UniverseReducer
from repro.engine.plan import EvalPlan
from repro.sketch.hashing import coefficient_batch, same_hash

__all__ = ["EstimateMaxCover"]


class EstimateMaxCover(StreamingAlgorithm):
    """Single-pass ``O~(alpha)``-approximate coverage estimation (Thm 3.1).

    Parameters
    ----------
    m, n:
        Instance shape (known in advance, as the model assumes).
    k:
        Cover budget.
    alpha:
        Target approximation factor, in ``(1/(1-1/e), O~(sqrt(m))]``.
    mode:
        ``"practical"`` (default) or ``"paper"`` parameter schedule; see
        :class:`~repro.core.parameters.Parameters`.
    repetitions:
        The ``log(1/delta)`` boosting loop per guess; default 1
        practical / 3 paper.  Mutually exclusive with ``delta``.
    delta:
        Target per-guess failure probability; converted into the
        repetition count via Lemma 3.5's 3/4 per-trial success rate
        (Figure 1's ``log(1/delta)``).  Mutually exclusive with
        ``repetitions``.
    z_guesses:
        Optional explicit list of coverage guesses ``z`` (defaults to all
        powers of ``z_base`` up to ``n``).  Experiments with known
        planted coverage use this to bound runtime.
    z_base:
        Geometric spacing of the default guesses.  The paper uses 2;
        coarser bases trade a constant factor of approximation for
        proportionally fewer parallel oracles.
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
        repetitions: int | None = None,
        delta: float | None = None,
        z_guesses: list[int] | None = None,
        z_base: float = 2.0,
        seed=0,
    ):
        super().__init__()
        if mode not in ("practical", "paper"):
            raise ValueError(f"mode must be 'practical' or 'paper', got {mode!r}")
        maker = Parameters.paper if mode == "paper" else Parameters.practical
        self.params = maker(m, n, k, alpha)
        self.m, self.n, self.k, self.alpha = m, n, k, float(alpha)
        self.trivial = k * alpha >= m
        if delta is not None:
            if repetitions is not None:
                raise ValueError(
                    "pass either repetitions or delta, not both"
                )
            from repro.sketch.tail_bounds import repetitions_for_failure

            # Lemma 3.5: each reduction repetition preserves the optimum
            # with probability >= 3/4.
            repetitions = repetitions_for_failure(0.75, delta)
        if repetitions is None:
            repetitions = 3 if mode == "paper" else 1
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.repetitions = repetitions
        self._branches: list[tuple[int, UniverseReducer, Oracle]] = []
        if self.trivial:
            return
        if z_base <= 1:
            raise ValueError(f"z_base must be > 1, got {z_base}")
        if z_guesses is None:
            max_i = max(
                1,
                int(math.ceil(math.log(max(2, n)) / math.log(z_base))),
            )
            z_guesses = sorted(
                {
                    min(2 * n, int(round(z_base**i)))
                    for i in range(1, max_i + 1)
                }
            )
        for z in z_guesses:
            if not 1 <= z <= 2 * n:
                raise ValueError(
                    f"z guess {z} outside [1, 2n] for n={n}"
                )
        self.z_guesses = list(z_guesses)
        rng = np.random.default_rng(seed)
        # Every branch's hash coefficients come from one kernel call.
        with coefficient_batch():
            for z in self.z_guesses:
                for _ in range(self.repetitions):
                    reducer = UniverseReducer(z, seed=rng.integers(0, 2**63))
                    oracle = Oracle(
                        self.params.with_universe(z),
                        seed=rng.integers(0, 2**63),
                    )
                    self._branches.append((z, reducer, oracle))
        # Fused evaluation plan; built lazily at the first vectorised
        # chunk so the scalar path and worker construction stay cheap.
        self._plan = None
        self._branch_slots = None

    def _ensure_plan(self) -> EvalPlan:
        """Build (once) the fused plan spanning every branch's oracle."""
        if self._plan is None:
            plan = EvalPlan(self.m, self.n)
            slots = []
            for _z, reducer, oracle in self._branches:
                reduced_col, slot = plan.derive(plan.elems, reducer._hash)
                oracle._register_plan(plan, plan.sets, reduced_col)
                slots.append(slot)
            self._plan = plan
            self._branch_slots = slots
        return self._plan

    def _process(self, set_id, element) -> None:
        if self.trivial:
            return
        for _z, reducer, oracle in self._branches:
            oracle.process(set_id, reducer.map_element(element))

    def _process_batch(self, set_ids, elements) -> None:
        if self.trivial:
            return
        ctx = self._ensure_plan().begin_chunk(set_ids, elements)
        if ctx is None:
            # Ids outside the declared [0, m) / [0, n): the scalar
            # reference loop handles the chunk.
            super()._process_batch(set_ids, elements)
            return
        # ctx.set_ids is the chunk's int64 set column; each branch
        # reads its reduced element column from the same context.
        for slot, (_z, _reducer, oracle) in zip(
            self._branch_slots, self._branches
        ):
            oracle._ingest_planned(ctx.set_ids, ctx.values(slot), ctx)

    def _require_mergeable(self, other: "EstimateMaxCover") -> None:
        if (
            other.m != self.m
            or other.n != self.n
            or other.k != self.k
            or other.alpha != self.alpha
            or other.trivial != self.trivial
            or other.repetitions != self.repetitions
            or other.params != self.params
        ):
            raise MergeIncompatibleError(
                "can only merge EstimateMaxCover instances with identical "
                "instance shape and parameters"
            )
        if self.trivial:
            return
        if other.z_guesses != self.z_guesses or any(
            not same_hash(mine._hash, theirs._hash)
            for (_z, mine, _o), (_z2, theirs, _o2) in zip(
                self._branches, other._branches
            )
        ):
            raise MergeIncompatibleError(
                "can only merge EstimateMaxCover instances with identical "
                "seed (branch reduction hashes differ)"
            )

    def _merge(self, other: "EstimateMaxCover") -> None:
        # Matching reduction hashes => each branch's oracles saw the same
        # reduced streams; the trivial regime carries no state at all.
        for (_z, _reducer, mine), (_z2, _r2, theirs) in zip(
            self._branches, other._branches
        ):
            mine.merge(theirs)

    def _state_arrays(self) -> dict:
        state: dict = {}
        for index, (_z, _reducer, oracle) in enumerate(self._branches):
            pack_state(state, f"branches/{index}", oracle.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        for index, (_z, _reducer, oracle) in enumerate(self._branches):
            oracle.load_state_arrays(unpack_state(state, f"branches/{index}"))

    def estimate(self) -> float:
        """Finalise; the coverage estimate.

        Falls back to the largest (sub-bar) oracle estimate when no guess
        clears its plausibility bar, so tiny instances degrade gracefully
        instead of answering 0.
        """
        self.finalize()
        if self.trivial:
            return self.n / self.alpha
        est_by_z: dict[int, float] = {}
        for z, _reducer, oracle in self._branches:
            value = oracle.estimate()
            if value > est_by_z.get(z, 0.0):
                est_by_z[z] = value
        passing = [
            est
            for z, est in est_by_z.items()
            if est >= z / (4.0 * self.alpha)
        ]
        if passing:
            return max(passing)
        return max(est_by_z.values(), default=0.0)

    def branch_estimates(self) -> dict[int, float]:
        """``{z: est_z}`` diagnostics for the universe-reduction bench."""
        out: dict[int, float] = {}
        for z, _reducer, oracle in self._branches:
            value = oracle.estimate()  # idempotent after finalisation
            if value > out.get(z, 0.0):
                out[z] = value
        return out

    def peek_estimate(self) -> float:
        """Mid-stream snapshot of :meth:`estimate` (no finalise)."""
        if self.trivial:
            return self.n / self.alpha
        est_by_z: dict[int, float] = {}
        for z, _reducer, oracle in self._branches:
            value = oracle.peek_estimate()
            if value > est_by_z.get(z, 0.0):
                est_by_z[z] = value
        passing = [
            est
            for z, est in est_by_z.items()
            if est >= z / (4.0 * self.alpha)
        ]
        if passing:
            return max(passing)
        return max(est_by_z.values(), default=0.0)

    def space_profile(self) -> dict[int, int]:
        """Per-coverage-guess space breakdown (words, summed over reps)."""
        profile: dict[int, int] = {}
        for z, reducer, oracle in self._branches:
            profile[z] = profile.get(z, 0) + (
                reducer.space_words() + oracle.space_words()
            )
        return profile

    def space_words(self) -> int:
        if self.trivial:
            return 1
        return sum(self.space_profile().values())
