"""``LargeCommon``: the multi-layered set-sampling subroutine (Section 4.1).

Case I of the oracle's analysis: there is a ``beta <= alpha`` for which
the ``beta k``-common elements are plentiful
(``|U^cmn_{beta k}| >= sigma beta |U| / alpha``).  Then, by set sampling
(Lemma 2.3), a collection of ``~beta k`` random sets covers all of them,
and by Observation 2.4 the best ``k`` sets inside that collection cover a
``1/beta`` fraction of it -- an ``O~(alpha)``-approximate certificate.

Figure 3's implementation, reproduced here: for each guess
``beta_g = 2^i <= alpha`` (in parallel, one pass), sample sets at rate
``~beta_g k / m`` via a ``Theta(log mn)``-wise independent hash (Appendix
A.1, so the sample is never materialised) and feed the elements of the
sampled sets to an ``L_0`` sketch (Theorem 2.12) measuring their coverage.
After the pass, any layer whose measured coverage clears
``sigma beta_g |U| / (4 alpha)`` certifies the estimate
``2 VAL / (3 beta_g)``; if no layer does, the instance provably has few
common elements at every scale (Lemma 4.7), which is what cases II/III
assume.

Total space: ``log alpha`` layers of ``O~(1)`` each (Theorem 4.4).
"""

from __future__ import annotations

import math

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    pack_state,
    unpack_state,
)
from repro.core.parameters import Parameters
from repro.sketch.hashing import SampledSetBank, same_sampled_set
from repro.sketch.l0 import L0Sketch
from repro.sketch.set_sampling import SetSampler

import numpy as np

__all__ = ["LargeCommon"]

#: Synopsis size of each layer's stock distinct-elements sketch.
_L0_SIZE = 64


class LargeCommon(StreamingAlgorithm):
    """Multi-layered set sampling oracle (Figure 3 / Theorem 4.4).

    Parameters
    ----------
    params:
        The resolved :class:`~repro.core.parameters.Parameters` schedule;
        supplies ``m, n, k, alpha`` and ``sigma``.
    seed:
        Randomness for the per-layer samplers and sketches.
    sample_scale:
        Multiplier on the expected sample size ``beta_g * k`` (the
        paper's ``c log m``; the practical default keeps it at 1).
    l0_factory:
        Optional callable ``seed -> sketch`` building the per-layer
        distinct-elements estimator, in place of the stock
        ``L0Sketch(sketch_size=64)``.  Any object with ``process``,
        ``space_words`` and a live estimate (``peek_estimate`` or
        ``estimate``) works -- e.g.
        ``lambda seed: HyperLogLog(precision=8, seed=seed)`` trades a
        little accuracy for far fewer words (Theorem 2.12 names several
        interchangeable constructions).
    """

    def __init__(
        self,
        params: Parameters,
        seed=0,
        sample_scale: float = 1.0,
        l0_factory=None,
    ):
        super().__init__()
        self.params = params
        m, n, alpha, k = params.m, params.n, params.alpha, params.k
        rng = np.random.default_rng(seed)
        num_layers = max(1, int(math.ceil(math.log2(max(2.0, alpha)))))
        self.betas: list[float] = [float(2**i) for i in range(num_layers + 1)]
        self.betas = [b for b in self.betas if b <= 2 * alpha]
        if l0_factory is None:
            l0_factory = lambda s: L0Sketch(sketch_size=_L0_SIZE, seed=s)  # noqa: E731
        self._samplers: list[SetSampler] = []
        self._sketches = []
        for beta in self.betas:
            expected = min(float(m), sample_scale * beta * k)
            self._samplers.append(
                SetSampler(m, expected, seed=rng.integers(0, 2**63), n=n)
            )
            self._sketches.append(l0_factory(rng.integers(0, 2**63)))
        # Per-layer memo of each set id's membership: recomputable from the
        # sampler's hash seed, so it is a CPython speed cache, not state
        # the streaming model charges for.
        self._member_cache: list[dict[int, bool]] = [
            {} for _ in self.betas
        ]
        # Every layer's membership hash in one stacked bank: a chunk is
        # classified for all layers with a single Horner pass.
        self._membership_bank = SampledSetBank(
            [sampler._membership for sampler in self._samplers]
        )

    def _process(self, set_id, element) -> None:
        set_id = int(set_id)
        for layer in range(len(self.betas)):
            cache = self._member_cache[layer]
            member = cache.get(set_id)
            if member is None:
                member = self._samplers[layer].contains(set_id)
                cache[set_id] = member
            if member:
                self._sketches[layer].process(int(element))

    def _process_batch(self, set_ids, elements) -> None:
        masks = self._membership_bank.contains_matrix(set_ids)
        for sketch, mask in zip(self._sketches, masks):
            kept = elements[mask]
            if len(kept):
                sketch.process_batch(kept)

    # -- fused-plan hooks ---------------------------------------------------

    def _register_plan(self, plan, set_col, elem_col) -> None:
        """Register every layer's membership test against the set column."""
        self._layer_slots = [
            plan.request_mask(set_col, sampler._membership)
            for sampler in self._samplers
        ]

    def _process_planned(self, set_ids, elements, ctx) -> None:
        slots = getattr(self, "_layer_slots", None)
        if slots is None:
            self._process_batch(set_ids, elements)
            return
        domain = self.params.n
        for sketch, slot in zip(self._sketches, slots):
            kept = elements[slot.mask(ctx)]
            if len(kept):
                # Tabulated fast path for the stock KMV sketch; a custom
                # l0_factory only promises the public protocol.
                tabulated = getattr(sketch, "process_tabulated", None)
                if tabulated is not None:
                    tabulated(kept, domain)
                else:
                    sketch.process_batch(kept)

    def estimate(self) -> float | None:
        """Finalise; the certified estimate, or ``None`` for *infeasible*.

        ``None`` carries information: w.h.p. every common-element level is
        sparse (``|U^cmn_{beta k}| < sigma beta |U| / alpha`` for all
        ``beta <= alpha``, Lemma 4.7), the precondition of ``SmallSet``'s
        analysis.
        """
        self.finalize()
        return self.peek_estimate()

    def peek_estimate(self) -> float | None:
        """Mid-stream snapshot of :meth:`estimate` (no finalise)."""
        p = self.params
        best: float | None = None
        for layer, beta in enumerate(self.betas):
            val = self._sketches[layer].peek_estimate()
            threshold = p.sigma * beta * p.n / (4.0 * p.alpha)
            if val >= threshold:
                candidate = 2.0 * val / (3.0 * beta)
                if best is None or candidate > best:
                    best = candidate
        return best

    def _require_mergeable(self, other: "LargeCommon") -> None:
        if (
            other.params != self.params
            or other.betas != self.betas
            or any(
                not same_sampled_set(
                    mine._membership, theirs._membership
                )
                for mine, theirs in zip(self._samplers, other._samplers)
            )
        ):
            raise MergeIncompatibleError(
                "can only merge LargeCommon instances with identical "
                "seeds and parameters"
            )

    def _merge(self, other: "LargeCommon") -> None:
        # Same per-layer samplers => each layer's sketches measured the
        # same sampled sub-stream; the per-layer sketch merge (which
        # validates its own seed) is the whole merge.  A custom
        # ``l0_factory`` must produce merge-capable sketches.
        for mine, theirs in zip(self._sketches, other._sketches):
            mine.merge(theirs)

    def _state_arrays(self) -> dict:
        state: dict = {}
        for layer, sketch in enumerate(self._sketches):
            pack_state(state, f"layers/{layer}", sketch.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        for layer, sketch in enumerate(self._sketches):
            sketch.load_state_arrays(unpack_state(state, f"layers/{layer}"))

    def layer_coverages(self) -> list[tuple[float, float]]:
        """``(beta_g, measured coverage)`` per layer, for diagnostics."""
        return [
            (beta, self._sketches[layer].peek_estimate())
            for layer, beta in enumerate(self.betas)
        ]

    def space_words(self) -> int:
        total = 0
        for sampler, sketch in zip(self._samplers, self._sketches):
            total += sampler.space_words() + sketch.space_words()
        return total
