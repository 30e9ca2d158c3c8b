"""``F_2``-Contributing: find a coordinate in every contributing class.

Implements Theorem 2.11 of the paper (after Indyk--Woodruff [29]).  The
coordinates of a frequency vector ``a`` are conceptually partitioned into
dyadic classes ``R_i = {j : 2^(i-1) < a[j] <= 2^i}``; a class ``R_t`` is
*gamma-contributing* when ``|R_t| * 2^(2t) >= gamma * F_2(a)``
(Definition 2.7).  The algorithm must output at least one coordinate from
every gamma-contributing class, with a ``(1 +/- 1/2)``-approximate
frequency, in ``O~(1/gamma)`` space.

Construction (the paper's ``F2-Contributing(gamma, r)`` pseudocode): for
each guess ``n_t = 2^i`` of a contributing class's size, subsample the
coordinate domain at rate ``Theta(log m) / 2^i`` with a
``Theta(log mn)``-wise independent hash, so ``Theta(log m)`` class members
survive; by Lemma 2.9 each survivor is an ``Omega~(gamma)``-heavy hitter
of the sampled substream, so a :class:`~repro.sketch.countsketch.F2HeavyHitter`
run on the substream finds it.  Because every update to a coordinate
survives or dies together, a survivor's frequency in the substream equals
its true frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    pack_state,
    unpack_state,
)
from repro.sketch.countsketch import F2HeavyHitter
from repro.sketch.hashing import SampledSet, SampledSetBank, same_sampled_set

__all__ = ["ContributingCoordinate", "F2Contributing"]


@dataclass(frozen=True)
class ContributingCoordinate:
    """A coordinate reported by :class:`F2Contributing`.

    Attributes
    ----------
    coordinate:
        The coordinate's index in the domain.
    frequency:
        ``(1 +/- 1/2)``-approximate frequency of the coordinate.
    level:
        Subsampling level ``i`` (class-size guess ``2^i``) that found it.
    """

    coordinate: int
    frequency: float
    level: int


class F2Contributing(StreamingAlgorithm):
    """Single-pass detector of gamma-contributing classes (Theorem 2.11).

    Parameters
    ----------
    gamma:
        Contribution threshold as a fraction of ``F_2``.
    max_class_size:
        The paper's ``r``: only classes with at most ``r`` coordinates are
        sought, giving ``log r`` subsampling levels.  ``LargeSetComplete``
        exploits this cap to keep common elements from polluting the
        output (Remark 4.12).
    seed:
        Randomness for subsampling hashes and sketches.
    phi_scale:
        Heavy-hitter threshold is ``gamma / phi_scale``; the paper uses a
        ``polylog(m, n)`` scale (``432 log n log^{c+1} m``), we default to
        a practical constant.
    survivors:
        Target number of class members surviving subsampling per level
        (``Theta(log m)`` in the paper).
    depth:
        CountSketch depth of every level's heavy-hitter sketch.
    domain:
        Size of the coordinate space when the caller knows it (the
        ``LargeSet`` superset ids), forwarded to every level's
        :class:`~repro.sketch.countsketch.F2HeavyHitter`: the levels then
        hold CountSketch tables only and score the whole domain at
        finalise.  ``None`` keeps an online candidate pool per level.
    """

    def __init__(
        self,
        gamma: float,
        max_class_size: int,
        seed=0,
        phi_scale: float = 8.0,
        survivors: int = 8,
        depth: int = 4,
        domain: int | None = None,
    ):
        super().__init__()
        if not 0 < gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if max_class_size < 1:
            raise ValueError(
                f"max_class_size must be >= 1, got {max_class_size}"
            )
        self.gamma = float(gamma)
        self.max_class_size = int(max_class_size)
        self.num_levels = int(np.ceil(np.log2(max(2, max_class_size)))) + 1
        phi = min(1.0, gamma / phi_scale)
        rng = np.random.default_rng(seed)
        self._samplers: list[SampledSet] = []
        self._sketches: list[F2HeavyHitter] = []
        for level in range(self.num_levels):
            rate = max(1.0, (1 << level) / survivors)
            self._samplers.append(
                SampledSet(rate, seed=rng.integers(0, 2**63))
            )
            self._sketches.append(
                F2HeavyHitter(
                    phi,
                    depth=depth,
                    seed=rng.integers(0, 2**63),
                    domain=domain,
                )
            )
        # One stacked hash pass classifies a chunk for every level.
        self._sampler_bank = SampledSetBank(self._samplers)
        # Fused-plan slots (see _register_plan); populated lazily.
        self._level_slots = None
        self._keep_tables = None

    # -- fused-plan hooks ---------------------------------------------------

    def _register_plan(self, plan, column) -> None:
        """Register level samplers and sketch rows against ``column``."""
        self._level_slots = [
            plan.request_mask(column, sampler) for sampler in self._samplers
        ]
        self._keep_tables = None
        for sketch in self._sketches:
            sketch._sketch._register_plan(plan, column)

    def _level_keep(self, unique: np.ndarray) -> np.ndarray:
        """``(levels, U)`` survivor matrix for deduplicated items."""
        if self._level_slots is not None and self._keep_tables is None:
            rows = [slot.mask_table() for slot in self._level_slots]
            if any(row is None for row in rows):
                self._level_slots = None
            else:
                self._keep_tables = np.stack(rows)
        if self._keep_tables is not None:
            return self._keep_tables[:, unique]
        return self._sampler_bank.contains_matrix(unique)

    def ingest_grouped(self, unique, counts, total_len) -> None:
        """Domain-mode kernel over pre-deduplicated arrivals.

        The caller (``LargeSetRun``'s planned kernel) groups a chunk of
        ``total_len`` superset ids once into sorted ``unique`` ids and
        their ``counts``; every level then slices the shared arrays by
        its survivor mask instead of re-deduplicating the raw sequence
        per level.  Bit-identical to ``process_batch`` on the raw ids.
        """
        self._check_open()
        self._tokens_seen += total_len
        keep = self._level_keep(unique)
        for sketch, row in zip(self._sketches, keep):
            level_counts = counts[row]
            level_total = int(level_counts.sum())
            if level_total:
                sketch.ingest_unique(unique[row], level_counts, level_total)

    def _process(self, item, count: int = 1) -> None:
        item = int(item)
        for level in range(self.num_levels):
            if self._samplers[level].contains(item):
                self._sketches[level].process(item, count)

    def _process_batch(self, items: np.ndarray) -> None:
        masks = self._sampler_bank.contains_matrix(items)
        for sketch, mask in zip(self._sketches, masks):
            survivors = items[mask]
            if len(survivors):
                sketch.process_batch(survivors)

    def contributing(self) -> list[ContributingCoordinate]:
        """Finalise and return one-or-more coordinates per contributing class.

        The output may contain several coordinates of the same class and
        coordinates of non-contributing classes (callers filter against
        their own thresholds, as in ``LargeSetComplete``); the guarantee
        is that w.h.p. *every* gamma-contributing class of size at most
        ``max_class_size`` is represented.
        """
        self.finalize()
        return self.peek_contributing()

    def peek_contributing(self) -> list[ContributingCoordinate]:
        """Mid-stream snapshot of :meth:`contributing` (no finalise)."""
        best: dict[int, ContributingCoordinate] = {}
        for level, sketch in enumerate(self._sketches):
            for coordinate, frequency in sketch.peek_heavy_hitters().items():
                known = best.get(coordinate)
                if known is None or frequency > known.frequency:
                    best[coordinate] = ContributingCoordinate(
                        coordinate=coordinate,
                        frequency=frequency,
                        level=level,
                    )
        return sorted(
            best.values(), key=lambda c: c.frequency, reverse=True
        )

    def _require_mergeable(self, other: "F2Contributing") -> None:
        if (
            other.gamma != self.gamma
            or other.max_class_size != self.max_class_size
            or other.num_levels != self.num_levels
            or any(
                not same_sampled_set(mine, theirs)
                for mine, theirs in zip(self._samplers, other._samplers)
            )
        ):
            raise MergeIncompatibleError(
                "can only merge F2Contributing instances with identical "
                "seed, gamma, and class-size cap"
            )

    def _merge(self, other: "F2Contributing") -> None:
        # Same level samplers => each level's heavy-hitter sketches saw
        # the same substream partition; merging them per level is the
        # whole merge (the samplers themselves are stateless hashes).
        for mine, theirs in zip(self._sketches, other._sketches):
            mine.merge(theirs)

    def _state_arrays(self) -> dict:
        state: dict = {}
        for level, sketch in enumerate(self._sketches):
            pack_state(state, f"levels/{level}", sketch.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        for level, sketch in enumerate(self._sketches):
            sketch.load_state_arrays(unpack_state(state, f"levels/{level}"))

    def space_words(self) -> int:
        total = 0
        for sampler, sketch in zip(self._samplers, self._sketches):
            total += sampler.space_words() + sketch.space_words()
        return total
