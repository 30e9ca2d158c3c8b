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

Over a known coordinate domain every level's CountSketch has the same
shape, so the levels' tables are slices of one ``(levels, depth,
width)`` bank and a grouped batch (:meth:`F2Contributing.ingest_grouped`)
updates all of them with one gather and one scatter, each level's
survivor mask entering as a weight.  CountSketch is linear, so the bank
equals the per-level updates bit for bit.
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
from repro.engine.profile import PROFILER
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
        finalise.  Those tables are views of one stacked bank that
        :meth:`ingest_grouped` updates in a single scatter.  ``None``
        keeps an online candidate pool per level.
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
        self._tables = None
        self._flat_stack = None
        self._signed_stack = None
        self._depth = depth
        if domain is not None:
            # Every level's table is a view of its slice of one bank.
            counters = [sketch._sketch for sketch in self._sketches]
            self._tables = np.zeros(
                (self.num_levels,) + counters[0]._table.shape, dtype=np.int64
            )
            for counter, table in zip(counters, self._tables):
                counter._table = table
            # (levels * depth, 1) offset of each row in the flat bank.
            self._row_offsets = (
                np.arange(self.num_levels * depth, dtype=np.int64)
                * counters[0].width
            )[:, None]

    # -- fused-plan hooks ---------------------------------------------------

    def _register_plan(self, plan, column) -> None:
        """Register level samplers and sketch rows against ``column``."""
        self._level_slots = [
            plan.request_mask(column, sampler) for sampler in self._samplers
        ]
        self._flat_stack = None
        self._signed_stack = None
        for sketch in self._sketches:
            sketch._sketch._register_plan(plan, column)

    def _level_rows(self, unique):
        """``(flat, signed)``, both ``(levels * depth, U)``, level-major:
        each CountSketch row's flat bank index for ``unique``, and its
        ``+-1`` sign where the row's level samples the item, 0 where not.

        Gathered from stacks of the plan's domain tables, built once;
        without plan tables, each level's CountSketch hashes ``unique``.
        """
        if self._flat_stack is None and self._level_slots is not None:
            counters = [sketch._sketch for sketch in self._sketches]
            tables = [counter._domain_tables() for counter in counters]
            keeps = [slot.mask_table() for slot in self._level_slots]
            if any(t[0] is None for t in tables) or any(
                keep is None for keep in keeps
            ):
                self._level_slots = None
            else:
                self._flat_stack = (
                    np.concatenate([t[0] for t in tables]) + self._row_offsets
                )
                self._signed_stack = (
                    np.concatenate([t[1] for t in tables])
                    * np.repeat(np.stack(keeps), self._depth, axis=0)
                ).astype(np.int8)
        if self._flat_stack is not None:
            return self._flat_stack[:, unique], self._signed_stack[:, unique]
        rows = [sketch._sketch._rows(unique) for sketch in self._sketches]
        keep = self._sampler_bank.contains_matrix(unique)
        return (
            np.concatenate([buckets for buckets, _signs in rows])
            + self._row_offsets,
            np.concatenate([signs for _buckets, signs in rows])
            * np.repeat(keep, self._depth, axis=0),
        )

    def ingest_grouped(self, unique, counts, total_len) -> None:
        """Domain-mode kernel over pre-deduplicated arrivals.

        The caller (``LargeSetRun``) groups a chunk of ``total_len``
        superset ids once into sorted ``unique`` ids and their
        ``counts``.  Every level's update is then one term of a single
        scatter into the stacked bank: level ``l`` adds ``sign * count``
        at its buckets, weighted by its survivor mask, and advances its
        token count by its survivors.  Bit-identical to per-level
        ``F2HeavyHitter.ingest_unique`` calls and to ``process_batch``
        on the raw ids.
        """
        if self._tables is None:
            raise TypeError(
                "ingest_grouped needs a domain-mode F2Contributing "
                "(domain=...)"
            )
        self._check_open()
        self._tokens_seen += total_len
        if not len(unique):
            return
        sketches = self._sketches
        sketches[0]._check_domain(int(unique[0]), int(unique[-1]))
        flat, signed = self._level_rows(unique)
        values = signed * counts
        # A level's first row holds +-count where the level keeps an item.
        totals = np.abs(values[:: self._depth]).sum(axis=1).tolist()
        for sketch, total in zip(sketches, totals):
            if total:
                sketch._check_open()
                sketch._tokens_seen += total
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        np.add.at(self._tables.reshape(-1), flat.ravel(), values.ravel())
        if profiling:
            PROFILER.add("scatter", PROFILER.clock() - t0)

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
