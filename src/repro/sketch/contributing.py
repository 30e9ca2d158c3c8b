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
min(domain, width))`` bank (each level holds only the counters its
domain reaches; see :class:`~repro.sketch.countsketch.CountSketch`).
The cell and sign of every surviving ``(level, row, coordinate)`` are
worked out once, so a chunk's whole-domain id counts
(:meth:`F2Contributing.ingest_grouped`) update every level with one
scatter.  CountSketch is linear, so the bank equals the per-level
updates bit for bit.
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
from repro.sketch.countsketch import F2HeavyHitter, number_buckets, sign_table
from repro.sketch.hashing import (
    KWiseHashBank,
    SampledSet,
    SampledSetBank,
    same_sampled_set,
)

__all__ = ["ContributingCoordinate", "F2Contributing"]

#: A chunk presenting at least ``1 / _DENSE_SHARE`` of the domain
#: applies every precomputed ``(cell, coordinate, sign)`` term, absent
#: coordinates adding 0; sparser chunks gather the present
#: coordinates' columns.  Measured on a 2-CPU host, per detector and
#: chunk: 170 of 200 coordinates present, 16 us for the terms against
#: 64 us for the gather; 26 of 1,000 present, 84 us against 28 us.
_DENSE_SHARE = 4


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
        finalise.  Those tables are views of one stacked ``(levels,
        depth, min(domain, width))`` bank that :meth:`ingest_grouped`
        updates in a single scatter; above ``TABLE_DOMAIN_CAP`` the
        bank is ``(levels, depth, width)`` and every chunk is hashed.
        ``None`` keeps an online candidate pool per level.
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
        self.domain = self._sketches[0].domain
        self._depth = depth
        self._tables = None
        self._compact = False
        # Compact mode's stacked tables (see _layout_tables and
        # _ingest_tables); built at first use.
        self._layout = None
        self._ingest = None
        if domain is not None:
            # Every level's table is a view of its slice of one bank.
            counters = [sketch._sketch for sketch in self._sketches]
            self._compact = counters[0]._compact
            self._tables = np.zeros(
                (self.num_levels,) + counters[0]._table.shape, dtype=np.int64
            )
            for counter, table in zip(counters, self._tables):
                counter._table = table

    def _layout_tables(self):
        """``(slots, signs)``, both ``(levels * depth, domain)``,
        level-major: every CountSketch row's column in its level's
        compact table, and its ``+-1`` sign.

        Built once, from one pass each of the stacked bucket and sign
        banks over the whole domain, which also hands each level's
        CountSketch its slot, sign and bucket rows.  A state load needs
        only these; :meth:`_ingest_tables` adds what a chunk needs.
        """
        if self._layout is None:
            depth = self._depth
            counters = [sketch._sketch for sketch in self._sketches]
            items = np.arange(self.domain, dtype=np.int64)
            buckets = KWiseHashBank(
                [h for c in counters for h in c._bucket_hashes]
            ).eval_many(items)
            slots = number_buckets(buckets, counters[0].width)
            buckets = buckets.astype(np.int32)
            signs = sign_table(
                KWiseHashBank(
                    [s._hash for c in counters for s in c._sign_hashes]
                ).eval_many(items)
            )
            for level, counter in enumerate(counters):
                rows = slice(level * depth, (level + 1) * depth)
                counter._layout = (slots[rows], signs[rows], buckets[rows])
            self._layout = (slots, signs)
        return self._layout

    def _ingest_tables(self):
        """``(signed, terms)``, built once from one pass of the stacked
        level samplers over the whole domain.

        ``signed`` is the ``(levels * depth, domain)`` sign table with
        0 where the row's level does not sample the coordinate.
        ``terms`` is ``(cells, items, signs, keep)``: the flat bank
        cell, coordinate and sign of every ``(level, row, coordinate)``
        whose level samples the coordinate, and the ``(levels,
        domain)`` survivor table.
        """
        if self._ingest is None:
            slots, signs = self._layout_tables()
            items = np.arange(self.domain, dtype=np.int64)
            keep = self._sampler_bank.contains_matrix(items)
            kept = np.repeat(keep, self._depth, axis=0)
            offsets = np.arange(len(slots)) * self._tables.shape[2]
            terms = (
                (slots + offsets[:, None])[kept],
                np.broadcast_to(items, kept.shape)[kept],
                signs[kept],
                keep,
            )
            self._ingest = (signs * kept, terms)
        return self._ingest

    def _level_rows(self, unique):
        """``(flat, signed)``, both ``(levels * depth, U)``, level-major:
        each CountSketch row's flat bank index for ``unique``, and its
        ``+-1`` sign where the row's level samples the item, 0 where not.

        Gathered from the compact layout; above the cap, each level's
        CountSketch hashes ``unique``.
        """
        if self._compact:
            slots = self._layout_tables()[0]
            signed = self._ingest_tables()[0]
            columns, signed = slots[:, unique], signed[:, unique]
        else:
            rows = [sketch._sketch._rows(unique) for sketch in self._sketches]
            keep = self._sampler_bank.contains_matrix(unique)
            columns = np.concatenate([buckets for buckets, _signs in rows])
            signed = np.concatenate([signs for _buckets, signs in rows])
            signed = signed * np.repeat(keep, self._depth, axis=0)
        offsets = np.arange(len(columns)) * self._tables.shape[2]
        return columns + offsets[:, None], signed

    def ingest_grouped(self, counts, total_len) -> None:
        """Domain-mode kernel over a chunk's whole-domain id counts.

        The caller (``LargeSetRun``) counts a chunk of ``total_len``
        coordinates once: ``counts[i]`` arrivals of coordinate ``i``,
        one entry per coordinate of the domain.  Every level's update
        is then one term of a single scatter into the stacked bank:
        level ``l`` adds ``sign * count`` at its cells for the present
        coordinates it samples, and advances its token count by their
        arrivals.  Bit-identical to per-level
        ``F2HeavyHitter.ingest_unique`` calls and to ``process_batch``
        on the raw ids.
        """
        if self._tables is None:
            raise TypeError(
                "ingest_grouped needs a domain-mode F2Contributing "
                "(domain=...)"
            )
        self._check_open()
        counts = np.asarray(counts, dtype=np.int64)
        if len(counts) != self.domain:
            raise ValueError(
                f"counts must hold one entry per coordinate of the domain "
                f"[0, {self.domain}), got {len(counts)}"
            )
        self._tokens_seen += total_len
        unique = np.flatnonzero(counts)
        if self._compact and len(unique) * _DENSE_SHARE >= self.domain:
            # Every precomputed term; absent coordinates add 0.
            cells, items, signs, keep = self._ingest_tables()[1]
            values = signs * counts[items]
            totals = keep @ counts
        else:
            flat, signed = self._level_rows(unique)
            signed_counts = signed * counts[unique]
            cells, values = flat.ravel(), signed_counts.ravel()
            # A level's first row holds +-count where it keeps an item.
            totals = np.abs(signed_counts[:: self._depth]).sum(axis=1)
        for sketch, total in zip(self._sketches, totals.tolist()):
            if total:
                sketch._check_open()
                sketch._tokens_seen += total
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        np.add.at(self._tables.reshape(-1), cells, values)
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
        if self._compact:
            # One stacked pass lays out every level before the loads.
            self._layout_tables()
        for level, sketch in enumerate(self._sketches):
            sketch.load_state_arrays(unpack_state(state, f"levels/{level}"))

    def space_words(self) -> int:
        total = 0
        for sampler, sketch in zip(self._samplers, self._sketches):
            total += sampler.space_words() + sketch.space_words()
        return total
