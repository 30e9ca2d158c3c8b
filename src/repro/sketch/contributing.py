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
of the sampled substream, so a Theorem 2.10 heavy-hitter sketch run on
the substream finds it.  Because every update to a coordinate survives
or dies together, a survivor's frequency in the substream equals its
true frequency.

Over a known coordinate domain (``LargeSet``'s superset ids) the levels
are arrays and nothing else: the samplers' hash coefficients, the
CountSketch rows' bucket and sign coefficients, one ``(levels, depth,
min(domain, width))`` counter bank holding only the counters the domain
reaches, and the levels' token counts.  Every level's sampler, bucket
and sign hash is the one a standalone
:class:`~repro.sketch.hashing.SampledSet` and
:class:`~repro.sketch.countsketch.F2HeavyHitter` with the level's seed
would draw, and the seeds come from the same generators, derived in
bulk inside a :func:`~repro.sketch.hashing.coefficient_batch`.  The
cell and sign of every ``(level, row, coordinate)`` are worked out
once, at the first chunk, load or score, so a chunk's whole-domain id
counts (:meth:`F2Contributing.ingest_grouped`) update every level with
one scatter, and finalisation scores every level and coordinate with
one gather and one median.  CountSketch is linear, so the bank equals
the per-level sketches bit for bit: state, merges, reports and
``space_words`` included.  Without a domain each level keeps its own
``F2HeavyHitter`` with an online candidate pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    check_positive_int,
    pack_state,
    unpack_state,
)
from repro.engine.plan import TABLE_DOMAIN_CAP
from repro.engine.profile import PROFILER
from repro.sketch.countsketch import (
    REPORT_SLACK,
    ROW_DEGREE,
    F2HeavyHitter,
    check_items,
    check_table,
    compact_rows,
    expand_rows,
    heavy_hitter_width,
    number_buckets,
    sign_table,
    squared_norms,
)
from repro.sketch.hashing import (
    DeferredCoefficients,
    SampledSet,
    SampledSetBank,
    defer_coefficients,
    eval_rows,
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

#: Independence degree of the level samplers.
_SAMPLER_DEGREE = 16


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


class F2Contributing(DeferredCoefficients, StreamingAlgorithm):
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
        Randomness for subsampling hashes and sketches: the levels'
        sampler and heavy-hitter seeds are
        ``default_rng(seed).integers(0, 2**63, size=2 * levels)``,
        alternating.
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
        ``LargeSet`` superset ids).  The levels are then one array bank
        (see the module docstring) that holds only the counters the
        domain reaches, updated by :meth:`ingest_grouped` in a single
        scatter and scored whole at finalise; above
        ``TABLE_DOMAIN_CAP`` the bank holds full ``(depth, width)``
        tables and every chunk is hashed.  ``None`` keeps a
        :class:`~repro.sketch.countsketch.F2HeavyHitter` with an online
        candidate pool per level.
    """

    _FILLED = ("_sampler_coeffs", "_row_coeffs")

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
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.gamma = float(gamma)
        self.max_class_size = int(max_class_size)
        self.num_levels = int(np.ceil(np.log2(max(2, max_class_size)))) + 1
        self.phi = min(1.0, gamma / phi_scale)
        self.depth = int(depth)
        self.domain = (
            None if domain is None else check_positive_int("domain", domain)
        )
        rates = [
            max(1.0, (1 << level) / survivors)
            for level in range(self.num_levels)
        ]
        seeds = np.random.default_rng(seed).integers(
            0, 2**63, size=2 * self.num_levels
        )
        if self.domain is None:
            self._samplers = [
                SampledSet(rate, degree=_SAMPLER_DEGREE, seed=sampler_seed)
                for rate, sampler_seed in zip(rates, seeds[0::2])
            ]
            self._sketches = [
                F2HeavyHitter(self.phi, depth=depth, seed=sketch_seed)
                for sketch_seed in seeds[1::2]
            ]
            # One stacked hash pass classifies a chunk for every level.
            self._sampler_bank = SampledSetBank(self._samplers)
            return
        self.width = heavy_hitter_width(self.phi)
        self._sampler_buckets = np.asarray(
            [SampledSet.buckets_for(rate) for rate in rates], dtype=np.int64
        )
        self._compact = self.domain <= TABLE_DOMAIN_CAP
        columns = min(self.domain, self.width) if self._compact else self.width
        self._tables = np.zeros(
            (self.num_levels, self.depth, columns), dtype=np.int64
        )
        self._level_tokens = np.zeros(self.num_levels, dtype=np.int64)
        # Compact mode's layout and ingest tables; built at first use,
        # since the coefficients may still wait in a batch.
        self._layout = None
        self._ingest = None
        # Level l's sampler hashes with seed seeds[2l]; its CountSketch
        # rows with the 2 * depth draws of seeds[2l + 1]: buckets first,
        # then signs, as CountSketch draws them.
        defer_coefficients(
            self,
            (seeds[0::2].tolist(), _SAMPLER_DEGREE),
            (seeds[1::2].tolist(), ROW_DEGREE, 2 * self.depth),
        )

    def _fill(self, sampler_coeffs, row_coeffs) -> None:
        """Adopt the ``(levels, 16)`` sampler and ``(levels * 2 * depth,
        4)`` row coefficient blocks drawn for the seeds."""
        self._sampler_coeffs = sampler_coeffs
        self._row_coeffs = row_coeffs

    # -- the domain-mode bank -------------------------------------------

    def _row_values(self, items):
        """``(buckets, signs)``, both ``(levels * depth, len(items))``,
        level-major: every CountSketch row's bucket and ``+-1`` sign of
        ``items``, from one Horner pass."""
        depth, levels = self.depth, self.num_levels
        ranges = np.tile(np.repeat([self.width, 2], depth), levels)
        values = eval_rows(self._row_coeffs, ranges[:, None], items)
        values = values.reshape(levels, 2, depth, len(items))
        rows = levels * depth
        return (
            values[:, 0].reshape(rows, len(items)),
            sign_table(values[:, 1].reshape(rows, len(items))),
        )

    def _keep(self, items):
        """``(levels, len(items))``: whether each level samples each item.
        Rate-1 levels keep every item without hashing."""
        keep = np.ones((self.num_levels, len(items)), dtype=bool)
        hashed = self._sampler_buckets > 1
        if hashed.any():
            keep[hashed] = (
                eval_rows(
                    self._sampler_coeffs[hashed],
                    self._sampler_buckets[hashed, None],
                    items,
                )
                == 0
            )
        return keep

    def _layout_tables(self):
        """``(slots, signs, buckets)``, all ``(levels * depth, domain)``,
        level-major: every CountSketch row's column in its level's
        compact table (int32), its ``+-1`` sign (int8) and its bucket in
        the full row (int32).

        Built once, from one Horner pass over the whole domain.  A
        state load, a state write and a score need only these;
        :meth:`_ingest_tables` adds what a chunk needs.
        """
        if self._layout is None:
            t0 = PROFILER.clock() if PROFILER.enabled else 0.0
            buckets, signs = self._row_values(np.arange(self.domain))
            self._layout = (
                number_buckets(buckets, self.width),
                signs,
                buckets.astype(np.int32),
            )
            if PROFILER.enabled:
                PROFILER.add("layout", PROFILER.clock() - t0)
        return self._layout

    def _ingest_tables(self):
        """``(signed, terms)``, built once from one pass of the level
        samplers over the whole domain.

        ``signed`` is the ``(levels * depth, domain)`` sign table with
        0 where the row's level does not sample the coordinate.
        ``terms`` is ``(cells, items, signs, keep)``: the flat bank
        cell and coordinate (both int32: a cell is below ``levels *
        depth * min(domain, width) < 2^31``) and sign of every
        ``(level, row, coordinate)`` whose level samples the
        coordinate, and the ``(levels, domain)`` survivor table.
        """
        if self._ingest is None:
            slots, signs, _buckets = self._layout_tables()
            t0 = PROFILER.clock() if PROFILER.enabled else 0.0
            items = np.arange(self.domain, dtype=np.int32)
            keep = self._keep(items)
            kept = np.repeat(keep, self.depth, axis=0)
            offsets = (
                np.arange(len(slots), dtype=np.int32) * self._tables.shape[2]
            )
            terms = (
                (slots + offsets[:, None])[kept],
                np.broadcast_to(items, kept.shape)[kept],
                signs[kept],
                keep,
            )
            self._ingest = (signs * kept, terms)
            if PROFILER.enabled:
                PROFILER.add("layout", PROFILER.clock() - t0)
        return self._ingest

    def _level_rows(self, unique):
        """``(flat, signed)``, both ``(levels * depth, U)``, level-major:
        each CountSketch row's flat bank index for ``unique``, and its
        ``+-1`` sign where the row's level samples the item, 0 where not.

        Gathered from the compact layout; above the cap, hashed.
        """
        if self._compact:
            slots = self._layout_tables()[0]
            signed = self._ingest_tables()[0]
            columns, signed = slots[:, unique], signed[:, unique]
        else:
            columns, signs = self._row_values(unique)
            signed = signs * np.repeat(self._keep(unique), self.depth, axis=0)
        offsets = np.arange(len(columns)) * self._tables.shape[2]
        return columns + offsets[:, None], signed

    def _full_tables(self):
        """The ``(levels, depth, width)`` tables the per-level sketches
        would ship: the bank itself above the cap, else one scatter."""
        if not self._compact:
            return self._tables
        slots, _signs, buckets = self._layout_tables()
        rows = self.num_levels * self.depth
        full = expand_rows(
            self._tables.reshape(rows, -1), slots, buckets, self.width
        )
        return full.reshape(self.num_levels, self.depth, self.width)

    def _scatter_counts(self, counts) -> None:
        """Add ``counts[i]`` arrivals of every coordinate ``i`` to every
        level that samples it."""
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
            totals = np.abs(signed_counts[:: self.depth]).sum(axis=1)
        self._level_tokens += totals
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        np.add.at(self._tables.reshape(-1), cells, values)
        if profiling:
            PROFILER.add("scatter", PROFILER.clock() - t0)

    def _level_reports(self):
        """``(estimates, heavy)``, both ``(levels, domain)``: every
        level's estimate of every coordinate, and whether the level's
        ``F2HeavyHitter.peek_heavy_hitters`` would report it.

        Each level's ``F_2`` estimate is the median of its row norms and
        its report threshold ``slack * sqrt(phi * F_2)``, as in
        :meth:`~repro.sketch.countsketch.F2HeavyHitter.peek_heavy_hitters`;
        one gather and one median over the rows estimate every
        coordinate at every level.
        """
        levels, depth = self.num_levels, self.depth
        rows = levels * depth
        if self._compact:
            slots, signs, _buckets = self._layout_tables()
            full = self._full_tables
        else:
            slots, signs = self._row_values(np.arange(self.domain))
            full = None
        f2 = np.median(squared_norms(self._tables, full), axis=1)
        threshold = REPORT_SLACK * np.sqrt(self.phi * f2)
        counters = self._tables.reshape(rows, -1)[
            np.arange(rows)[:, None], slots
        ]
        estimates = np.median(
            (signs * counters).reshape(levels, depth, self.domain), axis=1
        )
        heavy = (estimates >= threshold[:, None]) & (f2 > 0)[:, None]
        return estimates, heavy

    def _scores(self):
        """``(coordinates, frequencies, levels)``: :meth:`peek_contributing`
        as arrays, in its order.  A coordinate reports its largest heavy
        estimate, from the first level that reaches it."""
        estimates, heavy = self._level_reports()
        coordinates = np.flatnonzero(heavy.any(axis=0))
        heavy = heavy[:, coordinates]
        scored = np.where(heavy, estimates[:, coordinates], -np.inf)
        best = scored.argmax(axis=0)
        frequencies = scored[best, np.arange(len(coordinates))]
        order = np.lexsort((coordinates, heavy.argmax(axis=0), -frequencies))
        return coordinates[order], frequencies[order], best[order]

    # -- updates -----------------------------------------------------------

    def ingest_grouped(self, counts, total_len) -> None:
        """Domain-mode kernel over a chunk's whole-domain id counts.

        The caller (``LargeSetRun``) counts a chunk of ``total_len``
        coordinates once: ``counts[i]`` arrivals of coordinate ``i``,
        one entry per coordinate of the domain.  Every level's update
        is then one term of a single scatter into the bank: level ``l``
        adds ``sign * count`` at its cells for the present coordinates
        it samples, and advances its token count by their arrivals.
        Bit-identical to per-level ``F2HeavyHitter.ingest_unique``
        calls and to ``process_batch`` on the raw ids.
        """
        if self.domain is None:
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
        self._scatter_counts(counts)

    def _process(self, item, count: int = 1) -> None:
        item = int(item)
        if self.domain is None:
            for level in range(self.num_levels):
                if self._samplers[level].contains(item):
                    self._sketches[level].process(item, count)
            return
        check_items(item, item, self.domain)
        counts = np.zeros(self.domain, dtype=np.int64)
        counts[item] = count
        self._scatter_counts(counts)

    def _process_batch(self, items: np.ndarray) -> None:
        if self.domain is None:
            masks = self._sampler_bank.contains_matrix(items)
            for sketch, mask in zip(self._sketches, masks):
                survivors = items[mask]
                if len(survivors):
                    sketch.process_batch(survivors)
            return
        check_items(int(items.min()), int(items.max()), self.domain)
        self._scatter_counts(np.bincount(items, minlength=self.domain))

    # -- queries -----------------------------------------------------------

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
        """Mid-stream snapshot of :meth:`contributing` (no finalise).

        Frequency descending; ties keep the order in which the levels
        first report their coordinates (in domain mode: by that first
        level, then by coordinate).
        """
        if self.domain is not None:
            return [
                ContributingCoordinate(coordinate, frequency, level)
                for coordinate, frequency, level in zip(
                    *(array.tolist() for array in self._scores())
                )
            ]
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

    def peek_top(self) -> ContributingCoordinate | None:
        """The first entry of :meth:`peek_contributing`, ``None`` when
        it is empty."""
        if self.domain is None:
            found = self.peek_contributing()
            return found[0] if found else None
        coordinates, frequencies, levels = self._scores()
        if not len(coordinates):
            return None
        return ContributingCoordinate(
            int(coordinates[0]), float(frequencies[0]), int(levels[0])
        )

    # -- merging / state ---------------------------------------------------

    def _require_mergeable(self, other: "F2Contributing") -> None:
        same = (
            other.gamma == self.gamma
            and other.max_class_size == self.max_class_size
            and other.num_levels == self.num_levels
            and other.domain == self.domain
        )
        if same and self.domain is None:
            same = all(
                same_sampled_set(mine, theirs)
                for mine, theirs in zip(self._samplers, other._samplers)
            )
        elif same:
            same = (
                other.phi == self.phi
                and other.width == self.width
                and other.depth == self.depth
                and np.array_equal(
                    other._sampler_buckets, self._sampler_buckets
                )
                and np.array_equal(
                    other._sampler_coeffs, self._sampler_coeffs
                )
                and np.array_equal(other._row_coeffs, self._row_coeffs)
            )
        if not same:
            raise MergeIncompatibleError(
                "can only merge F2Contributing instances with identical "
                "seed, gamma, and class-size cap"
            )

    def _merge(self, other: "F2Contributing") -> None:
        # Same level samplers => each level's heavy-hitter sketches saw
        # the same substream partition; merging them per level is the
        # whole merge (the samplers themselves are stateless hashes).
        # Equal coefficients give equal layouts, so banks add.
        if self.domain is not None:
            self._tables += other._tables
            self._level_tokens += other._level_tokens
            return
        for mine, theirs in zip(self._sketches, other._sketches):
            mine.merge(theirs)

    def _state_arrays(self) -> dict:
        """Per level, what its ``F2HeavyHitter`` would ship: the full
        ``(depth, width)`` table, the CountSketch's token count (always
        0, since the level counts the tokens; a load ignores it) and the
        level's."""
        state: dict = {}
        if self.domain is None:
            for level, sketch in enumerate(self._sketches):
                pack_state(state, f"levels/{level}", sketch.state_arrays())
            return state
        tables = self._full_tables()
        for level, tokens in enumerate(self._level_tokens.tolist()):
            state[f"levels/{level}/sketch/table"] = tables[level]
            state[f"levels/{level}/sketch/tokens"] = np.asarray(
                0, dtype=np.int64
            )
            state[f"levels/{level}/tokens"] = np.asarray(
                tokens, dtype=np.int64
            )
        return state

    def _load_state_arrays(self, state: dict) -> None:
        if self.domain is None:
            for level, sketch in enumerate(self._sketches):
                level_state = unpack_state(state, f"levels/{level}")
                sketch.load_state_arrays(level_state)
            return
        levels, depth, width = self.num_levels, self.depth, self.width
        tables = np.empty((levels, depth, width), dtype=np.int64)
        for level in range(levels):
            tables[level] = check_table(
                state[f"levels/{level}/sketch/table"], (depth, width)
            )
        tokens = [
            int(state[f"levels/{level}/tokens"]) for level in range(levels)
        ]
        if self._compact:
            slots, _signs, buckets = self._layout_tables()
            tables = compact_rows(
                tables.reshape(levels * depth, width),
                slots,
                buckets,
                self._tables.shape[2],
                self.domain,
            ).reshape(self._tables.shape)
        self._tables[...] = tables
        self._level_tokens[:] = tokens

    def space_words(self) -> int:
        if self.domain is None:
            return sum(
                sampler.space_words() + sketch.space_words()
                for sampler, sketch in zip(self._samplers, self._sketches)
            )
        # Per level: the sampler's coefficients and bucket count, the
        # charged (depth, width) table and every row's two hashes.
        per_level = (
            _SAMPLER_DEGREE
            + 1
            + self.depth * self.width
            + 2 * self.depth * ROW_DEGREE
        )
        return self.num_levels * per_level
