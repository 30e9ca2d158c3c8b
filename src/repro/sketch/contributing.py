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
bulk inside a :func:`~repro.sketch.hashing.coefficient_batch`.

Detectors over one domain share a :class:`ContributingBank`: ``LargeSet``
puts all its runs' detectors in one, a standalone ``LargeSetRun`` its
two, and any other detector is a bank of one.  The bank lays out every
member's rows with one hash pass over the domain, updates every member
with one scatter per chunk and scores every member with one gather and
one median, and each member's counters, token counts and layout are
views of the bank's arrays.  CountSketch is linear, so the bank equals
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

__all__ = ["ContributingBank", "ContributingCoordinate", "F2Contributing"]

#: A chunk presenting at least ``1 / _DENSE_SHARE`` of the domain to a
#: whole bank applies every precomputed ``(cell, count index)`` term,
#: absent coordinates adding 0; sparser chunks gather the present
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
        ``LargeSet`` superset ids).  The levels are then arrays (see the
        module docstring) holding only the counters the domain reaches,
        updated, laid out and scored by the detector's
        :class:`ContributingBank`; above ``TABLE_DOMAIN_CAP`` they hold
        full ``(depth, width)`` tables and every chunk is hashed.
        ``None`` keeps a :class:`~repro.sketch.countsketch.F2HeavyHitter`
        with an online candidate pool per level.
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
        # Until the bank forms its storage, the detector's own arrays;
        # then views of the bank's.
        self._tables = np.zeros(
            (self.num_levels, self.depth, columns), dtype=np.int64
        )
        self._level_tokens = np.zeros(self.num_levels, dtype=np.int64)
        # Compact mode's (slots, signs, buckets) views of the bank's
        # layout, set when the bank lays out; the bank itself is made
        # at first use unless a container makes one first.
        self._layout = None
        self._bank = None
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

    def _member_bank(self) -> "ContributingBank":
        """The bank holding this detector: its container's, or a bank of
        one made at first use."""
        if self._bank is None:
            ContributingBank([self])
        return self._bank

    def _layout_tables(self):
        """``(slots, signs, buckets)``, all ``(levels * depth, domain)``,
        level-major: every CountSketch row's column in its level's
        compact table (int32), its ``+-1`` sign (int8) and its bucket in
        the full row (int32).  Views of the bank's layout, which is laid
        out for every member at once."""
        if self._layout is None:
            self._member_bank()._lay_out()
        return self._layout

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

    def _ingest(self, counts, total_len=None) -> None:
        """Have the bank add ``counts[i]`` arrivals of every coordinate
        ``i`` to every level that samples it; with ``total_len``, also
        advance ``tokens_seen`` by it."""
        bank = self._member_bank()
        bank.ingest(
            counts[None],
            None if total_len is None else [total_len],
            bank.index(self),
        )

    # -- updates -----------------------------------------------------------

    def ingest_grouped(self, counts, total_len) -> None:
        """Domain-mode kernel over a chunk's whole-domain id counts.

        The caller counts a chunk of ``total_len`` coordinates once:
        ``counts[i]`` arrivals of coordinate ``i``, one integer entry
        per coordinate of the domain.  Level ``l`` adds ``sign * count``
        at its cells for the present coordinates it samples, and
        advances its token count by their arrivals.  Bit-identical to
        per-level ``F2HeavyHitter.ingest_unique`` calls and to
        ``process_batch`` on the raw ids.
        """
        if self.domain is None:
            raise TypeError(
                "ingest_grouped needs a domain-mode F2Contributing "
                "(domain=...)"
            )
        self._check_open()
        counts = np.asarray(counts)
        if len(counts) != self.domain:
            raise ValueError(
                f"counts must hold one entry per coordinate of the domain "
                f"[0, {self.domain}), got {len(counts)}"
            )
        if counts.dtype.kind not in "iu":
            raise ValueError(
                f"counts must be an integer array, got {counts.dtype}"
            )
        self._ingest(counts.astype(np.int64, copy=False), total_len)

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
        self._ingest(counts)

    def _process_batch(self, items: np.ndarray) -> None:
        if self.domain is None:
            masks = self._sampler_bank.contains_matrix(items)
            for sketch, mask in zip(self._sketches, masks):
                survivors = items[mask]
                if len(survivors):
                    sketch.process_batch(survivors)
            return
        check_items(int(items.min()), int(items.max()), self.domain)
        self._ingest(np.bincount(items, minlength=self.domain))

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
                    *(
                        array.tolist()
                        for array in self._member_bank().scores(self)
                    )
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
        bank = self._member_bank()
        first = bank.index(self)
        return bank.tops(first, first + 1)[0]

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


def _median_rows(values) -> np.ndarray:
    """``np.median(values, axis=1)``, bit for bit, by an odd-even
    transposition sort of the ``depth`` rows of a ``(levels, depth,
    columns)`` integer array.

    Each step is one vectorised ``minimum``/``maximum`` over whole rows,
    where ``np.median`` partitions every tiny ``depth``-long column on
    its own: on a 2-CPU host, 88 us against 483 us for a ``(36, 4,
    200)`` reference bank.  An even depth averages the middle two as
    ``np.median`` does, ``(float(low) + float(high)) / 2``.
    """
    rows = list(np.moveaxis(values, 1, 0))
    depth = len(rows)
    for step in range(depth):
        for i in range(step % 2, depth - 1, 2):
            low = np.minimum(rows[i], rows[i + 1])
            rows[i + 1] = np.maximum(rows[i], rows[i + 1])
            rows[i] = low
    middle = depth // 2
    if depth % 2:
        return rows[middle].astype(np.float64)
    return (rows[middle - 1].astype(np.float64) + rows[middle]) / 2


def _ranked(estimates, heavy):
    """``(coordinates, frequencies, levels)`` from one detector's
    ``(levels, domain)`` reports, in report order: frequency descending,
    then the first level that reports the coordinate, then the
    coordinate.  A coordinate reports its largest heavy estimate, from
    the first level that reaches it."""
    coordinates = np.flatnonzero(heavy.any(axis=0))
    heavy = heavy[:, coordinates]
    scored = np.where(heavy, estimates[:, coordinates], -np.inf)
    best = scored.argmax(axis=0)
    frequencies = scored[best, np.arange(len(coordinates))]
    order = np.lexsort((coordinates, heavy.argmax(axis=0), -frequencies))
    return coordinates[order], frequencies[order], best[order]


def _join(members, name: str) -> np.ndarray:
    """One flat array holding every member's array ``name`` end to end,
    each member's array becoming a view of it.  A lone member's array is
    the storage itself, so the member keeps it."""
    arrays = [getattr(member, name) for member in members]
    if len(arrays) == 1:
        return arrays[0].reshape(-1)
    flat = np.concatenate([array.reshape(-1) for array in arrays])
    start = 0
    for member, array in zip(members, arrays):
        stop = start + array.size
        setattr(member, name, flat[start:stop].reshape(array.shape))
        start = stop
    return flat


class ContributingBank:
    """Domain-mode :class:`F2Contributing` detectors over one domain,
    laid out, scattered and scored as one array.

    Stacked member after member, each level-major, the members' ``L``
    levels have ``R = L * depth`` CountSketch rows.  Their counters lie
    end to end in one flat int64 array and their level token counts in
    another, and each member's ``_tables``, ``_level_tokens`` and
    layout are views of the bank's arrays.  Nothing is built when the
    bank is made, so a container may make it in its constructor: the
    storage forms, and the layout and ingest tables are built, at the
    first chunk, load or score.

    ``members`` must share the domain and the depth; their order is the
    order of a chunk's count rows (:meth:`ingest`) and of
    :meth:`tops`.  ``LargeSet`` banks all its runs' detectors, a
    standalone ``LargeSetRun`` its two, and any other detector makes a
    bank of one.
    """

    def __init__(self, members):
        members = list(members)
        head = members[0]
        for member in members:
            if member.domain is None or (member.domain, member.depth) != (
                head.domain,
                head.depth,
            ):
                raise ValueError(
                    "a ContributingBank's members must be domain-mode "
                    "F2Contributing detectors of one domain and depth"
                )
            member._bank = self
            member._layout = None
        self.domain = head.domain
        self.depth = head.depth
        self._compact = head._compact
        self._members = members
        self._counters = None
        self._layout = None
        self._ingest = None

    def __len__(self) -> int:
        return len(self._members)

    def index(self, member: F2Contributing) -> int:
        """Position of ``member`` among the bank's members."""
        return self._members.index(member)

    # -- storage and tables --------------------------------------------------

    def _storage(self) -> np.ndarray:
        """The flat counters, formed at first use with the geometry:
        where each member's levels start, each level's member and
        ``phi``, and each row's first counter."""
        if self._counters is None:
            members, depth = self._members, self.depth
            levels = [member.num_levels for member in members]
            self._level_starts = np.cumsum([0, *levels])
            self._level_member = np.repeat(np.arange(len(members)), levels)
            self._phi = np.repeat([member.phi for member in members], levels)
            columns = np.repeat(
                [member._tables.shape[2] for member in members],
                [depth * count for count in levels],
            )
            self._row_base = np.cumsum(columns) - columns
            self._counters = _join(members, "_tables")
            self._tokens = _join(members, "_level_tokens")
        return self._counters

    def _span(self, first: int, last: int) -> tuple:
        """``(lo, hi)``: the levels of members ``first..last-1``."""
        starts = self._level_starts
        return int(starts[first]), int(starts[last])

    def _row_values(self, items, first: int, last: int):
        """``(buckets, signs)``, both ``(rows, len(items))``: every
        CountSketch row of members ``first..last-1``, level-major, from
        one hash pass."""
        members, depth = self._members[first:last], self.depth
        coeffs = np.concatenate([member._row_coeffs for member in members])
        ranges = np.concatenate(
            [
                np.tile(np.repeat([member.width, 2], depth), member.num_levels)
                for member in members
            ]
        )
        values = eval_rows(coeffs, ranges[:, None], items)
        values = values.reshape(-1, 2, depth, len(items))
        rows = len(values) * depth
        return (
            values[:, 0].reshape(rows, len(items)),
            sign_table(values[:, 1].reshape(rows, len(items))),
        )

    def _keep(self, items, first: int, last: int):
        """``(levels, len(items))``: whether each level of members
        ``first..last-1`` samples each item, from one hash pass.  Rate-1
        levels keep every item without hashing."""
        members = self._members[first:last]
        buckets = np.concatenate(
            [member._sampler_buckets for member in members]
        )
        keep = np.ones((len(buckets), len(items)), dtype=bool)
        hashed = buckets > 1
        if hashed.any():
            coeffs = np.concatenate(
                [member._sampler_coeffs for member in members]
            )
            keep[hashed] = (
                eval_rows(coeffs[hashed], buckets[hashed, None], items) == 0
            )
        return keep

    def _lay_out(self):
        """``(slots, signs, buckets)``, all ``(R, domain)``: every row's
        column in its member's compact table (int32), its ``+-1`` sign
        (int8) and its bucket in the full row (int32).

        Built once, from one hash pass over the domain; each member gets
        views of its rows.  A state load, a state write and a score need
        only these; :meth:`_ingest_tables` adds what a chunk needs.
        """
        if self._layout is None:
            self._storage()
            t0 = PROFILER.clock() if PROFILER.enabled else 0.0
            buckets, signs = self._row_values(
                np.arange(self.domain), 0, len(self)
            )
            width = max(member.width for member in self._members)
            self._layout = (
                number_buckets(buckets, width),
                signs,
                buckets.astype(np.int32),
            )
            rows = self._level_starts * self.depth
            for member, lo, hi in zip(self._members, rows[:-1], rows[1:]):
                member._layout = tuple(table[lo:hi] for table in self._layout)
            if PROFILER.enabled:
                PROFILER.add("layout", PROFILER.clock() - t0)
        return self._layout

    def _ingest_tables(self):
        """``(signed, keep, terms)``, built once from one pass of every
        level sampler over the domain.

        ``keep`` is the ``(L, domain)`` survivor table and ``signed`` the
        ``(R, domain)`` sign table with 0 where the row's level does not
        sample the coordinate.  ``terms`` is ``(positive, negative)``,
        each ``(cells, counts)``: the flat counter and the flat
        ``(member, coordinate)`` index into a chunk's count rows of
        every ``(level, row, coordinate)`` whose level samples the
        coordinate, split by the row's sign.  Both are int32: a cell is
        below the bank's counter count, a count index below ``members
        * domain``, both far below ``2^31``.
        """
        if self._ingest is None:
            slots, signs, _buckets = self._lay_out()
            t0 = PROFILER.clock() if PROFILER.enabled else 0.0
            items = np.arange(self.domain)
            keep = self._keep(items, 0, len(self))
            kept = np.repeat(keep, self.depth, axis=0)
            cells = (slots + self._row_base[:, None]).ravel()
            counts = (
                np.repeat(self._level_member, self.depth)[:, None]
                * self.domain
                + items
            ).ravel()
            terms = []
            for mask in (kept & (signs > 0), kept & (signs < 0)):
                # Positions first: a 2-D boolean index is several times
                # slower than a take.
                where = np.flatnonzero(mask)
                terms.append(
                    (
                        cells.take(where).astype(np.int32),
                        counts.take(where).astype(np.int32),
                    )
                )
            self._ingest = (signs * kept, keep, tuple(terms))
            if PROFILER.enabled:
                PROFILER.add("layout", PROFILER.clock() - t0)
        return self._ingest

    def _present_rows(self, present, first: int, last: int):
        """``(columns, signed, keep)`` of the ``present`` coordinates for
        members ``first..last-1``: each row's column in its counter bank
        and its ``+-1`` sign, 0 where the row's level does not sample
        the coordinate, both ``(rows, U)``, and the ``(levels, U)``
        survivor table.  Gathered from the tables; above the cap,
        hashed."""
        lo, hi = self._span(first, last)
        if self._compact:
            rows = slice(lo * self.depth, hi * self.depth)
            slots = self._lay_out()[0]
            signed, keep, _terms = self._ingest_tables()
            return (
                slots[rows, present],
                signed[rows, present],
                keep[lo:hi, present],
            )
        buckets, signs = self._row_values(present, first, last)
        keep = self._keep(present, first, last)
        return buckets, signs * np.repeat(keep, self.depth, axis=0), keep

    # -- updates -----------------------------------------------------------

    def ingest(self, counts, totals=None, first: int = 0) -> None:
        """Add ``counts[i, x]`` arrivals of coordinate ``x`` to every
        level of member ``first + i`` that samples ``x``, and advance
        those levels' token counts by their arrivals; with ``totals``,
        member ``first + i`` also advances its ``tokens_seen`` by
        ``totals[i]``.

        ``counts`` is an int64 ``(members, domain)`` array.  A chunk of
        the whole bank that presents at least ``1 / _DENSE_SHARE`` of
        the domain applies every precomputed term, absent coordinates
        adding 0; any other gathers the present coordinates' columns
        (hashed above the cap).  Either way one scatter updates every
        member.
        """
        last = first + len(counts)
        if totals is not None:
            for member, total in zip(self._members[first:last], totals):
                member._tokens_seen += int(total)
        counters = self._storage()
        present = np.flatnonzero(counts.any(axis=0))
        if not len(present):
            return
        lo, hi = self._span(first, last)
        level_rows = self._level_member[lo:hi] - first
        dense = (
            self._compact
            and len(counts) == len(self)
            and len(present) * _DENSE_SHARE >= self.domain
        )
        if dense:
            _signed, keep, terms = self._ingest_tables()
            tokens = np.einsum("ij,ij->i", keep, counts[level_rows])
            # Split by sign, the terms need no multiply.
            flat = counts.reshape(-1)
            (positive, plus), (negative, minus) = terms
            updates = (
                (np.add, positive, flat.take(plus)),
                (np.subtract, negative, flat.take(minus)),
            )
        else:
            columns, signed, keep = self._present_rows(present, first, last)
            present_counts = counts[:, present][level_rows]
            tokens = np.einsum("ij,ij->i", keep, present_counts)
            rows = slice(lo * self.depth, hi * self.depth)
            values = signed * np.repeat(present_counts, self.depth, axis=0)
            cells = columns + self._row_base[rows, None]
            updates = ((np.add, cells.ravel(), values.ravel()),)
        self._tokens[lo:hi] += tokens
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        for ufunc, cells, values in updates:
            ufunc.at(counters, cells, values)
        if profiling:
            PROFILER.add("scatter", PROFILER.clock() - t0)

    # -- scoring -----------------------------------------------------------

    def _reports(self, first: int = 0, last: int | None = None):
        """``(estimates, heavy)``, both ``(levels, domain)`` over the
        levels of members ``first..last-1``: every level's estimate of
        every coordinate, and whether the level's
        ``F2HeavyHitter.peek_heavy_hitters`` would report it.

        Each level's ``F_2`` estimate is the median of its row norms and
        its report threshold ``slack * sqrt(phi * F_2)``, as in
        :meth:`~repro.sketch.countsketch.F2HeavyHitter.peek_heavy_hitters`;
        one gather and one median over the rows (:func:`_median_rows`)
        estimate every coordinate at every level of every member.
        """
        last = len(self) if last is None else last
        counters = self._storage()
        lo, hi = self._span(first, last)
        rows = slice(lo * self.depth, hi * self.depth)
        if self._compact:
            slots, signs, _buckets = self._lay_out()
            slots, signs = slots[rows], signs[rows]
        else:
            slots, signs = self._row_values(
                np.arange(self.domain), first, last
            )
        sums = np.concatenate(
            [
                squared_norms(
                    member._tables,
                    member._full_tables if self._compact else None,
                ).reshape(-1)
                for member in self._members[first:last]
            ]
        )
        f2 = np.median(sums.reshape(hi - lo, self.depth), axis=1)
        threshold = REPORT_SLACK * np.sqrt(self._phi[lo:hi] * f2)
        counters = counters[slots + self._row_base[rows, None]]
        estimates = _median_rows(
            (signs * counters).reshape(hi - lo, self.depth, self.domain)
        )
        heavy = (estimates >= threshold[:, None]) & (f2 > 0)[:, None]
        return estimates, heavy

    def scores(self, member: F2Contributing):
        """``(coordinates, frequencies, levels)``: ``member``'s
        :meth:`F2Contributing.peek_contributing` as arrays, in its
        order."""
        first = self.index(member)
        return _ranked(*self._reports(first, first + 1))

    def tops(self, first: int = 0, last: int | None = None) -> list:
        """The first entry of :meth:`F2Contributing.peek_contributing`
        of each member ``first..last-1``, ``None`` where it is empty,
        from one scoring pass."""
        last = len(self) if last is None else last
        if not self._compact and last - first > 1:
            # Above the cap each member hashes the whole domain to score;
            # one member at a time keeps those tables a member's size.
            return [
                self.tops(index, index + 1)[0] for index in range(first, last)
            ]
        estimates, heavy = self._reports(first, last)
        starts = self._level_starts[first : last + 1]
        starts = starts - starts[0]
        tops = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            coordinates, frequencies, levels = _ranked(
                estimates[lo:hi], heavy[lo:hi]
            )
            tops.append(
                ContributingCoordinate(
                    int(coordinates[0]), float(frequencies[0]), int(levels[0])
                )
                if len(coordinates)
                else None
            )
        return tops
