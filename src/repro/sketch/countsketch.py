"""CountSketch and the ``F_2`` heavy-hitters algorithm (Theorem 2.10).

The paper's ``LargeSet`` subroutine needs, per Theorem 2.10 [14, 15, 18,
39], a single-pass algorithm that returns every coordinate ``i`` with
``a[i]^2 >= phi * F_2(a)`` together with a ``(1 +/- 1/2)``-approximate
frequency, in ``O~(1/phi)`` space.  We implement the standard recipe:

* :class:`CountSketch` -- Charikar--Chen--Farach-Colton: ``depth`` rows of
  ``width`` counters, each row pairing a 4-wise bucket hash with a 4-wise
  sign hash.  ``query(i)`` medians the signed counters; the per-row error
  is ``sqrt(F_2 / width)`` with constant probability.  Over a known
  coordinate domain no wider than ``width`` most counters of a row can
  never be reached; the sketch then holds only the reachable ones
  (see the class docstring) while charging the full table.
* :class:`F2HeavyHitter` -- wraps a CountSketch, whose row norms give
  the ``F_2`` estimate, and reports coordinates whose estimated
  frequency clears ``sqrt(phi * F_2-estimate)``.  When the caller knows
  the coordinate space ``[0, domain)`` (``LargeSet``'s superset ids) the
  table is the whole state: finalisation scores every coordinate with
  one vectorised median, the ``findHH`` shape.  Otherwise a bounded pool
  of candidate items is tracked online (the classic heap-based
  construction for insertion streams).
"""

from __future__ import annotations

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
from repro.sketch.hashing import KWiseHash, KWiseHashBank, SignHash

__all__ = ["CountSketch", "F2HeavyHitter"]

#: Distinct-item multiplier above which the flat-``bincount`` scatter
#: beats per-row ``np.add.at``: bincount allocates and sweeps the whole
#: ``depth * width`` table, add.at touches ``depth * uniques`` cells
#: with a far larger per-element constant.
_BINCOUNT_FACTOR = 16

#: Row sums of squares below this are exact in float64 whatever the
#: summation order, so the compact and the full table give the same
#: ``f2_estimate`` bit for bit.
_EXACT_SUM = 2.0**53

#: Independence degree of every bucket and sign hash (Charikar et al.
#: need 4-wise independence).
ROW_DEGREE = 4

#: :class:`F2HeavyHitter`'s default report margin.
REPORT_SLACK = 0.5


def _unique_grouped(items):
    """``(unique, first_pos, counts)``: sorted unique values, the index
    of each value's first occurrence in ``items``, and per-value counts."""
    unique, first_pos, counts = np.unique(
        items, return_index=True, return_counts=True
    )
    return unique, first_pos.astype(np.int64), counts.astype(np.int64)


def sign_table(bits):
    """``+-1`` int8 signs from sign-hash bits (``1 -> +1``, ``0 -> -1``)."""
    signs = bits.astype(np.int8)
    signs *= 2
    signs -= 1
    return signs


def heavy_hitter_width(phi: float) -> int:
    """CountSketch width of a ``phi``-heavy-hitter sketch: ``O(1/phi)``
    makes a ``phi``-heavy coordinate dominate its bucket."""
    return max(8, int(np.ceil(8.0 / phi)))


def squared_norms(tables, full_tables=None):
    """Each row's sum of squared counters, as float64: ``(..., depth)``
    from ``(..., depth, columns)`` tables.

    Integer sums below ``2^53`` are exact whatever the summation order,
    so compact and full tables give the same sums there.  Rows at or
    above that bound are summed over ``full_tables()`` instead, when
    the tables are compact.
    """
    sums = (tables.astype(np.float64) ** 2).sum(axis=-1)
    if full_tables is not None and sums.max(initial=0.0) >= _EXACT_SUM:
        large = sums >= _EXACT_SUM
        sums[large] = (full_tables().astype(np.float64) ** 2).sum(axis=-1)[
            large
        ]
    return sums


def check_items(low: int, high: int, domain: int) -> None:
    """Raise ``ValueError`` unless ``low..high`` lies in ``[0, domain)``."""
    if low < 0 or high >= domain:
        item = low if low < 0 else high
        raise ValueError(
            f"item {item} is outside the CountSketch domain [0, {domain})"
        )


def check_table(table, shape):
    """``table`` as an array, provided it is an integer array of
    ``shape``; raises ``ValueError`` otherwise."""
    table = np.asarray(table)
    if table.shape != shape or table.dtype.kind not in "iu":
        raise ValueError(
            f"CountSketch table must be a {shape} integer "
            f"array, got {table.dtype} {table.shape}"
        )
    return table


def expand_rows(compact, slots, buckets, width: int):
    """The ``(rows, width)`` table that the compact ``(rows, columns)``
    table stands for: row ``r``'s counter at slot ``slots[r, x]`` goes
    back to bucket ``buckets[r, x]``, for every coordinate ``x``."""
    rows = np.arange(len(compact))[:, None]
    full = np.zeros((len(compact), width), dtype=np.int64)
    full[rows, buckets] = compact[rows, slots]
    return full


def compact_rows(full, slots, buckets, columns: int, domain: int):
    """The inverse of :func:`expand_rows`: the ``(rows, columns)``
    compact table of a ``(rows, width)`` one.

    Raises ``ValueError`` when a counter no coordinate of ``[0,
    domain)`` reaches is nonzero.  The compact table holds each
    reachable cell once, so it has fewer nonzeros exactly then.
    """
    rows = np.arange(len(full))[:, None]
    compact = np.zeros((len(full), columns), dtype=np.int64)
    compact[rows, slots] = full[rows, buckets]
    if np.count_nonzero(compact) != np.count_nonzero(full):
        raise ValueError(
            "CountSketch table has a nonzero counter in a cell that "
            f"no coordinate of the domain [0, {domain}) reaches"
        )
    return compact


def number_buckets(buckets, width: int):
    """``slots[r, x]``: the rank of ``buckets[r, x]`` among the distinct
    values of row ``r``, so every row's reachable buckets are numbered
    ``0, 1, ...`` in ascending bucket order.

    One sort of ``row * width + bucket`` keys orders every row at once;
    row ``r``'s keys then fill sorted positions ``r * domain`` onwards.
    """
    rows, domain = buckets.shape
    keys = (buckets + (np.arange(rows) * width)[:, None]).ravel()
    order = np.argsort(keys)
    ranked = keys[order]
    # A slot is below min(domain, width) <= TABLE_DOMAIN_CAP.
    rank = np.zeros(len(keys), dtype=np.int32)
    np.cumsum(ranked[1:] != ranked[:-1], out=rank[1:])
    rank -= np.repeat(rank[::domain], domain)
    slots = np.empty_like(rank)
    slots[order] = rank
    return slots.reshape(rows, domain)


class CountSketch(StreamingAlgorithm):
    """Charikar--Chen--Farach-Colton frequency sketch.

    Parameters
    ----------
    width:
        Counters per row; per-row additive error is ``sqrt(F_2 / width)``.
    depth:
        Number of rows median-combined (failure probability
        ``exp(-Omega(depth))`` per query).
    seed:
        Randomness for the bucket and sign hashes.
    domain:
        Size of the coordinate space when the caller knows it: every
        item must lie in ``[0, domain)`` (others raise ``ValueError``).
        Up to ``TABLE_DOMAIN_CAP`` coordinates, the sketch hashes the
        whole domain once, at first use, numbers each row's distinct
        buckets, and holds a ``(depth, min(domain, width))`` table
        addressed through those slot numbers and a ``+-1`` sign table.
        A row can reach at most ``domain`` of its ``width`` buckets, and
        the others stay zero, so :meth:`state_arrays` scatters the
        compact table back to the ``(depth, width)`` table an open
        sketch would hold, and every query, merge and estimate equals
        it bit for bit.  :meth:`space_words` still charges ``depth *
        width`` counters, the paper's allocation.  Above the cap the
        sketch keeps the full table and hashes every batch.  ``None``
        (the default) is an open domain.
    """

    def __init__(
        self,
        width: int = 256,
        depth: int = 5,
        seed=0,
        domain: int | None = None,
    ):
        super().__init__()
        if width < 1 or depth < 1:
            raise ValueError(
                f"width and depth must be >= 1, got {width}, {depth}"
            )
        self.width = int(width)
        self.depth = int(depth)
        self.seed = seed
        self.domain = (
            None if domain is None else check_positive_int("domain", domain)
        )
        rng = np.random.default_rng(seed)
        self._bucket_hashes = [
            KWiseHash(
                self.width, degree=ROW_DEGREE, seed=rng.integers(0, 2**63)
            )
            for _ in range(self.depth)
        ]
        self._sign_hashes = [
            SignHash(degree=ROW_DEGREE, seed=rng.integers(0, 2**63))
            for _ in range(self.depth)
        ]
        # Rows stacked into banks: one Horner pass per batch hashes a
        # chunk for every row at once.
        self._bucket_bank = KWiseHashBank(self._bucket_hashes)
        self._sign_bank = KWiseHashBank(
            [sign._hash for sign in self._sign_hashes]
        )
        self._compact = (
            self.domain is not None and self.domain <= TABLE_DOMAIN_CAP
        )
        columns = min(self.domain, self.width) if self._compact else self.width
        self._table = np.zeros((self.depth, columns), dtype=np.int64)
        self._row_index = np.arange(self.depth)[:, None]
        # Compact mode's (slots, signs) tables; built at first use,
        # since the hash coefficients may still wait in a batch.
        self._layout = None

    # -- the compact layout -----------------------------------------------

    def _cells(self):
        """``(slots, signs, buckets)``, all ``(depth, domain)``: each
        coordinate's column in the compact table (int32), its ``+-1``
        sign (int8) and its bucket in the full row (int32), per row.
        The buckets place the compact table in the full one when state
        is shipped."""
        if self._layout is None:
            items = np.arange(self.domain, dtype=np.int64)
            buckets = self._bucket_bank.eval_many(items)
            self._layout = (
                number_buckets(buckets, self.width),
                sign_table(self._sign_bank.eval_many(items)),
                buckets.astype(np.int32),
            )
        return self._layout

    def _rows(self, items):
        """``(columns, signs)``, both ``(depth, len(items))``: where each
        item lands in every row of ``self._table``, and its sign.

        Read from the compact layout, or hashed by the row banks for an
        open domain and above the cap.
        """
        if self.domain is not None and len(items):
            check_items(int(items.min()), int(items.max()), self.domain)
        if self._compact:
            slots, signs, _buckets = self._cells()
            return slots[:, items], signs[:, items]
        return (
            self._bucket_bank.eval_many(items),
            sign_table(self._sign_bank.eval_many(items)),
        )

    def _full_table(self):
        """The ``(depth, width)`` table an open-domain sketch would hold."""
        if not self._compact:
            return self._table
        slots, _signs, buckets = self._cells()
        return expand_rows(self._table, slots, buckets, self.width)

    # -- updates ----------------------------------------------------------

    def _process(self, item, count: int = 1) -> None:
        self.update(int(item), count)

    def update(self, item: int, count: int = 1) -> None:
        """Add ``count`` to coordinate ``item`` (internal, unchecked
        for an open domain)."""
        if self.domain is not None:
            check_items(item, item, self.domain)
        if self._compact:
            slots, signs, _buckets = self._cells()
            self._table[self._row_index[:, 0], slots[:, item]] += np.multiply(
                signs[:, item], count, dtype=np.int64
            )
            return
        table = self._table
        for row in range(self.depth):
            bucket = self._bucket_hashes[row](item)
            table[row, bucket] += self._sign_hashes[row](item) * count

    def _process_batch(self, items: np.ndarray) -> None:
        self.update_batch(items)

    def update_batch(
        self, items: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        """Vectorised updates; exactly equivalent to scalar updates.

        CountSketch is linear, so scatter-adding a whole batch per row
        (``np.add.at``) produces the identical table.
        """
        items = np.asarray(items, dtype=np.int64)
        if counts is None:
            counts = np.full(len(items), 1, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        # Deduplicate so the per-row hash work is proportional to the
        # number of distinct items, not batch length.  Weighted bincount
        # is exact here: the summed magnitudes stay far below 2^53.
        unique, inverse = np.unique(items, return_inverse=True)
        sums = np.bincount(
            inverse, weights=counts, minlength=len(unique)
        ).astype(np.int64)
        self._scatter(*self._rows(unique), sums)

    def _scatter(self, columns, signs, sums) -> None:
        """Add ``signs * sums`` into the table rows at ``columns``.

        Two exactly-equivalent kernels behind a length threshold: many
        distinct items flatten into one weighted bincount over the whole
        table (one pass, no per-index dispatch), few fall back to
        per-row indexed adds so tiny updates do not pay a full table
        sweep.  Weights are float64 but every partial sum is an integer
        far below 2^53, so the cast back is exact.
        """
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        values = signs * sums
        table = self._table
        depth, width = table.shape
        cells = depth * width
        if values.shape[1] * _BINCOUNT_FACTOR >= cells:
            offsets = (np.arange(depth, dtype=np.int64) * width)[:, None]
            flat = columns + offsets
            table += (
                np.bincount(
                    flat.ravel(), weights=values.ravel(), minlength=cells
                )
                .astype(np.int64)
                .reshape(depth, width)
            )
        else:
            for row in range(depth):
                np.add.at(table[row], columns[row], values[row])
        if profiling:
            PROFILER.add("scatter", PROFILER.clock() - t0)

    def update_grouped(self, items: np.ndarray, sums: np.ndarray) -> None:
        """Update from pre-deduplicated ``(items, sums)`` pairs.

        Skips :meth:`update_batch`'s ``np.unique`` for callers that
        grouped their items already (``F2HeavyHitter.ingest_unique``).
        The table it produces is bit-identical to :meth:`update_batch`
        on the raw items.
        """
        self._scatter(*self._rows(np.asarray(items, dtype=np.int64)), sums)

    # -- queries ----------------------------------------------------------

    def query(self, item: int) -> float:
        """Median-of-rows estimate of coordinate ``item``'s frequency."""
        item = int(item)
        if self.domain is not None:
            check_items(item, item, self.domain)
        if self._compact:
            slots, signs, _buckets = self._cells()
            estimates = signs[:, item] * self._table[
                self._row_index[:, 0], slots[:, item]
            ]
        else:
            estimates = [
                self._sign_hashes[row](item)
                * self._table[row, self._bucket_hashes[row](item)]
                for row in range(self.depth)
            ]
        return float(np.median(estimates))

    def query_many(self, items) -> np.ndarray:
        """:meth:`query` for every item at once: the same floats, from
        one gather and one median over the rows."""
        columns, signs = self._rows(np.asarray(items, dtype=np.int64))
        return np.median(signs * self._table[self._row_index, columns], axis=0)

    def f2_estimate(self) -> float:
        """Median over rows of the row's squared norm: an ``F_2`` estimate.

        Each row's ``sum_b table[row][b]^2`` is exactly the AMS estimator
        with ``width`` buckets, so the median over rows is a constant
        factor approximation of ``F_2`` -- all Theorem 2.10 needs.  A
        compact table sums only its reachable counters; the sums are
        integers below ``2^53``, hence exact and equal to the full
        table's, unless a row reaches that bound, where the full table
        is summed instead.
        """
        sums = squared_norms(
            self._table, self._full_table if self._compact else None
        )
        return float(np.median(sums))

    # -- merging / state --------------------------------------------------

    def _require_mergeable(self, other: "CountSketch") -> None:
        if (
            other.width != self.width
            or other.depth != self.depth
            or other.seed != self.seed
            or other.domain != self.domain
        ):
            raise MergeIncompatibleError(
                "can only merge CountSketch tables with identical seed, "
                "shape and domain"
            )

    def _merge(self, other: "CountSketch") -> None:
        # CountSketch tables are linear in the stream: adding sharded
        # tables reproduces the single-stream sketch exactly.  Equal
        # seeds and domains give equal compact layouts.
        self._table += other._table

    def _state_arrays(self) -> dict:
        return {"table": self._full_table()}

    def _load_state_arrays(self, state: dict) -> None:
        table = check_table(state["table"], (self.depth, self.width))
        if not self._compact:
            self._table[...] = table
            return
        slots, _signs, buckets = self._cells()
        self._table[...] = compact_rows(
            table, slots, buckets, self._table.shape[1], self.domain
        )

    def space_words(self) -> int:
        hashes = sum(h.space_words() for h in self._bucket_hashes)
        hashes += sum(h.space_words() for h in self._sign_hashes)
        return self.depth * self.width + hashes


class F2HeavyHitter(StreamingAlgorithm):
    """Single-pass ``phi``-heavy-hitters over ``F_2`` (Theorem 2.10).

    Returns every coordinate with ``a[i]^2 >= phi * F_2(a)`` (with high
    probability) along with a ``(1 +/- 1/2)``-approximate frequency, using
    ``O~(1/phi)`` space.

    Parameters
    ----------
    phi:
        Heaviness threshold (a fraction of ``F_2``).
    depth:
        CountSketch depth.
    seed:
        Randomness for the sketch.
    slack:
        Report margin: candidates are returned when their estimate clears
        ``sqrt(phi * F_2) * slack``.  The default ``0.5`` errs towards
        recall, matching how the paper's callers use the output (they
        re-validate against explicit thresholds).
    domain:
        Size of the coordinate space, for callers that know it: every
        item must lie in ``[0, domain)`` (others raise ``ValueError``).
        The CountSketch table is then the whole state and
        :meth:`peek_heavy_hitters` scores every coordinate, so nothing
        depends on arrival order and scalar, batched and merged runs
        are bit-identical.  The domain is passed to the CountSketch,
        which holds only the ``depth * min(domain, width)`` counters the
        domain can reach (see :class:`CountSketch`); ``space_words``
        still charges the full table.  ``None`` (the default) tracks a
        bounded candidate pool online instead.
    """

    def __init__(
        self,
        phi: float,
        depth: int = 5,
        seed=0,
        slack: float = REPORT_SLACK,
        domain: int | None = None,
    ):
        super().__init__()
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        self.phi = float(phi)
        self.slack = float(slack)
        self.seed = seed
        self.domain = (
            None if domain is None else check_positive_int("domain", domain)
        )
        self._sketch = CountSketch(
            width=heavy_hitter_width(phi),
            depth=depth,
            seed=seed,
            domain=self.domain,
        )
        self.capacity = max(4, int(np.ceil(4.0 / phi)))
        # The open-domain pool prunes on a deterministic token schedule
        # -- every ``prune_period`` arrivals -- rather than on overflow.
        # The schedule depends only on how many tokens the pool has
        # seen, so scalar and batch processing prune at identical stream
        # positions and the pool state is bit-identical however the
        # stream is chunked.  Between prunes at most ``prune_period``
        # new items enter, so the pool stays O(capacity).
        self.prune_period = self.capacity
        self._pool_tokens = 0
        self._candidates: dict[int, float] = {}

    def _process(self, item, count: int = 1) -> None:
        item = int(item)
        # In domain mode the sketch rejects items outside the domain.
        self._sketch.update(item, count)
        if self.domain is not None:
            return
        # Candidate tracking via exact running counts: on insertion-only
        # streams an item's substream frequency is just its arrival count,
        # so a capped counter dict replaces the textbook query-per-update
        # (the CountSketch still provides the final (1 +/- 1/2) estimates
        # in heavy_hitters()).
        self._candidates[item] = self._candidates.get(item, 0) + count
        self._pool_tokens += 1
        if self._pool_tokens % self.prune_period == 0:
            self._prune()

    def _process_batch(self, items: np.ndarray) -> None:
        """Vectorised kernel, bit-identical to the scalar path.

        The CountSketch table is linear, so the batched scatter-add
        reproduces it exactly; in domain mode that is the whole update.
        The open-domain pool prunes at token positions fixed by
        ``prune_period``; when no new candidate can enter (or the pool
        cannot exceed its cap before the chunk ends), the whole chunk
        accumulates in one pass, otherwise the chunk is cut at the
        scheduled prune positions and each window accumulates
        vectorised.  New candidates are inserted in first-arrival order
        because pruning ties break by dict order.
        """
        self._sketch.update_batch(items)
        if self.domain is not None:
            return
        unique, first_seen, counts = _unique_grouped(items)
        new_items = sum(
            1 for item in unique.tolist() if item not in self._candidates
        )
        crosses_boundary = (
            self._pool_tokens % self.prune_period + len(items)
            >= self.prune_period
        )
        if not crosses_boundary or (
            len(self._candidates) + new_items <= self.capacity
        ):
            # No prune fires inside this chunk, or every scheduled
            # prune would be a no-op (the pool cannot outgrow capacity
            # even with every new arrival): one order-free accumulation.
            self._accumulate(unique, first_seen, counts)
            self._pool_tokens += len(items)
            if crosses_boundary:
                self._prune()
            return
        self._replay_windows(items)

    def ingest_unique(self, unique, counts, total_len) -> None:
        """Domain-mode kernel over pre-deduplicated arrivals.

        ``unique`` holds the sorted distinct items of ``total_len``
        arrivals and ``counts`` their multiplicities.  With no pool to
        maintain, the grouped scatter is the whole update, and the state
        is bit-identical to ``process_batch`` on the raw arrivals.
        """
        if self.domain is None:
            raise TypeError(
                "ingest_unique needs a domain-mode F2HeavyHitter (domain=...)"
            )
        self._check_open()
        self._sketch.update_grouped(unique, counts)
        self._tokens_seen += total_len

    def _replay_windows(self, items: np.ndarray) -> None:
        """Window-exact vectorised replay of the prune schedule.

        Cuts ``items`` at the scheduled prune positions, folds each
        window with one grouped accumulation into the pool, held as
        parallel ``(keys, counts)`` arrays looked up by binary search,
        and prunes between complete windows with the same selection
        rule as :meth:`_prune` (count descending, ties to earlier
        insertion) -- so the final pool is bit-identical to the
        per-token reference loop.
        """
        length = len(items)
        if length == 0:
            return
        period = self.prune_period
        offset = self._pool_tokens % period
        window = (offset + np.arange(length, dtype=np.int64)) // period
        stride = int(items.max()) + 1
        uniq, first, cnt = _unique_grouped(window * stride + items)
        item_of = uniq % stride
        num_windows = int(window[-1]) + 1
        bounds = np.searchsorted(
            uniq, np.arange(num_windows + 1, dtype=np.int64) * stride
        ).tolist()
        # Windows 0..n_complete-1 end on a scheduled prune; a final
        # partial window carries its arrivals into the next call.
        n_complete = (length + offset) // period
        pool = self._candidates
        cap = self.capacity
        keys = np.fromiter(pool.keys(), dtype=np.int64, count=len(pool))
        vals = np.fromiter(pool.values(), dtype=np.int64, count=len(pool))
        for index in range(num_windows):
            lo, hi = bounds[index], bounds[index + 1]
            order = np.argsort(first[lo:hi], kind="stable")
            arrivals = item_of[lo:hi][order]
            arrival_counts = cnt[lo:hi][order]
            if len(keys):
                sorter = np.argsort(keys, kind="stable")
                pos = np.searchsorted(keys, arrivals, sorter=sorter)
                pos[pos == len(keys)] = 0
                slots = sorter[pos]
                known = keys[slots] == arrivals
                vals[slots[known]] += arrival_counts[known]
                fresh = ~known
            else:
                fresh = np.ones(len(arrivals), dtype=bool)
            if fresh.any():
                keys = np.concatenate((keys, arrivals[fresh]))
                vals = np.concatenate((vals, arrival_counts[fresh]))
            if index < n_complete and len(keys) > cap:
                selection = np.argsort(-vals, kind="stable")
                keep = np.sort(selection[:cap])
                keys = keys[keep]
                vals = vals[keep]
        self._pool_tokens += length
        self._candidates = dict(zip(keys.tolist(), vals.tolist()))

    def _accumulate(self, unique, first_seen, counts) -> None:
        """Fold deduplicated counts into the pool, first-arrival order."""
        candidates = self._candidates
        # Known items commute, so only genuinely new items need the
        # first-arrival ordering; sorting just those few beats an
        # argsort of the whole batch.
        new_items = []
        for item, position, count in zip(
            unique.tolist(), first_seen.tolist(), counts.tolist()
        ):
            if item in candidates:
                candidates[item] += count
            else:
                new_items.append((position, item, count))
        new_items.sort()
        for _position, item, count in new_items:
            candidates[item] = count

    def _prune(self) -> None:
        """Keep only the ``capacity`` largest current candidates.

        Survivors retain their insertion order (ties in the selection
        break towards earlier insertion, via the stable sort).  Keeping
        the dict order intact makes a prune that evicts nothing a true
        no-op, which is what lets the batch path coalesce whole chunks
        when the pool is not under pressure.
        """
        if len(self._candidates) <= self.capacity:
            return
        keep = {
            item
            for item, _ in sorted(
                self._candidates.items(), key=lambda kv: kv[1], reverse=True
            )[: self.capacity]
        }
        self._candidates = {
            item: count
            for item, count in self._candidates.items()
            if item in keep
        }

    def heavy_hitters(self) -> dict[int, float]:
        """Finalise and return ``{coordinate: approximate frequency}``.

        Contains every ``phi``-heavy coordinate w.h.p.; may contain items
        somewhat below the threshold (callers re-check their own bounds).
        """
        self.finalize()
        return self.peek_heavy_hitters()

    def peek_heavy_hitters(self) -> dict[int, float]:
        """Mid-stream snapshot of :meth:`heavy_hitters` (no finalise).

        A monitoring hook: the single-pass contract is unaffected, the
        pass may continue afterwards.  Domain mode scores all of
        ``[0, domain)`` at once, a superset of what any pool holds, so
        its report contains the open-domain report with equal
        frequencies.
        """
        f2 = self._sketch.f2_estimate()
        if f2 <= 0:
            return {}
        threshold = self.slack * np.sqrt(self.phi * f2)
        if self.domain is not None:
            estimates = self._sketch.query_many(np.arange(self.domain))
            heavy = np.flatnonzero(estimates >= threshold)
            return dict(zip(heavy.tolist(), estimates[heavy].tolist()))
        result = {}
        for item in self._candidates:
            estimate = self._sketch.query(item)
            if estimate >= threshold:
                result[item] = estimate
        return result

    def _require_mergeable(self, other: "F2HeavyHitter") -> None:
        if (
            other.phi != self.phi
            or other.seed != self.seed
            or other.slack != self.slack
            or other.domain != self.domain
        ):
            raise MergeIncompatibleError(
                "can only merge heavy-hitter sketches with identical "
                "seed, phi, slack, and domain"
            )

    def _merge(self, other: "F2HeavyHitter") -> None:
        """Add the tables; reconcile the open-domain pools.

        The CountSketch merges exactly (linear), which in domain mode is
        the whole merge: exact for any shard split and merge order.
        Open-domain candidate counts are exact per-shard arrival counts
        on insertion-only streams, so summing them -- ``self``'s pool
        first, then ``other``'s new items in their arrival order --
        reproduces the single pass's exact counts *and* its
        first-arrival insertion order, provided shards merge in stream
        order.  The combined pool has passed ``pool_tokens //
        prune_period`` scheduled prunes; pruning is a no-op on a pool at
        or below capacity, so one prune at the merged token offset
        restores the schedule's invariant deterministically.  The merged
        pool equals the single pass's only while no scheduled prune ever
        evicts; under eviction pressure it may keep other candidates.
        """
        self._sketch.merge(other._sketch)
        if self.domain is not None:
            return
        for item, count in other._candidates.items():
            self._candidates[item] = self._candidates.get(item, 0) + count
        self._pool_tokens += other._pool_tokens
        self._prune()

    def _state_arrays(self) -> dict:
        state: dict = {}
        if self.domain is None:
            # Keys in dict order: the pool's first-arrival insertion
            # order is part of the state (prune ties break by it).
            state["pool_items"] = np.asarray(
                list(self._candidates.keys()), dtype=np.int64
            )
            state["pool_counts"] = np.asarray(
                list(self._candidates.values()), dtype=np.int64
            )
            state["pool_tokens"] = np.asarray(self._pool_tokens, dtype=np.int64)
        pack_state(state, "sketch", self._sketch.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        if self.domain is None:
            self._candidates = {
                int(item): int(count)
                for item, count in zip(
                    state["pool_items"], state["pool_counts"]
                )
            }
            self._pool_tokens = int(state["pool_tokens"])
        self._sketch.load_state_arrays(unpack_state(state, "sketch"))

    def space_words(self) -> int:
        words = self._sketch.space_words()
        if self.domain is None:
            words += 2 * self.capacity + 2
        return words
