"""Distinct-elements (``L_0`` / count-distinct) sketch.

Implements Theorem 2.12 of the paper: a single-pass algorithm returning a
``(1 +/- eps)``-approximation of ``L_0(a) = |{i : a[i] != 0}|`` in
``O~(1)`` space, on insertion-only streams.  The paper only needs
``eps = 1/2``; the sketch here is accurate to ``eps ~ 1/sqrt(k)`` for a
size-``k`` synopsis.

The construction is the classic KMV ("k minimum values") estimator of
Bar-Yossef et al. [11] with the standard exact-count fallback of BJKST:
items are hashed to ``[0, 1)`` with a ``Theta(log mn)``-wise independent
hash; the sketch keeps the ``k`` smallest distinct hash values.  If fewer
than ``k`` distinct values were ever seen the count is exact; otherwise
``(k - 1) / v_k`` is an unbiased estimate of the number of distinct items,
where ``v_k`` is the ``k``-th smallest normalised hash value.

:class:`KMVBank` holds many such synopses -- one per row of a small id
space, each with its own seeded hash -- in a few flat arrays, so a
caller feeding thousands of ``(row, item)`` pairs per batch pays a fixed
number of numpy passes instead of one sketch object per row.  A caller
that knows which rows and items it can feed has the bank hash those
cells once, into an int32 value table that later batches gather from,
and the bank folds the keys batches keep into its sorted array only when
they outnumber it, or before a read.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    sorted_unique,
)
from repro.engine.plan import TABLE_DOMAIN_CAP
from repro.engine.profile import PROFILER
from repro.sketch.hashing import (
    MERSENNE_P,
    DeferredCoefficients,
    KWiseHash,
    defer_coefficients,
    eval_rows,
)

__all__ = ["L0Sketch", "KMVBank"]

#: Bit offset of the row id in a :class:`KMVBank` key ``row << 31 | value``.
_ROW_SHIFT = 31
_VALUE_MASK = (1 << _ROW_SHIFT) - 1
#: Independence degree of every :class:`KMVBank` row's hash: the
#: :class:`L0Sketch` default.
_BANK_DEGREE = 16
#: A :class:`KMVBank` folds its pending keys once they number more than
#: this and more than its sorted keys.
_FOLD_MIN = 1024


class L0Sketch(StreamingAlgorithm):
    """KMV distinct-elements sketch.

    Parameters
    ----------
    sketch_size:
        Number of minimum hash values retained (``k`` in KMV).  The
        standard error of the estimate is about ``1 / sqrt(sketch_size)``;
        the default 64 gives ~12% error, well inside the ``(1 +/- 1/2)``
        budget of Theorem 2.12.
    degree:
        Independence degree of the hash function.
    seed:
        Randomness for the hash function.
    """

    def __init__(self, sketch_size: int = 64, degree: int = 16, seed=0):
        super().__init__()
        if sketch_size < 2:
            raise ValueError(f"sketch_size must be >= 2, got {sketch_size}")
        self.sketch_size = int(sketch_size)
        self.seed = seed
        self._hash = KWiseHash(MERSENNE_P, degree=degree, seed=seed)
        # Max-heap (via negation) of the smallest hash values seen.
        self._heap: list[int] = []
        self._members: set[int] = set()
        # Lazy hash table over a small item domain: recomputable from
        # the hash seed, so a CPython speed cache outside the space
        # model (like the membership caches elsewhere).
        self._hash_table = None

    def _process(self, item) -> None:
        hv = self._hash(int(item))
        if hv in self._members:
            return
        if len(self._heap) < self.sketch_size:
            self._members.add(hv)
            heapq.heappush(self._heap, -hv)
        elif hv < -self._heap[0]:
            self._members.add(hv)
            self._members.discard(-heapq.heappushpop(self._heap, -hv))

    def _process_batch(self, items: np.ndarray) -> None:
        # Vectorised kernel: hash the whole batch, pre-filter anything
        # that cannot enter the synopsis, insert the survivors.  State
        # matches the scalar path exactly (KMV keeps the k smallest
        # hash values regardless of arrival interleaving).
        self._ingest_hashed(self._hash(items))

    def process_tabulated(self, items: np.ndarray, domain: int) -> None:
        """Batch entry for callers that know ``items < domain``.

        Evaluates the hash once over ``[0, domain)`` and serves every
        subsequent batch by gather -- the same int64 Horner arithmetic,
        so the synopsis is bit-identical to :meth:`process_batch`.
        Domains too large to tabulate fall back to direct hashing.
        """
        self._check_open()
        self._tokens_seen += len(items)
        if domain > (1 << 16):
            self._ingest_hashed(self._hash(items))
            return
        table = self._hash_table
        if table is None or len(table) < domain:
            table = self._hash(np.arange(domain, dtype=np.int64))
            self._hash_table = table
        self._ingest_hashed(table[items])

    def _ingest_hashed(self, raw_hvs: np.ndarray) -> None:
        if PROFILER.enabled:
            t0 = PROFILER.clock()
            try:
                self._ingest_hashed_now(raw_hvs)
            finally:
                PROFILER.add("l0-insert", PROFILER.clock() - t0)
            return
        self._ingest_hashed_now(raw_hvs)

    def _ingest_hashed_now(self, hvs: np.ndarray) -> None:
        if len(self._heap) >= self.sketch_size:
            # Threshold-filter first: once the synopsis is full most
            # hashes are rejected, and filtering a raw array is far
            # cheaper than sorting it.  No dedup pass is needed -- both
            # insert paths below are idempotent per hash value, so the
            # final KMV state (the k smallest distinct values seen) is
            # the same with or without duplicates in ``hvs``.
            hvs = hvs[hvs < -self._heap[0]]
        if len(hvs) == 0:
            return
        if len(hvs) > 32:
            # Large survivor sets: rebuild the synopsis as the k smallest
            # of (current members  ∪  new values) in one sorted pass
            # (``union1d`` dedups internally).  KMV state is exactly
            # that set, so the rebuild is bit-identical to the
            # incremental inserts.
            merged = np.union1d(
                np.fromiter(
                    self._members, dtype=np.int64, count=len(self._members)
                ),
                hvs,
            )[: self.sketch_size]
            self._members = set(merged.tolist())
            self._heap = [-hv for hv in merged.tolist()]
            heapq.heapify(self._heap)
            return
        for hv in hvs:
            hv = int(hv)
            if hv in self._members:
                continue
            if len(self._heap) < self.sketch_size:
                self._members.add(hv)
                heapq.heappush(self._heap, -hv)
            elif hv < -self._heap[0]:
                self._members.add(hv)
                self._members.discard(-heapq.heappushpop(self._heap, -hv))

    def estimate(self) -> float:
        """Return the distinct-count estimate and finalise the pass."""
        self.finalize()
        return self._estimate_live()

    def peek_estimate(self) -> float:
        """Mid-stream snapshot of :meth:`estimate` (no finalise)."""
        return self._estimate_live()

    def _estimate_live(self) -> float:
        """Distinct-count estimate without finalising (internal use)."""
        if len(self._heap) < self.sketch_size:
            return float(len(self._heap))
        v_k = (-self._heap[0]) / MERSENNE_P
        return (self.sketch_size - 1) / v_k

    def _require_mergeable(self, other: "L0Sketch") -> None:
        if other.sketch_size != self.sketch_size or other.seed != self.seed:
            raise MergeIncompatibleError(
                "can only merge L0 sketches with identical seed and size"
            )

    def _merge(self, other: "L0Sketch") -> None:
        # KMV synopses are mergeable: the union's ``k`` smallest hash
        # values equal the ``k`` smallest of the two synopses' union --
        # so merged estimates match a single-stream run exactly.  This
        # is what makes the paper's algorithms distributable across
        # stream shards.
        merged = self._members | other._members
        smallest = heapq.nsmallest(self.sketch_size, merged)
        self._members = set(smallest)
        self._heap = [-hv for hv in smallest]
        heapq.heapify(self._heap)

    def _state_arrays(self) -> dict:
        return {
            "heap": np.asarray(
                sorted(-v for v in self._heap), dtype=np.int64
            )
        }

    def _load_state_arrays(self, state: dict) -> None:
        heap = np.asarray(state["heap"])
        if heap.ndim != 1 or (heap.size and heap.dtype.kind not in "iu"):
            raise ValueError(
                "L0Sketch heap must be a 1-D integer array, got "
                f"{heap.dtype} {heap.shape}"
            )
        if len(heap) > self.sketch_size:
            raise ValueError(
                f"L0Sketch heap holds {len(heap)} values, more than "
                f"sketch_size={self.sketch_size}"
            )
        if heap.size and (heap.min() < 0 or heap.max() >= MERSENNE_P):
            raise ValueError(
                f"L0Sketch heap has a value outside [0, {MERSENNE_P})"
            )
        if np.any(heap[1:] <= heap[:-1]):
            raise ValueError("L0Sketch heap values must strictly increase")
        values = heap.tolist()
        self._members = set(values)
        self._heap = [-v for v in values]
        heapq.heapify(self._heap)

    def space_words(self) -> int:
        return len(self._heap) + self._hash.space_words() + 1


class KMVBank(DeferredCoefficients):
    """KMV synopses for the rows ``[0, rows)``, stacked into arrays.

    Row ``r`` is the synopsis a standalone
    ``L0Sketch(sketch_size, seed=(seed + r) & (2**63 - 1))`` fed
    the same items would hold: its ``sketch_size`` smallest distinct
    hash values, for the same estimate.  Rows hold values only once
    their first item arrives.

    The state is one sorted, duplicate-free int64 array of keys
    ``row << 31 | value`` (hash values lie in ``[0, 2^31 - 1)``), so the
    rows sit in id order and a row's values ascend.  A per-row threshold
    -- the row's largest kept value once it is full -- pre-filters items
    that cannot enter.  Every row's hash coefficients sit in a
    ``(rows, 16)`` matrix derived at construction, in the enclosing
    :func:`~repro.sketch.hashing.coefficient_batch` when there is one.

    A batch of items is hashed with one Horner pass over coefficients
    gathered per item, or, once :meth:`tabulate` has hashed every cell a
    caller can feed, gathered from that table.  The keys a batch keeps
    wait in a pending list and are folded into the sorted keys only when
    they outnumber them (and at least :data:`_FOLD_MIN` wait), and before
    every read, merge and scalar insert.  A threshold that is stale
    until the fold only lets extra keys through, and KMV keeps the ``k``
    smallest distinct values whatever the arrival order or batching, so
    the bank is bit-identical to the per-row sketches.

    Parameters
    ----------
    rows:
        Size of the row-id space.
    sketch_size:
        Values kept per row (``k`` in KMV).
    seed:
        Base seed; row ``r`` hashes with seed ``(seed + r) & (2**63 - 1)``.
    """

    def __init__(self, rows: int, sketch_size: int, seed):
        if not 1 <= rows <= 1 << 32:
            raise ValueError(f"rows must be in [1, 2^32], got {rows}")
        if sketch_size < 2:
            raise ValueError(f"sketch_size must be >= 2, got {sketch_size}")
        self.rows = int(rows)
        self.sketch_size = int(sketch_size)
        self.seed = int(seed)
        self._keys = np.empty(0, dtype=np.int64)
        # Kept keys not yet folded into _keys, and their total length.
        self._pending: list[np.ndarray] = []
        self._pending_size = 0
        # A value enters row r only below _threshold[r]; no hash value
        # reaches MERSENNE_P, so a row that is not full takes anything.
        self._threshold = np.full(self.rows, MERSENNE_P, dtype=np.int64)
        # The scalar path's per-row hashes, built when a row is first fed.
        self._hashes: dict[int, KWiseHash] = {}
        # (table, row starts, item slots) from tabulate(): recomputable
        # from the coefficients, so a speed cache outside the state and
        # the space model, like the plan's domain tables.
        self._cells = None
        # (seed + r) & (2^63 - 1), from the seed's low 63 bits: no
        # uint64 overflow for any row count up to 2^32.
        seeds = (
            np.arange(self.rows, dtype=np.uint64)
            + np.uint64(self.seed & (2**63 - 1))
        ) & np.uint64(2**63 - 1)
        defer_coefficients(self, (seeds.tolist(), _BANK_DEGREE))

    def _fill(self, coeffs) -> None:
        self._coeffs = coeffs

    def _row_hash(self, row: int) -> KWiseHash:
        hash_ = self._hashes.get(row)
        if hash_ is None:
            hash_ = KWiseHash(
                MERSENNE_P,
                degree=_BANK_DEGREE,
                seed=(self.seed + row) & (2**63 - 1),
            )
            self._hashes[row] = hash_
        return hash_

    def tabulate(self, rows: np.ndarray, items: np.ndarray) -> bool:
        """Hash every cell ``(row, item)`` of ``rows x items`` once.

        ``rows`` and ``items`` are duplicate-free int64 ids.
        One :func:`~repro.sketch.hashing.eval_rows` call fills an
        ``(len(rows), len(items))`` int32 value table, and int32 slot
        maps place a row id (at its row's first cell) and an item id (at
        its column) in it.  Returns whether the table exists: above
        ``TABLE_DOMAIN_CAP`` cells the bank keeps hashing.  Once it
        does, :meth:`insert` with ``tabulated=True`` gathers each pair's
        value, every pair being a cell.
        """
        if len(rows) * len(items) > TABLE_DOMAIN_CAP:
            return False
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        table = eval_rows(self._coeffs[rows], MERSENNE_P, items)
        row_starts = np.zeros(self.rows, dtype=np.int32)
        row_starts[rows] = np.arange(len(rows)) * len(items)
        item_slots = np.zeros(int(items.max(initial=-1)) + 1, dtype=np.int32)
        item_slots[items] = np.arange(len(items))
        self._cells = (table.astype(np.int32), row_starts, item_slots)
        if profiling:
            PROFILER.add("kmv-insert", PROFILER.clock() - t0)
        return True

    def insert(
        self, rows: np.ndarray, items: np.ndarray, tabulated: bool = False
    ) -> None:
        """Feed ``items[j]`` to row ``rows[j]`` for every ``j``.

        Both arrays are int64 and of equal length; rows lie in
        ``[0, rows)``.  ``tabulated`` promises that every pair is a cell
        of the last :meth:`tabulate` call, whose table then serves the
        values when it exists.
        """
        if not len(rows):
            return
        if PROFILER.enabled:
            t0 = PROFILER.clock()
            try:
                self._insert_now(rows, items, tabulated)
            finally:
                PROFILER.add("kmv-insert", PROFILER.clock() - t0)
            return
        self._insert_now(rows, items, tabulated)

    def _insert_now(self, rows, items, tabulated) -> None:
        if tabulated and self._cells is not None:
            table, row_starts, item_slots = self._cells
            values = table.reshape(-1).take(
                row_starts.take(rows) + item_slots.take(items)
            )
        else:
            # KWiseHash's Horner recurrence, each item under its own
            # row's coefficients.  Residues stay below 2^31, so products
            # fit int64.
            coeffs = self._coeffs[rows].T.copy()
            xs = items % MERSENNE_P
            values = coeffs[0]
            for j in range(1, _BANK_DEGREE):
                values *= xs
                values += coeffs[j]
                values %= MERSENNE_P
        keep = values < self._threshold[rows]
        keys = (rows[keep] << _ROW_SHIFT) | values[keep]
        if not len(keys):
            return
        self._pending.append(keys)
        self._pending_size += len(keys)
        if self._pending_size > max(len(self._keys), _FOLD_MIN):
            self._fold()

    def _fold(self) -> None:
        """Absorb the pending keys into the sorted keys."""
        if self._pending:
            pending = self._pending
            self._pending, self._pending_size = [], 0
            self._absorb(np.concatenate(pending))

    def insert_one(self, row: int, item: int) -> None:
        """Scalar :meth:`insert`, hashing with the row's own
        :class:`KWiseHash` scalar call (the reference path).

        The key lands at its sorted position, touching only its row:
        a full row shifts its larger values up in place and drops its
        largest, and only a row that is not yet full grows the array.
        """
        self._fold()
        value = self._row_hash(row)(item)
        if value >= self._threshold[row]:
            return
        keys = self._keys
        key = (row << _ROW_SHIFT) | value
        start, at, end = np.searchsorted(
            keys, (row << _ROW_SHIFT, key, (row + 1) << _ROW_SHIFT)
        )
        if at < end and keys[at] == key:
            return
        if end - start == self.sketch_size:
            keys[at + 1 : end] = keys[at : end - 1]
            keys[at] = key
        else:
            keys = self._keys = np.insert(keys, at, key)
            end += 1
        if end - start == self.sketch_size:
            self._threshold[row] = keys[end - 1] & _VALUE_MASK

    def _absorb(self, keys: np.ndarray) -> None:
        """Union ``keys`` into the bank and keep each row's smallest."""
        if not len(keys):
            return
        merged = sorted_unique(np.concatenate((self._keys, keys)))
        rows = merged >> _ROW_SHIFT
        rank = np.arange(len(merged)) - np.searchsorted(rows, rows)
        if rank.max() >= self.sketch_size:
            kept = rank < self.sketch_size
            merged, rows, rank = merged[kept], rows[kept], rank[kept]
        self._keys = merged
        full = rank == self.sketch_size - 1
        self._threshold[rows[full]] = merged[full] & _VALUE_MASK

    def _groups(self):
        """``(row ids, counts, last positions)`` of the non-empty rows,
        after folding the pending keys."""
        self._fold()
        rows = self._keys >> _ROW_SHIFT
        if not len(rows):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        last = np.flatnonzero(np.append(rows[1:] != rows[:-1], True))
        counts = np.diff(last, prepend=-1)
        return rows[last], counts, last

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row ids, estimates)`` of the non-empty rows, ascending by id.

        Each estimate is the float :meth:`L0Sketch.peek_estimate` returns
        for that row: the exact count below ``sketch_size`` values,
        ``(k - 1) / v_k`` at it.
        """
        ids, counts, last = self._groups()
        values = counts.astype(np.float64)
        full = counts == self.sketch_size
        kth = (self._keys[last[full]] & _VALUE_MASK) / MERSENNE_P
        values[full] = (self.sketch_size - 1) / kth
        return ids, values

    def merge(self, other: "KMVBank") -> None:
        """Absorb ``other``'s rows: each row keeps the ``k`` smallest of
        the union, the single pass's synopsis."""
        if (
            other.rows != self.rows
            or other.sketch_size != self.sketch_size
            or other.seed != self.seed
        ):
            raise MergeIncompatibleError(
                "can only merge KMV banks with identical rows, size and seed"
            )
        self._fold()
        other._fold()
        self._absorb(other._keys)

    def state_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row ids, counts, values)``: the non-empty rows ascending, the
        number of values each holds, and every row's values ascending,
        concatenated in row order."""
        ids, counts, _last = self._groups()
        return ids, counts, self._keys & _VALUE_MASK

    def load_state_arrays(self, ids, counts, values) -> None:
        """Restore :meth:`state_arrays`, dropping any pending keys;
        ``ValueError`` on malformed input."""
        arrays = {"ids": ids, "counts": counts, "values": values}
        for name, array in arrays.items():
            array = np.asarray(array)
            if array.ndim != 1 or (
                array.size and array.dtype.kind not in "iu"
            ):
                raise ValueError(
                    f"KMV bank {name} must be a 1-D integer array, got "
                    f"{array.dtype} {array.shape}"
                )
            arrays[name] = array.astype(np.int64)
        ids, counts, values = arrays.values()
        if len(ids) != len(counts) or counts.sum() != len(values):
            raise ValueError(
                f"KMV bank shapes disagree: {len(ids)} rows, {len(counts)} "
                f"counts, {len(values)} values"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.rows):
            raise ValueError(f"KMV bank row id outside [0, {self.rows})")
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("KMV bank row ids must strictly increase")
        if counts.size and (
            counts.min() < 1 or counts.max() > self.sketch_size
        ):
            raise ValueError(
                f"KMV bank row holds a count outside [1, {self.sketch_size}]"
            )
        if values.size and (values.min() < 0 or values.max() >= MERSENNE_P):
            raise ValueError(f"KMV bank value outside [0, {MERSENNE_P})")
        keys = (np.repeat(ids, counts) << _ROW_SHIFT) | values
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("KMV bank row values must strictly increase")
        self._keys = keys
        self._pending, self._pending_size = [], 0
        self._threshold[:] = MERSENNE_P
        ends = np.cumsum(counts) - 1
        full = counts == self.sketch_size
        self._threshold[ids[full]] = values[ends[full]]

    def space_words(self) -> int:
        """Kept values plus each non-empty row's hash and size word, as
        the per-row :class:`L0Sketch`es would charge."""
        rows = len(self._groups()[0])
        return len(self._keys) + rows * (_BANK_DEGREE + 1)
