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
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.base import MergeIncompatibleError, StreamingAlgorithm
from repro.engine.profile import PROFILER
from repro.sketch.hashing import MERSENNE_P, KWiseHash

__all__ = ["L0Sketch"]


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
        values = [int(v) for v in state["heap"]]
        self._members = set(values)
        self._heap = [-v for v in values]
        heapq.heapify(self._heap)

    def space_words(self) -> int:
        return len(self._heap) + self._hash.space_words() + 1
