"""AMS ("tug-of-war") estimator for the second frequency moment ``F_2``.

The paper's heavy-hitter machinery (Section 2.2) is defined relative to
``F_2(a) = sum_j a[j]^2`` of the superset-size vector, so a standalone
``F_2`` estimator is part of the substrate.  This is the classic sketch of
Alon, Matias and Szegedy [5]: maintain ``r x c`` counters
``Z[i][j] = sum_x sign_{ij}(x) * a[x]`` with 4-wise independent sign
hashes; each ``Z^2`` is an unbiased estimate of ``F_2`` with variance
``<= 2 F_2^2``, and the median of ``r`` means of ``c`` such squares is a
``(1 +/- eps)`` approximation with failure probability ``exp(-r)`` for
``c = O(1/eps^2)``.
"""

from __future__ import annotations

import numpy as np

from repro.base import MergeIncompatibleError, StreamingAlgorithm
from repro.sketch.hashing import SignHash

__all__ = ["F2Sketch"]


class F2Sketch(StreamingAlgorithm):
    """Tug-of-war ``F_2`` estimator on insertion streams.

    Parameters
    ----------
    means:
        Number of independent estimators averaged per group
        (``c = O(1/eps^2)``).
    medians:
        Number of groups whose means are median-combined
        (drives the failure probability down exponentially).
    seed:
        Randomness for the sign hashes.
    """

    def __init__(self, means: int = 16, medians: int = 5, seed=0):
        super().__init__()
        if means < 1 or medians < 1:
            raise ValueError(
                f"means and medians must be >= 1, got {means}, {medians}"
            )
        self.means = int(means)
        self.medians = int(medians)
        self.seed = seed
        rng = np.random.default_rng(seed)
        total = self.means * self.medians
        self._signs = [
            SignHash(seed=rng.integers(0, 2**63)) for _ in range(total)
        ]
        self._counters = np.zeros(total, dtype=np.int64)

    def _process(self, item, count: int = 1) -> None:
        for idx, sign in enumerate(self._signs):
            self._counters[idx] += sign(int(item)) * count

    def _process_batch(self, items: np.ndarray) -> None:
        # Linear sketch: summing per-item signs over the batch is
        # exactly the scalar path.
        unique, counts = np.unique(items, return_counts=True)
        counts = counts.astype(np.int64)
        for idx, sign in enumerate(self._signs):
            self._counters[idx] += int((sign(unique) * counts).sum())

    def estimate(self) -> float:
        """Return the ``F_2`` estimate and finalise the pass."""
        self.finalize()
        squares = self._counters.astype(np.float64) ** 2
        groups = squares.reshape(self.medians, self.means)
        return float(np.median(groups.mean(axis=1)))

    def _require_mergeable(self, other: "F2Sketch") -> None:
        if (
            other.means != self.means
            or other.medians != self.medians
            or other.seed != self.seed
        ):
            raise MergeIncompatibleError(
                "can only merge F2 sketches with identical seed and shape"
            )

    def _merge(self, other: "F2Sketch") -> None:
        # AMS counters are linear in the stream, so sharded counters
        # add: the merged estimate equals a single-stream run exactly.
        self._counters += other._counters

    def _state_arrays(self) -> dict:
        return {"counters": self._counters}

    def _load_state_arrays(self, state: dict) -> None:
        self._counters = np.asarray(
            state["counters"], dtype=np.int64
        ).copy()

    def space_words(self) -> int:
        return len(self._counters) + sum(
            s.space_words() for s in self._signs
        )
