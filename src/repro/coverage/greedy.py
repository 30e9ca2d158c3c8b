"""Offline greedy algorithms for Max k-Cover.

The classic greedy algorithm [35] picks, ``k`` times, the set with the
largest marginal coverage; it guarantees a ``(1 - 1/e)`` fraction of the
optimum, which is tight under ``P != NP`` [23].  The paper uses it in two
roles that we mirror:

* the offline solver applied to the small sub-instances stored by
  ``SmallSet`` (Figure 5) and by the element-sampling baselines;
* the full-memory reference point for every benchmark.

Three solvers return the same :class:`GreedyResult` (ties broken by
smaller set id):

* :func:`greedy_max_cover` -- plain greedy over a :class:`SetSystem`,
  the obviously-correct reference the other two are tested against;
* :func:`lazy_greedy` -- the standard accelerated variant: marginal
  gains are only re-evaluated when a stale heap entry surfaces,
  exploiting submodularity (gains never increase).  The CLI, the
  baselines and the diagnostics solve with it;
* :func:`array_greedy` -- plain greedy on a sorted edge array, with
  every gain update one ``np.bincount``.  ``SmallSet`` solves its
  stored sub-instances with it, straight from their packed edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.coverage.setsystem import SetSystem

__all__ = ["GreedyResult", "array_greedy", "greedy_max_cover", "lazy_greedy"]


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy run.

    Attributes
    ----------
    chosen:
        Selected set ids, in pick order.
    coverage:
        Number of elements the selection covers.
    gains:
        Marginal coverage of each pick, in pick order (non-increasing).
    """

    chosen: tuple[int, ...]
    coverage: int
    gains: tuple[int, ...]


def greedy_max_cover(system: SetSystem, k: int) -> GreedyResult:
    """Plain greedy: ``k`` passes, each scanning every set.

    ``O(k * total_size)`` time; kept as the obviously-correct reference
    implementation that :func:`lazy_greedy` is tested against.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    covered: set[int] = set()
    chosen: list[int] = []
    gains: list[int] = []
    remaining = set(range(system.m))
    for _ in range(min(k, system.m)):
        best_id, best_gain = -1, 0
        for j in sorted(remaining):
            gain = len(system.set_contents(j) - covered)
            if gain > best_gain:
                best_id, best_gain = j, gain
        if best_id < 0:
            break
        chosen.append(best_id)
        gains.append(best_gain)
        covered |= system.set_contents(best_id)
        remaining.discard(best_id)
    return GreedyResult(tuple(chosen), len(covered), tuple(gains))


def lazy_greedy(system: SetSystem, k: int) -> GreedyResult:
    """Lazy greedy with a max-heap of (possibly stale) marginal gains.

    Produces the same selection as :func:`greedy_max_cover` (ties broken
    by smaller set id) in near-linear time on typical instances.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    covered: set[int] = set()
    chosen: list[int] = []
    gains: list[int] = []
    # Heap of (-gain, set_id, epoch gain was computed at).
    heap = [(-system.set_size(j), j, 0) for j in range(system.m)]
    heapq.heapify(heap)
    epoch = 0
    while heap and len(chosen) < k:
        neg_gain, j, stamp = heapq.heappop(heap)
        if stamp < epoch:
            fresh = len(system.set_contents(j) - covered)
            heapq.heappush(heap, (-fresh, j, epoch))
            continue
        if neg_gain == 0:
            break
        chosen.append(j)
        gains.append(-neg_gain)
        covered |= system.set_contents(j)
        epoch += 1
    return GreedyResult(tuple(chosen), len(covered), tuple(gains))


def array_greedy(set_ids, elements, k: int) -> GreedyResult:
    """Plain greedy on parallel ``(set_id, element)`` edge arrays.

    The edges must be sorted by ``(set_id, element)`` with no repeated
    pair, as a sorted array of distinct packed ``set_id * n + element``
    ints splits into under ``np.divmod``.  The result equals
    ``lazy_greedy(SetSystem.from_edges(pairs), k)``: the same picks with
    ties going to the smaller set id, the same gains, and a stop once no
    set gains anything.

    Gains start as the per-set run lengths.  Each pick is one
    ``argmax`` (the first maximum is the smallest id), one mark of the
    newly covered elements and one ``np.bincount`` that subtracts them
    from every set's gain, so the cost is ``O(k * E)`` array work with
    no per-edge Python.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    set_ids = np.asarray(set_ids, dtype=np.int64)
    elements = np.asarray(elements, dtype=np.int64)
    if set_ids.ndim != 1 or set_ids.shape != elements.shape:
        raise ValueError(
            "set_ids and elements must be 1-D arrays of equal length, got "
            f"shapes {set_ids.shape} and {elements.shape}"
        )
    if set_ids.size == 0 or k == 0:
        return GreedyResult((), 0, ())
    if set_ids[0] < 0 or elements.min() < 0:
        raise ValueError("set ids and elements must be non-negative")
    m = int(set_ids[-1]) + 1
    gains = np.bincount(set_ids, minlength=m)
    ends = np.cumsum(gains)
    starts = ends - gains
    covered = np.zeros(int(elements.max()) + 1, dtype=np.bool_)
    newly = np.zeros_like(covered)
    chosen: list[int] = []
    picked: list[int] = []
    for _ in range(k):
        best = int(np.argmax(gains))
        gain = int(gains[best])
        if gain == 0:
            break
        block = elements[starts[best]:ends[best]]
        fresh = block[~covered[block]]
        covered[fresh] = True
        newly[fresh] = True
        gains -= np.bincount(set_ids[newly[elements]], minlength=m)
        newly[fresh] = False
        chosen.append(best)
        picked.append(gain)
    return GreedyResult(tuple(chosen), sum(picked), tuple(picked))
