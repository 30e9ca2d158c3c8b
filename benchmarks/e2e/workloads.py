"""The benchmark's four workloads: inputs, algorithms and answer checks.

Every workload is a closed loop with one client, which is how
``repro estimate`` and ``repro report`` are used: a repetition
constructs the algorithm, runs the single pass, and finalises; the
next repetition starts only when the answer is back.

``--seed S`` drives the arrival order (order seed ``2 + S``).  The
``planted_cover`` instance (generator seed 99) and the algorithm seed
(7) are fixed: the answer and ``space_words()`` depend only on the edge
multiset and the algorithm seed, so every seed gives the same answer,
space and, to within 1% of call counts, the same work, in another
order.  Varying the instance or the algorithm seed instead moves the
estimate, and with it ``opt_ratio``, by up to 25% between seeds.
``S = 0`` is the ROADMAP reference pass exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

GENERATOR_SEED = 99
ORDER_SEED = 2
ALGORITHM_SEED = 7
CHUNK_SIZE = 4096
COVERAGE_FRAC = 0.9


@dataclass(frozen=True)
class Workload:
    """One named workload; ``BENCHMARK.json`` and the README say why each
    exists.

    ``shape`` is ``(n, m, k)`` of the ``planted_cover`` instance and
    ``quick_shape`` its roughly tenfold smaller self-check twin.
    ``kind`` is ``"estimate"`` (``EstimateMaxCover`` through
    ``StreamRunner``), ``"report"`` (``MaxCoverReporter`` through
    ``StreamRunner``) or ``"sharded"`` (``EstimateMaxCover`` through a
    two-worker ``PersistentShardExecutor``).
    """

    name: str
    shape: tuple
    quick_shape: tuple
    alpha: float
    kind: str

    def dims(self, quick: bool) -> tuple:
        return self.quick_shape if quick else self.shape


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", (4000, 400, 10), (1000, 200, 10), 4.0, "estimate"),
        Workload("high_alpha", (4000, 400, 10), (1000, 200, 10), 16.0, "estimate"),
        Workload("report_wide", (20000, 2000, 25), (6000, 600, 25), 4.0, "report"),
        Workload("sharded_2w", (4000, 400, 10), (1000, 200, 10), 4.0, "sharded"),
    )
}


def generate(workload: Workload, seed: int, quick: bool):
    """``(system, stream)`` for the workload at ``seed`` (never timed)."""
    from repro import EdgeStream
    from repro.streams.generators import planted_cover

    n, m, k = workload.dims(quick)
    planted = planted_cover(
        n=n,
        m=m,
        k=k,
        coverage_frac=COVERAGE_FRAC,
        seed=GENERATOR_SEED,
    )
    stream = EdgeStream.from_system(
        planted.system, order="random", seed=ORDER_SEED + seed
    )
    return planted.system, stream


def factory(workload: Workload, quick: bool):
    """Zero-argument constructor of the workload's algorithm."""
    from functools import partial

    from repro.core.estimate import EstimateMaxCover
    from repro.core.reporting import MaxCoverReporter

    n, m, k = workload.dims(quick)
    cls = MaxCoverReporter if workload.kind == "report" else EstimateMaxCover
    return partial(cls, m=m, n=n, k=k, alpha=workload.alpha, seed=ALGORITHM_SEED)


def check_answers(workload, reps, system, greedy, k, reference=None) -> list:
    """Failure message per repetition (``None`` when it passed).

    Estimators: the estimate is positive, ``greedy / estimate <= 3
    alpha`` and every repetition returns the same estimate (on
    ``sharded_2w``: the single-pass ``reference`` estimate).  Reporter:
    at most ``k`` distinct ids, all in ``[0, m)``, whose true coverage is
    at least ``greedy / (10 alpha)``.
    """
    alpha = workload.alpha
    expected = reference
    messages = []
    for rep in reps:
        if rep.get("error"):
            messages.append(rep["error"])
            continue
        answer = rep["answer"]
        if workload.kind == "report":
            ids = [int(i) for i in answer]
            if len(set(ids)) > k:
                messages.append(f"{len(set(ids))} distinct ids > k={k}")
            elif any(not 0 <= i < system.m for i in ids):
                messages.append(f"set id outside [0, {system.m})")
            elif system.coverage(ids) * 10 * alpha < greedy:
                messages.append(
                    f"coverage {system.coverage(ids)} < greedy {greedy} / "
                    f"(10 alpha)"
                )
            else:
                messages.append(None)
            continue
        if expected is None:
            expected = answer
        if answer <= 0:
            messages.append(f"estimate {answer} is not positive")
        elif greedy > 3 * alpha * answer:
            messages.append(
                f"greedy / estimate = {greedy / answer:.3f} > 3 alpha"
            )
        elif answer != expected:
            messages.append(f"estimate {answer} != {expected}")
        else:
            messages.append(None)
    return messages


def opt_ratio(workload, answer, system, greedy) -> float:
    """Lazy-greedy coverage over the estimate (or reported coverage)."""
    if workload.kind == "report":
        return greedy / max(1, system.coverage([int(i) for i in answer]))
    return greedy / answer
