"""Experiment E13 -- sharded executor scaling over mergeable sketches.

Times ``PersistentShardExecutor`` at 1/2/4 workers on the acceptance
configuration (``m=1000, n=10000, alpha=4``) and records realised
tokens/sec plus speedup over the single-worker pool.  Each pool is
measured at steady state: the best of ``PERSISTENT_REPEATS``
submissions through one resident pool, so the one-time worker start is
amortised out, which is the executor's point.

The merged estimate must agree with the plain single-pass vectorized
run (checked numerically here; the bit-identical guarantee against the
scalar reference lives in ``tests/test_shard_equivalence.py`` and
``tests/test_persistent_executor.py``).

The speedup assertion is gated on the machine actually having cores:
sharding cannot beat 1x on a single-CPU box, and the table records
``cpu_count`` so results stay honest about the hardware they came from.
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro import EdgeStream, PersistentShardExecutor, StreamRunner
from repro.bench import ResultTable
from repro.core.estimate import EstimateMaxCover

N, M, K, ALPHA = 10000, 1000, 25, 4.0
WORKER_COUNTS = (1, 2, 4)
PERSISTENT_REPEATS = 3


@pytest.fixture(scope="module")
def stream() -> EdgeStream:
    from repro.streams.generators import planted_cover

    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=99)
    return EdgeStream.from_system(workload.system, order="random", seed=2)


def test_shard_scaling_table(stream, save_table):
    factory = partial(
        EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7
    )

    single = factory()
    single_report = StreamRunner(chunk_size=4096).run(single, stream)
    single_value = single.estimate()

    cpus = os.cpu_count() or 1
    table = ResultTable(
        ["executor", "workers", "seconds", "tokens/sec", "speedup", "estimate"],
        title=f"E13: sharded scaling on {len(stream)} edges "
        f"(m={M}, n={N}, alpha={ALPHA:g}, cpu_count={cpus})",
    )
    table.add_row(
        "single-pass",
        1,
        round(single_report.seconds, 2),
        int(single_report.tokens_per_sec),
        "",
        round(single_value, 1),
    )

    throughput: dict[int, float] = {}
    baseline_seconds = None
    for workers in WORKER_COUNTS:
        with PersistentShardExecutor(
            factory, workers=workers, chunk_size=4096
        ) as pool:
            best = None
            for _ in range(PERSISTENT_REPEATS):
                merged, report = pool.run(stream)
                if best is None or report.seconds < best.seconds:
                    best = report
        value = merged.estimate()
        throughput[workers] = best.tokens_per_sec
        if baseline_seconds is None:
            baseline_seconds = best.seconds
        table.add_row(
            "persistent",
            workers,
            round(best.seconds, 2),
            int(best.tokens_per_sec),
            round(baseline_seconds / best.seconds, 2),
            round(value, 1),
        )
        assert value == pytest.approx(single_value, rel=0.1)

    save_table("shard_scaling", table)

    if cpus >= 4:
        assert throughput[4] >= 2.0 * throughput[1], (
            "expected >= 2x steady-state tokens/sec at 4 persistent "
            f"workers on a {cpus}-core machine"
        )
    else:
        pytest.skip(
            f"scaling assertion needs >= 4 CPUs, machine has {cpus} "
            "(honest numbers recorded in the table)"
        )
