"""CI smoke check: every shard-pool submission equals the single pass.

Runs the same stream ``RUNS`` times through one resident
``PersistentShardExecutor`` with real worker processes, and requires:

* **bit-identical state** -- every submission's merged
  ``state_arrays`` must equal the single pass's
  (``repro.sketch.serialize.state_difference`` comes back empty), and
  its estimate and ``tokens_seen`` must match.  The first submission
  runs on the workers' start-up algorithms, every later one on the
  algorithms they rebuilt after the previous collect;
* **scaling** (only on >= 4 CPU machines) -- steady-state throughput
  must reach ``workers / 2`` times the single-pass rate; skipped with
  a message, not failed, on smaller boxes.

Exits non-zero on any violation; designed to finish inside a minute.

Run:  PYTHONPATH=src python benchmarks/smoke_persistent_pool.py
"""

from __future__ import annotations

import os
import sys
from functools import partial

from repro import (
    EdgeStream,
    EstimateMaxCover,
    PersistentShardExecutor,
    StreamRunner,
    planted_cover,
)
from repro.sketch.serialize import state_difference

N, M, K, ALPHA = 300, 150, 6, 3.0
WORKERS = 2
RUNS = 4


def main() -> int:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=11)
    stream = EdgeStream.from_system(workload.system, order="random", seed=7)
    factory = partial(EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7)

    single = factory()
    single_report = StreamRunner(chunk_size=512).run(single, stream)
    single_state = single.state_arrays()
    single_value = single.estimate()

    steady_state = 0.0
    with PersistentShardExecutor(
        factory, workers=WORKERS, chunk_size=512, backend="process"
    ) as pool:
        for run in range(RUNS):
            merged, report = pool.run(stream)
            difference = state_difference(merged.state_arrays(), single_state)
            if difference is not None:
                print(f"FAIL: run {run} state differs: {difference}")
                return 1
            if merged.tokens_seen != single.tokens_seen:
                print(f"FAIL: run {run} token count differs")
                return 1
            if merged.estimate() != single_value:
                print(f"FAIL: run {run} estimate differs")
                return 1
            if run > 0:
                steady_state = max(steady_state, report.tokens_per_sec)

    print(
        f"{RUNS} runs x {WORKERS} workers on {len(stream)} edges\n"
        f"single-pass estimate: {single_value!r}\n"
        f"steady state: {steady_state:.0f} tokens/sec "
        f"(single pass {single_report.tokens_per_sec:.0f})\n"
        f"state: bit-identical to the single pass on every run"
    )

    cpus = os.cpu_count() or 1
    if cpus >= 4:
        required = (WORKERS / 2.0) * single_report.tokens_per_sec
        if steady_state < required:
            print(
                f"FAIL: steady state {steady_state:.0f} tokens/sec below "
                f"{required:.0f} (workers/2 x single pass) on a "
                f"{cpus}-core machine"
            )
            return 1
        print(f"scaling: OK (>= workers/2 x single pass on {cpus} cores)")
    else:
        print(
            f"scaling check skipped: needs >= 4 CPUs, machine has {cpus}"
        )
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
