"""CI smoke check: the vectorized engine visibly beats the scalar path.

A deliberately small configuration (seconds, not minutes): time the
scalar reference on a stream prefix, the vectorized engine on the whole
stream, check the rates and that both paths agree bit-for-bit on the
shared prefix -- the same estimate and the same serialised state, array
by array (the fused plan is an execution strategy, never a different
algorithm).  Exits non-zero on any regression; designed to finish well
inside 30 seconds.

Run:  PYTHONPATH=src python benchmarks/smoke_throughput.py
"""

from __future__ import annotations

import sys
import time

from repro import EdgeStream, EstimateMaxCover, StreamRunner, planted_cover
from repro.sketch.serialize import state_difference

N, M, K, ALPHA = 2000, 400, 10, 4.0
PREFIX = 600
MIN_SPEEDUP = 3.0


def main() -> int:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=99)
    stream = EdgeStream.from_system(workload.system, order="random", seed=2)
    set_ids, elements = stream.as_arrays()

    def make() -> EstimateMaxCover:
        return EstimateMaxCover(m=M, n=N, k=K, alpha=ALPHA, seed=7)

    scalar = make()
    start = time.perf_counter()
    for s, e in zip(set_ids[:PREFIX].tolist(), elements[:PREFIX].tolist()):
        scalar.process(s, e)
    scalar_rate = PREFIX / (time.perf_counter() - start)

    vectorized_prefix = make()
    vectorized_prefix.process_batch(set_ids[:PREFIX], elements[:PREFIX])
    if vectorized_prefix.peek_estimate() != scalar.peek_estimate():
        print("FAIL: scalar and vectorized paths disagree on the prefix")
        return 1
    differing = state_difference(
        vectorized_prefix.state_arrays(), scalar.state_arrays()
    )
    if differing is not None:
        print(f"FAIL: scalar and vectorized state differ at {differing!r}")
        return 1

    report = StreamRunner(chunk_size=4096).run(make(), stream)
    speedup = report.tokens_per_sec / scalar_rate
    print(
        f"scalar: {scalar_rate:.0f} tokens/sec ({PREFIX} tokens)\n"
        f"vectorized: {report.tokens_per_sec:.0f} tokens/sec "
        f"({report.tokens} tokens in {report.seconds:.2f}s)\n"
        f"speedup: {speedup:.1f}x (floor {MIN_SPEEDUP}x)"
    )
    if speedup < MIN_SPEEDUP:
        print("FAIL: vectorized speedup below the floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
