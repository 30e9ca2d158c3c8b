"""CI smoke check: the array-backend layer is free on numpy and exact on
torch.

Two gates, deliberately small (seconds, not minutes):

* **No numpy-path regression.**  Routing every kernel through
  :class:`repro.engine.backend.ArrayBackend` must not tax the host hot
  path: the backend-routed vectorized pass still has to beat the scalar
  reference by ``MIN_SPEEDUP`` on the same machine (the same relative
  gate ``smoke_throughput.py`` enforced before the backend layer
  existed).
* **Cross-backend bit-identity (torch).**  When torch is importable,
  the same stream replayed under ``--backend torch-cpu`` must serialise
  to exactly the bytes of the numpy run and report the same estimate.

When torch is absent its gate is skipped gracefully -- backends are
optional, correctness gates are not.

Exits non-zero on any regression; designed to finish well inside a
minute.

Run:  PYTHONPATH=src python benchmarks/smoke_backend.py
"""

from __future__ import annotations

import sys
import time

from repro import EdgeStream, EstimateMaxCover, StreamRunner, planted_cover
from repro.engine.backend import available_backends, torch_available
from repro.sketch.serialize import state_difference

N, M, K, ALPHA = 2000, 400, 10, 4.0
PREFIX = 600
MIN_SPEEDUP = 3.0


def _make() -> EstimateMaxCover:
    return EstimateMaxCover(m=M, n=N, k=K, alpha=ALPHA, seed=7)


def main() -> int:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=99)
    stream = EdgeStream.from_system(workload.system, order="random", seed=2)
    set_ids, elements = stream.as_arrays()

    # Gate 1: the backend-routed numpy pass still beats the scalar
    # reference -- the abstraction layer costs nothing measurable.
    scalar = _make()
    start = time.perf_counter()
    for s, e in zip(set_ids[:PREFIX].tolist(), elements[:PREFIX].tolist()):
        scalar.process(s, e)
    scalar_rate = PREFIX / (time.perf_counter() - start)

    numpy_algo = _make()
    numpy_report = StreamRunner(
        chunk_size=4096, array_backend="numpy"
    ).run(numpy_algo, stream)
    speedup = numpy_report.tokens_per_sec / scalar_rate
    print(
        f"scalar: {scalar_rate:.0f} tokens/sec ({PREFIX} tokens)\n"
        f"numpy backend: {numpy_report.tokens_per_sec:.0f} tokens/sec "
        f"({numpy_report.tokens} tokens in {numpy_report.seconds:.2f}s, "
        f"backend={numpy_report.backend})\n"
        f"speedup: {speedup:.1f}x (floor {MIN_SPEEDUP}x)"
    )
    if numpy_report.backend != "numpy":
        print("FAIL: runner did not record the numpy backend")
        return 1
    if speedup < MIN_SPEEDUP:
        print("FAIL: numpy path through the backend layer below the floor")
        return 1

    # Gate 2: torch-cpu serialises to the numpy run's exact bytes.
    if not torch_available():
        print(
            "skipped: torch not installed -- cross-backend bit-identity "
            f"not checked (available: {', '.join(available_backends())})"
        )
    else:
        torch_algo = _make()
        torch_report = StreamRunner(
            chunk_size=4096, array_backend="torch-cpu"
        ).run(torch_algo, stream)
        print(
            f"torch-cpu backend: {torch_report.tokens_per_sec:.0f} "
            f"tokens/sec ({torch_report.tokens} tokens in "
            f"{torch_report.seconds:.2f}s, backend={torch_report.backend})"
        )
        # Same chunking on both sides, so no key is order-free here.
        differing = state_difference(
            torch_algo.state_arrays(), numpy_algo.state_arrays(),
            order_free=(),
        )
        if differing is not None:
            print(f"FAIL: torch-cpu and numpy state differ at {differing!r}")
            return 1
        if torch_algo.estimate() != numpy_algo.estimate():
            print("FAIL: torch-cpu and numpy estimates disagree")
            return 1
        print("torch-cpu state byte-identical to numpy")

    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
