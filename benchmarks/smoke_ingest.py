"""CI smoke check: the binary/mmap/shared-dispatch pipeline is lossless.

Exercises the whole zero-copy ingest path at CI scale: generate a
stream, write it as text, convert to the columnar binary via the CLI,
memory-map it back, run a 2-worker sharded estimate over the mmap
dispatch path, and require the answer to be *bit-identical* to the
scalar reference pass over the text file.  Also asserts the dispatch
payload stayed O(1) (descriptors, not data).  Exits non-zero on any
mismatch; designed to finish well inside 30 seconds.

Run:  PYTHONPATH=src python benchmarks/smoke_ingest.py
"""

from __future__ import annotations

import sys
import tempfile
from functools import partial
from pathlib import Path

from repro import (
    EdgeStream,
    EstimateMaxCover,
    PersistentShardExecutor,
    StreamRunner,
    planted_cover,
)
from repro.cli import main as repro_main

N, M, K, ALPHA = 300, 150, 6, 3.0
WORKERS = 2


def main() -> int:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=11)
    stream = EdgeStream.from_system(workload.system, order="random", seed=7)
    factory = partial(EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7)

    with tempfile.TemporaryDirectory(prefix="repro_ingest_") as tmp:
        text_path = Path(tmp) / "stream.txt"
        binary_path = Path(tmp) / "stream.npz"
        stream.save(text_path)
        if repro_main(["convert", str(text_path), str(binary_path)]) != 0:
            print("FAIL: convert exited non-zero")
            return 1

        scalar = factory()
        StreamRunner(path="scalar").run(scalar, EdgeStream.load(text_path))
        scalar_value = scalar.estimate()

        mapped = EdgeStream.load_binary(binary_path, mmap=True)
        with PersistentShardExecutor(
            factory, workers=WORKERS, chunk_size=512, backend="process"
        ) as pool:
            merged, report = pool.run(mapped)
        sharded_value = merged.estimate()

    print(
        f"scalar text-path estimate: {scalar_value!r}\n"
        f"{WORKERS}-worker {report.dispatch}-dispatch estimate: "
        f"{sharded_value!r}\n"
        f"dispatch payload: {report.dispatch_bytes} bytes for "
        f"{report.tokens} edges"
    )
    if sharded_value != scalar_value:
        print("FAIL: sharded binary-path estimate differs from scalar text path")
        return 1
    if report.dispatch != "mmap":
        print(f"FAIL: expected mmap dispatch, got {report.dispatch!r}")
        return 1
    if report.dispatch_bytes > 1024:
        print("FAIL: dispatch payload grew with the stream")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
