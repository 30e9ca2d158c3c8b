"""Quickstart: estimate and report a maximum k-cover from an edge stream.

Builds a synthetic instance, streams it in a random (adversary-chosen)
edge order, and runs the paper's two headline algorithms:

* ``EstimateMaxCover`` -- the O~(alpha)-approximate coverage *estimator*
  (Theorem 3.1), which never sees the instance, only the stream;
* ``MaxCoverReporter`` -- the variant that returns an actual k-cover
  (Theorem 3.2).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import functools

from repro import (
    EdgeStream,
    EstimateMaxCover,
    MaxCoverReporter,
    PersistentShardExecutor,
    StreamRunner,
    lazy_greedy,
    planted_cover,
)


def main() -> None:
    # A planted instance: 8 hidden sets jointly cover 90% of 500 elements,
    # buried among 242 noise sets.
    n, m, k, alpha = 500, 250, 8, 4.0
    workload = planted_cover(n=n, m=m, k=k, coverage_frac=0.9, seed=7)
    system = workload.system

    # Ground truth for comparison (the streaming algorithms never see it).
    opt = lazy_greedy(system, k).coverage
    print(f"instance: m={m} sets, n={n} elements, k={k}")
    print(f"offline greedy coverage (ground truth): {opt}")

    # The general edge-arrival model: (set, element) pairs, arbitrary order.
    stream = EdgeStream.from_system(system, order="random", seed=13)
    print(f"stream: {len(stream)} edges in random arrival order")

    # One knob for how streams are fed: the chunked vectorized engine
    # (process_batch under the hood); path="scalar" would replay the
    # per-token reference implementation instead.
    runner = StreamRunner(chunk_size=4096)

    # --- Estimation (Theorem 3.1) ---------------------------------------
    estimator = EstimateMaxCover(
        m=m, n=n, k=k, alpha=alpha, z_base=4.0, seed=42
    )
    report = runner.run(estimator, stream)
    estimate = estimator.estimate()
    print(
        f"\nEstimateMaxCover(alpha={alpha:g}): estimate {estimate:.0f} "
        f"(ratio {opt / estimate:.2f}, target <= ~{alpha:g})"
    )
    print(f"  space held: {estimator.space_words()} words")
    print(f"  throughput: {report.tokens_per_sec:.0f} tokens/sec")

    # --- Reporting (Theorem 3.2) ----------------------------------------
    reporter = MaxCoverReporter(m=m, n=n, k=k, alpha=alpha, seed=42)
    runner.run(reporter, stream)
    cover = reporter.solution()
    true_coverage = system.coverage(cover.set_ids)
    print(
        f"\nMaxCoverReporter: {len(cover.set_ids)} sets "
        f"(via {cover.source}) truly covering {true_coverage} elements "
        f"(ratio {opt / max(true_coverage, 1):.2f})"
    )
    recovered = set(cover.set_ids) & set(workload.planted_ids)
    print(f"  planted sets recovered: {len(recovered)}/{k}")

    # --- Sharded execution ----------------------------------------------
    # Every sketch in the package is mergeable, so the stream can be cut
    # into contiguous shards, run in parallel processes with *identical
    # seeds*, and merged back -- the answer is bit-identical to the
    # single pass above.  The factory (not an instance) is what ships to
    # the workers; functools.partial of the class is the canonical form.
    factory = functools.partial(
        EstimateMaxCover, m=m, n=n, k=k, alpha=alpha, z_base=4.0, seed=42
    )
    with PersistentShardExecutor(factory, workers=2, chunk_size=4096) as pool:
        merged, shard_report = pool.run(stream)
    print(
        f"\nPersistentShardExecutor(workers=2): estimate "
        f"{merged.estimate():.0f} (single-pass gave {estimate:.0f})"
    )
    for timing in shard_report.shards:
        print(
            f"  shard {timing.shard}: {timing.tokens} edges "
            f"in {timing.seconds:.2f}s"
        )


if __name__ == "__main__":
    main()
