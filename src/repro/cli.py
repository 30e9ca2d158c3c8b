"""Command-line interface: run the paper's algorithms from a shell.

Subcommands
-----------

``estimate``
    Run ``EstimateMaxCover`` over a stream file or a generated workload.
``report``
    Run ``MaxCoverReporter`` and print the returned set ids.
``tradeoff``
    Sweep ``alpha`` and print the space/approximation table.
``plan``
    Invert the trade-off: pick the best ``alpha`` for a word budget.
``generate``
    Synthesise a workload family and write its stream to a file
    (text, or the columnar binary format when ``--out`` ends in
    ``.npz``).
``convert``
    Re-encode a stream file between the text and binary formats
    (direction decided by the output extension).
``diagnose``
    Offline structural diagnostics: which oracle subroutine should win,
    the common-element profile, and the contribution profile.
``experiment``
    Rerun a key reproduction (tradeoff / lowerbound / regimes) at a
    chosen scale.

Examples
--------

    python -m repro generate planted --n 500 --m 250 --k 8 --out edges.txt
    python -m repro convert edges.txt edges.npz
    python -m repro estimate edges.npz --k 8 --alpha 4 --mmap --workers 4
    python -m repro estimate edges.npz --k 8 --alpha 4 --mmap --workers 4 \\
        --executor persistent
    python -m repro estimate edges.txt --k 8 --alpha 4
    python -m repro report edges.txt --k 8 --alpha 4
    python -m repro tradeoff edges.txt --k 8 --alphas 2 4 8 16
    python -m repro plan --m 250 --n 500 --k 8 --budget 500000
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.tables import ResultTable
from repro.core.budget import plan_alpha
from repro.core.estimate import EstimateMaxCover
from repro.core.oracle import Oracle
from repro.core.parameters import Parameters
from repro.core.reporting import MaxCoverReporter
from repro.coverage.greedy import lazy_greedy
from repro.streams.edge_stream import EdgeStream, StreamRunner
from repro.streams.generators import (
    common_heavy,
    few_large_sets,
    planted_cover,
    random_uniform,
    zipf_frequencies,
)

__all__ = ["main", "build_parser"]

_FAMILIES = {
    "planted": lambda a: planted_cover(a.n, a.m, a.k, seed=a.seed),
    "few_large": lambda a: few_large_sets(a.n, a.m, a.k, seed=a.seed),
    "common": lambda a: common_heavy(a.n, a.m, a.k, beta=2.0, seed=a.seed),
    "zipf": lambda a: zipf_frequencies(a.n, a.m, seed=a.seed),
    "uniform": lambda a: random_uniform(
        a.n, a.m, set_size=max(2, a.n // 50), seed=a.seed
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming Max k-Cover (Indyk & Vakilian, PODS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_stream=True):
        if with_stream:
            p.add_argument(
                "stream",
                help="edge stream file: text (set element per line) or "
                "the columnar .npz binary, auto-detected",
            )
            p.add_argument(
                "--mmap",
                action="store_true",
                help="memory-map a binary stream instead of loading it "
                "(O(1) load; enables zero-copy shard dispatch)",
            )
        p.add_argument("--k", type=int, required=True, help="cover budget")
        p.add_argument("--seed", type=int, default=0, help="random seed")

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {text}"
            )
        return value

    def chunk_size_arg(text):
        if text == "auto":
            return "auto"
        return positive_int(text)

    def add_engine(p):
        p.add_argument(
            "--engine",
            choices=StreamRunner.PATHS,
            default="vectorized",
            help="batched multi-branch engine or the per-token reference",
        )
        p.add_argument(
            "--chunk-size",
            type=chunk_size_arg,
            default=4096,
            metavar="N|auto",
            help="tokens per batch on the vectorized engine, or 'auto' "
            "to probe a grid of sizes during the pass and finish at "
            "the fastest (single-process columnar streams only)",
        )
        p.add_argument(
            "--workers",
            type=positive_int,
            default=1,
            help="shard the stream over this many processes and merge "
            "the sketches (identical answer, vectorized engine only)",
        )
        p.add_argument(
            "--executor",
            choices=("per-run", "persistent"),
            default="per-run",
            help="worker-pool lifecycle when --workers > 1: spawn a "
            "fresh pool for the run, or keep a resident pool whose "
            "workers build their algorithm and evaluation plan once",
        )

    est = sub.add_parser("estimate", help="estimate optimal coverage")
    add_common(est)
    est.add_argument("--alpha", type=float, default=4.0)
    est.add_argument(
        "--mode", choices=("practical", "paper"), default="practical"
    )
    est.add_argument("--z-base", type=float, default=4.0)
    add_engine(est)

    rep = sub.add_parser("report", help="report an approximate k-cover")
    add_common(rep)
    rep.add_argument("--alpha", type=float, default=4.0)
    add_engine(rep)

    trade = sub.add_parser("tradeoff", help="sweep alpha, print the table")
    add_common(trade)
    add_engine(trade)
    trade.add_argument(
        "--alphas", type=float, nargs="+", default=[2.0, 4.0, 8.0, 16.0]
    )

    plan = sub.add_parser("plan", help="best alpha for a word budget")
    plan.add_argument("--m", type=int, required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--k", type=int, required=True)
    plan.add_argument("--budget", type=int, required=True, help="words")

    diag = sub.add_parser("diagnose", help="structural diagnostics")
    add_common(diag)
    diag.add_argument("--alpha", type=float, default=4.0)

    exp = sub.add_parser("experiment", help="rerun a key reproduction")
    exp.add_argument(
        "name", choices=("tradeoff", "lowerbound", "regimes")
    )
    exp.add_argument("--m", type=int, default=None)
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--k", type=int, default=None)

    gen = sub.add_parser("generate", help="synthesise a workload stream")
    gen.add_argument("family", choices=sorted(_FAMILIES))
    gen.add_argument("--n", type=int, default=500)
    gen.add_argument("--m", type=int, default=250)
    gen.add_argument("--k", type=int, default=8)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--order", default="random")
    gen.add_argument(
        "--out",
        required=True,
        help="output stream file (.npz writes the columnar binary)",
    )

    bench = sub.add_parser(
        "bench", help="time one estimator pass over a stream"
    )
    add_common(bench)
    bench.add_argument("--alpha", type=float, default=4.0)
    add_engine(bench)
    bench.add_argument(
        "--profile",
        action="store_true",
        help="print the per-kernel wall-clock breakdown of the pass "
        "(hash evaluation, sketch scatters, L0 inserts, ...)",
    )
    bench.add_argument(
        "--autotune",
        action="store_true",
        help="shorthand for --chunk-size auto; also prints the "
        "tuner's probe table",
    )

    conv = sub.add_parser(
        "convert", help="re-encode a stream file (text <-> binary)"
    )
    conv.add_argument("src", help="input stream file (format auto-detected)")
    conv.add_argument(
        "dst",
        help="output stream file (.npz writes the columnar binary, "
        "anything else the text format)",
    )
    return parser


def _load(args) -> EdgeStream:
    return EdgeStream.load_auto(
        args.stream, mmap=getattr(args, "mmap", False)
    )


def _runner(args) -> StreamRunner:
    return StreamRunner(chunk_size=args.chunk_size, path=args.engine)


def _run_maybe_sharded(args, factory, stream):
    """Drive ``factory()`` over ``stream``; sharded when ``--workers > 1``.

    Returns ``(algo, report)`` either way.  Sharding implies the
    vectorized engine (each shard runs ``process_batch``); the scalar
    reference path stays single-process.
    """
    workers = getattr(args, "workers", 1)
    if workers > 1:
        if args.engine != "vectorized":
            raise SystemExit(
                "--workers > 1 requires the vectorized engine"
            )
        if args.chunk_size == "auto":
            raise SystemExit(
                "--chunk-size auto requires --workers 1: shard "
                "executors pin one chunk size across the pool"
            )
        if getattr(args, "executor", "per-run") == "persistent":
            from repro.parallel import PersistentShardExecutor

            with PersistentShardExecutor(
                factory,
                workers=workers,
                chunk_size=args.chunk_size,
            ) as pool:
                return pool.run(stream)
        from repro.parallel import ShardedStreamRunner

        return ShardedStreamRunner(
            workers=workers, chunk_size=args.chunk_size
        ).run(factory, stream)
    algo = factory()
    report = _runner(args).run(algo, stream)
    return algo, report


def _print_throughput(args, report) -> None:
    print(
        f"throughput: {report.tokens_per_sec:.0f} tokens/sec "
        f"({report.path} engine, chunk_size={report.chunk_size})"
    )


def _cmd_estimate(args) -> int:
    import functools

    stream = _load(args)
    factory = functools.partial(
        EstimateMaxCover,
        m=stream.m,
        n=stream.n,
        k=args.k,
        alpha=args.alpha,
        mode=args.mode,
        z_base=args.z_base,
        seed=args.seed,
    )
    algo, report = _run_maybe_sharded(args, factory, stream)
    value = algo.estimate()
    print(f"estimate: {value:.1f}")
    print(f"space_words: {algo.space_words()}")
    _print_throughput(args, report)
    return 0


def _cmd_report(args) -> int:
    import functools

    stream = _load(args)
    factory = functools.partial(
        MaxCoverReporter,
        m=stream.m,
        n=stream.n,
        k=args.k,
        alpha=args.alpha,
        seed=args.seed,
    )
    reporter, report = _run_maybe_sharded(args, factory, stream)
    cover = reporter.solution()
    print(f"set_ids: {' '.join(map(str, cover.set_ids))}")
    print(f"certified_coverage: {cover.estimated_coverage:.1f}")
    print(f"source: {cover.source}")
    print(f"space_words: {reporter.space_words()}")
    _print_throughput(args, report)
    return 0


def _cmd_tradeoff(args) -> int:
    stream = _load(args)
    opt = lazy_greedy(stream.to_system(), args.k).coverage
    table = ResultTable(
        ["alpha", "estimate", "ratio", "space (words)"],
        title=f"trade-off sweep (m={stream.m}, n={stream.n}, k={args.k}, "
        f"greedy={opt})",
    )
    for alpha in args.alphas:
        params = Parameters.practical(stream.m, stream.n, args.k, alpha)
        oracle = Oracle(params, seed=args.seed)
        _runner(args).run(oracle, stream)
        value = oracle.estimate()
        table.add_row(
            alpha,
            round(value, 1),
            round(opt / max(value, 1e-9), 2),
            oracle.space_words(),
        )
    print(table.render())
    return 0


def _cmd_plan(args) -> int:
    config = plan_alpha(args.m, args.n, args.k, args.budget)
    if config is None:
        print("infeasible: budget below the problem's floor")
        return 1
    print(f"alpha: {config.alpha:.2f}")
    print(f"projected_words: {config.projected_words}")
    return 0


def _cmd_generate(args) -> int:
    workload = _FAMILIES[args.family](args)
    stream = EdgeStream.from_system(
        workload.system, order=args.order, seed=args.seed
    )
    stream.save_auto(args.out)
    print(
        f"wrote {len(stream)} edges (m={stream.m}, n={stream.n}) "
        f"to {args.out}"
    )
    return 0


def _cmd_convert(args) -> int:
    from repro.streams.io import BINARY_SUFFIX, detect_format

    stream = EdgeStream.load_auto(args.src)
    stream.save_auto(args.dst)
    dst_format = "binary" if str(args.dst).endswith(BINARY_SUFFIX) else "text"
    print(
        f"converted {len(stream)} edges (m={stream.m}, n={stream.n}) "
        f"{detect_format(args.src)} -> {dst_format}: {args.dst}"
    )
    return 0


def _cmd_diagnose(args) -> int:
    from repro.coverage.diagnostics import (
        classify_regime,
        common_element_profile,
        contribution_profile,
    )

    stream = _load(args)
    system = stream.to_system()
    params = Parameters.practical(system.m, system.n, args.k, args.alpha)
    regime = classify_regime(system, args.k, args.alpha)
    print(f"predicted_regime: {regime}")
    contrib = contribution_profile(system, args.k, params)
    print(f"greedy_coverage: {contrib.coverage}")
    print(f"large_set_mass: {contrib.large_mass:.2f}")
    table = ResultTable(["beta", "|U^cmn_{beta k}|"], title="common elements")
    for beta, count in sorted(
        common_element_profile(system, args.k).items()
    ):
        table.add_row(beta, count)
    print(table.render())
    return 0


def _cmd_experiment(args) -> int:
    from repro.bench.experiments import (
        lower_bound_experiment,
        regime_experiment,
        tradeoff_experiment,
    )

    overrides = {
        key: value
        for key, value in (("m", args.m), ("n", args.n), ("k", args.k))
        if value is not None
    }
    if args.name == "tradeoff":
        result = tradeoff_experiment(**overrides)
    elif args.name == "lowerbound":
        overrides.pop("n", None)
        overrides.pop("k", None)
        result = lower_bound_experiment(**overrides)
    else:
        result = regime_experiment(**overrides)
    print(result.table.render())
    return 0


def _cmd_bench(args) -> int:
    import functools
    import time

    from repro.engine.profile import PROFILER

    stream = _load(args)
    if args.autotune:
        args.chunk_size = "auto"
    factory = functools.partial(
        EstimateMaxCover,
        m=stream.m,
        n=stream.n,
        k=args.k,
        alpha=args.alpha,
        seed=args.seed,
    )
    if args.profile:
        PROFILER.start()
    try:
        algo, report = _run_maybe_sharded(args, factory, stream)
    finally:
        if args.profile:
            PROFILER.stop()
    start = time.perf_counter()
    estimate = algo.estimate()
    finalize_seconds = time.perf_counter() - start
    print(f"tokens: {report.tokens}")
    print(f"seconds: {report.seconds:.3f}")
    print(f"finalize_seconds: {finalize_seconds:.3f}")
    print(f"estimate: {estimate:.1f}")
    print(f"space_words: {algo.space_words()}")
    _print_throughput(args, report)
    if report.autotune is not None:
        print(f"autotuned chunk_size: {report.chunk_size}")
        print("autotune probes (chunk_size  tokens/sec):")
        for probe in report.autotune["probes"]:
            marker = (
                " <- chosen"
                if probe["chunk_size"] == report.chunk_size
                else ""
            )
            print(
                f"  {probe['chunk_size']:>6}  "
                f"{probe['tokens_per_sec']:12.0f}{marker}"
            )
    if args.profile:
        breakdown = PROFILER.snapshot()
        if not breakdown:
            print("profile: no instrumented kernels fired")
        else:
            total = sum(v["seconds"] for v in breakdown.values())
            print("profile (per-kernel wall clock):")
            for name, entry in breakdown.items():
                share = 100.0 * entry["seconds"] / total if total else 0.0
                print(
                    f"  {name:<12} {entry['seconds']:8.3f}s "
                    f"{share:5.1f}%  {entry['calls']:>8} calls"
                )
            print(
                f"  {'(accounted)':<12} {total:8.3f}s of "
                f"{report.seconds:.3f}s pass"
            )
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "report": _cmd_report,
    "tradeoff": _cmd_tradeoff,
    "plan": _cmd_plan,
    "generate": _cmd_generate,
    "convert": _cmd_convert,
    "diagnose": _cmd_diagnose,
    "experiment": _cmd_experiment,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
