"""Experiment E17 -- the ingest data plane: binary format, O(1) dispatch.

Not a paper claim but the engineering premise of running the paper's
sublinear-space algorithms at production scale: sketching only pays off
when delivering the edges is not itself the bottleneck.  This bench
measures the two halves of the columnar pipeline:

* **load**: parsing the text format vs reading the columnar ``.npz``
  binary vs memory-mapping it in place.  The binary path must win by at
  least 5x (it wins by orders of magnitude);
* **dispatch**: bytes of shard descriptor shipped per sharded run on
  the shared-memory and mmap paths (O(workers), whatever the stream's
  length), plus realised sharded throughput through
  ``PersistentShardExecutor`` -- one-shot (a fresh pool's first
  submission, which is what ``repro estimate --workers 2`` pays) and
  steady state (later submissions through the resident pool) -- with
  every path's estimate equal to the single pass.

Besides the human-readable tables, the results land in two
machine-readable baselines at the repo root -- ``BENCH_ingest.json`` and
``BENCH_throughput.json`` -- so future PRs have a perf trajectory to
regress against.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from functools import partial

import pytest

from repro import EdgeStream, PersistentShardExecutor, StreamRunner
from repro.bench import ResultTable
from repro.core.estimate import EstimateMaxCover

# Load timings use a large stream (pure I/O, cheap to produce); the
# dispatch timings run full estimate passes, so they use a smaller one.
N, M, K, ALPHA = 20000, 2000, 25, 4.0
DN, DM, DK = 4000, 400, 10
REPO_ROOT = pathlib.Path(__file__).parent.parent


def _make_stream(n: int, m: int, k: int) -> EdgeStream:
    from repro.streams.generators import planted_cover

    workload = planted_cover(n=n, m=m, k=k, coverage_frac=0.9, seed=99)
    return EdgeStream.from_system(workload.system, order="random", seed=2)


@pytest.fixture(scope="module")
def stream() -> EdgeStream:
    return _make_stream(N, M, K)


@pytest.fixture(scope="module")
def dispatch_stream() -> EdgeStream:
    return _make_stream(DN, DM, DK)


#: Repeats behind every single-pass throughput median in the saved
#: baselines; recorded alongside the rates as ``"runs"``.
RUNS = 5


def _best_of(repeats: int, fn):
    """Best-of-``repeats`` wall clock (load benches are I/O-noisy)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _median_rate(run_once, runs: int = RUNS):
    """``(median_rate, noise_pct)`` over ``runs`` timed passes.

    ``run_once`` returns a tokens/sec rate.  The noise band is the full
    spread as a percent of the median -- saved next to the baseline
    rates so a future regression check can tell a real slowdown from a
    noisy box.
    """
    rates = sorted(run_once() for _ in range(runs))
    median = rates[len(rates) // 2]
    noise_pct = 100.0 * (rates[-1] - rates[0]) / max(median, 1e-9)
    return median, noise_pct


def _save_json(name: str, payload: dict) -> None:
    path = REPO_ROOT / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[baseline saved to {path}]")


def test_ingest_load_table(stream, tmp_path, save_table):
    """Text vs binary vs mmap load; binary must be >= 5x faster."""
    edges = len(stream)
    text_path = tmp_path / "stream.txt"
    binary_path = tmp_path / "stream.npz"

    text_save, _ = _best_of(2, lambda: stream.save(text_path))
    binary_save, _ = _best_of(2, lambda: stream.save_binary(binary_path))
    text_load, text_stream = _best_of(3, lambda: EdgeStream.load(text_path))
    binary_load, binary_stream = _best_of(
        3, lambda: EdgeStream.load_binary(binary_path)
    )
    mmap_load, mmap_stream = _best_of(
        3, lambda: EdgeStream.load_binary(binary_path, mmap=True)
    )

    # All three load paths reproduce the same stream bit-for-bit.
    assert binary_stream.edges == text_stream.edges == mmap_stream.edges

    table = ResultTable(
        ["path", "save (s)", "load (s)", "load tokens/sec"],
        title=f"E17: ingest on {edges} edges (m={M}, n={N})",
    )
    rows = {
        "text": (text_save, text_load),
        "binary": (binary_save, binary_load),
        "binary+mmap": (binary_save, mmap_load),
    }
    for name, (save_s, load_s) in rows.items():
        table.add_row(
            name,
            round(save_s, 4),
            round(load_s, 4),
            int(edges / max(load_s, 1e-9)),
        )
    table.add_row(
        "binary speedup", "", round(text_load / binary_load, 1), ""
    )
    save_table("ingest", table)

    _save_json(
        "BENCH_ingest.json",
        {
            "edges": edges,
            "instance": {"m": M, "n": N, "k": K},
            "load_seconds": {
                name: round(load_s, 6)
                for name, (_s, load_s) in rows.items()
            },
            "load_tokens_per_sec": {
                name: int(edges / max(load_s, 1e-9))
                for name, (_s, load_s) in rows.items()
            },
            "save_seconds": {
                name: round(save_s, 6)
                for name, (save_s, _l) in rows.items()
            },
            "binary_speedup_over_text": round(text_load / binary_load, 1),
            "mmap_speedup_over_text": round(text_load / mmap_load, 1),
        },
    )

    assert binary_load * 5 <= text_load
    assert mmap_load * 5 <= text_load


def test_dispatch_table(dispatch_stream, tmp_path, save_table):
    """Dispatch payloads are O(workers) descriptors on both data planes;
    every path ships the same answer, and the shared-memory bytes do not
    grow with the stream."""
    stream = dispatch_stream
    binary_path = tmp_path / "stream.npz"
    stream.save_binary(binary_path)
    mapped = EdgeStream.load_binary(binary_path, mmap=True)
    half = EdgeStream.from_columns(
        *(col[: len(stream) // 2] for col in stream.as_arrays()),
        m=stream.m,
        n=stream.n,
    )
    factory = partial(EstimateMaxCover, m=DM, n=DN, k=DK, alpha=ALPHA, seed=7)

    single = factory()
    StreamRunner(chunk_size=4096).run(single, stream)
    reference = single.estimate()

    # The single-pass row is the median of RUNS timed passes, each of
    # which must reproduce the reference estimate exactly.
    def _pass_rate():
        algo = factory()
        report = StreamRunner(chunk_size=4096).run(algo, stream)
        assert algo.estimate() == reference
        return report.tokens_per_sec

    single_rate, noise_pct = _median_rate(_pass_rate)
    single_rate = int(single_rate)

    table = ResultTable(
        [
            "dispatch",
            "stream",
            "payload bytes",
            "one-shot tokens/sec",
            "steady tokens/sec",
            "estimate",
        ],
        title=f"E17b: shard dispatch at 2 workers ({len(stream)} edges, "
        f"m={DM}, n={DN}, cpu_count={os.cpu_count()})",
    )
    baselines: dict = {
        "edges": len(stream),
        "instance": {"m": DM, "n": DN, "k": DK},
        "workers": 2,
        "cpu_count": os.cpu_count(),
        "runs": RUNS,
        "noise_pct": round(noise_pct, 1),
        "single_pass_tokens_per_sec": single_rate,
        "dispatch_bytes": {},
        "one_shot_tokens_per_sec": {},
        "steady_state_tokens_per_sec": {},
    }
    table.add_row("single", "full", 0, single_rate, "", round(reference, 1))

    cases = [
        ("shared_memory", stream, "full"),
        ("shared_memory", half, "half"),
        ("mmap", mapped, "full"),
    ]
    measured: dict = {}
    for dispatch, target, label in cases:
        # One-shot: pool start plus the first submission, as a CLI run
        # with --workers 2 pays it.  Steady state: the best of the
        # later submissions through the same resident pool.
        start = time.perf_counter()
        with PersistentShardExecutor(
            factory, workers=2, chunk_size=4096, dispatch=dispatch
        ) as pool:
            merged, report = pool.run(target)
            one_shot = len(target) / (time.perf_counter() - start)
            values = [merged.estimate()]
            steady = 0.0
            for _ in range(2):
                merged, report = pool.run(target)
                values.append(merged.estimate())
                steady = max(steady, report.tokens_per_sec)
        assert report.dispatch == dispatch
        assert len(set(values)) == 1, dispatch
        if label == "full":
            assert values[0] == reference, dispatch
            baselines["dispatch_bytes"][dispatch] = report.dispatch_bytes
            baselines["one_shot_tokens_per_sec"][dispatch] = int(one_shot)
            baselines["steady_state_tokens_per_sec"][dispatch] = int(steady)
        measured[(dispatch, label)] = report.dispatch_bytes
        table.add_row(
            dispatch,
            label,
            report.dispatch_bytes,
            int(one_shot),
            int(steady),
            round(values[0], 1),
        )

    save_table("ingest_dispatch", table)
    _save_json("BENCH_throughput.json", baselines)

    # Descriptors do not grow with the stream.
    assert (
        abs(
            measured[("shared_memory", "full")]
            - measured[("shared_memory", "half")]
        )
        <= 8
    )
    assert measured[("shared_memory", "full")] < 1024
    assert measured[("mmap", "full")] < 1024
