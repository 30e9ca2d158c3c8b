"""Self-check of the end-to-end benchmark.

Runs ``run.py --quick`` (about 1/10 of every instance, one repetition
per workload) untraced and traced, and checks the results against
``BENCHMARK.json``.  Run from the repository root::

    python3 -m pytest -q benchmarks/e2e/test_e2e_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
QUICK_BUDGET_S = 60


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _quick(directory: Path, trace: int) -> tuple[dict, dict, float]:
    out = directory / f"quick-{trace}.json"
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--quick",
            "--trace",
            str(trace),
            "--out",
            str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=3 * QUICK_BUDGET_S,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), line, elapsed


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _quick(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _quick(tmp_path_factory.mktemp("traced"), 1)


def test_every_declared_metric_is_emitted_for_every_workload(
    untraced, traced, declared
):
    for (results, line, _), kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        names = {metric["name"] for metric in declared[kind]}
        assert set(results["workloads"]) == set(WORKLOADS)
        for workload, record in results["workloads"].items():
            missing = names - set(record["metrics"])
            assert not missing, (workload, sorted(missing))
        assert line["correct"] is True
        assert line["attempted"] >= len(WORKLOADS)


def test_names_are_well_formed_and_unique(declared):
    names = [w["name"] for w in declared["workloads"]]
    assert set(names) <= set(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        names += [metric["name"] for metric in declared[kind]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_no_failures(untraced, traced):
    for results, _line, _ in (untraced, traced):
        for workload, record in results["workloads"].items():
            assert record["failed_frac"] == 0, (workload, record["failures"])


def test_quick_run_fits_its_budget(untraced):
    assert untraced[2] < QUICK_BUDGET_S


def test_host_record(untraced):
    host = untraced[0]["host"]
    assert host["cpu_count"] >= 1 and host["affinity"] >= 1
    for key in ("python", "numpy", "git_rev", "seed"):
        assert key in host
    for record in untraced[0]["workloads"].values():
        assert "load_avg_1m" in record and record["timed_reps"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    """A tree holding only the benchmark fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "reference"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_install_and_uninstall_restore_every_entry_point():
    entries = {(m, p) for _n, m, p in tracing.TIMED + tracing.COUNTED}
    before = {e: tracing._resolve(*e) for e in entries}
    originals = {e: vars(owner).get(attr) for e, (owner, attr) in before.items()}
    patches = tracing.install(tracing.Tracer())
    try:
        for e, (owner, attr) in before.items():
            assert vars(owner).get(attr) is not originals[e], e
    finally:
        tracing.uninstall(patches)
    for e, (owner, attr) in before.items():
        assert vars(owner).get(attr) is originals[e], e


def test_seed_changes_only_the_arrival_order():
    workload = WORKLOADS["reference"]
    edges = []
    for seed in (0, 1):
        sets, elements = generate(workload, seed, quick=True)[1].as_arrays()
        edges.append(np.stack([sets, elements]))
    assert not np.array_equal(edges[0], edges[1])
    first, second = (e[:, np.lexsort(e[::-1])] for e in edges)
    assert np.array_equal(first, second)


def test_probe_times_the_kernel_and_stops():
    probe = hostspeed.Probe()
    try:
        seconds = [probe(), probe()]
    finally:
        probe.close()
    assert all(s > 0 for s in seconds)
    assert probe._process.returncode == 0
    assert hostspeed.speed_factor([hostspeed.NOMINAL_S] * 3) == 1.0


def _summary(median: float, spread: float = 0.0) -> dict:
    return {"median": median, "q1": median - spread, "q3": median + spread, "n": 5}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        (_summary(1.0), _summary(1.05), "lower", "ok"),
        (_summary(1.0), _summary(1.2), "lower", "worse"),
        (_summary(100.0), _summary(80.0), "higher", "worse"),
        (_summary(100.0), _summary(120.0), "higher", "ok"),
        (_summary(1.0, 0.2), _summary(1.15, 0.2), "lower", "unresolved"),
        (_summary(1.0, 0.2), _summary(2.0, 0.2), "lower", "worse"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1)[0] == expected
