#!/usr/bin/env python3
"""Compare two ``run.py --out`` results files, workload by workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric present in both files, prints
both medians and quartiles, the change of B against A as a share of
A's median (positive means worse, by the metric's direction), the
metric's bound from ``BENCHMARK.json``, and a verdict:

``ok``
    B is not worse than A by more than the bound.
``worse``
    B is worse than A by more than the bound.
``unresolved``
    A quartile spread (``(q3 - q1) / median``) is wider than the bound
    and the two quartile ranges overlap, so these runs cannot tell.

Exits 1 when any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, change)`` for summaries ``a`` (base) and ``b``."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (a, b)
    )
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def compare(base: dict, new: dict, declared: list) -> tuple[list, int]:
    """Rows ``(workload, metric, a, b, change, bound, verdict)`` and the
    number of ``worse`` verdicts."""
    rows, worse = [], 0
    for workload, record in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for metric in declared:
            name = metric["name"]
            a = record["metrics"].get(name)
            b = other["metrics"].get(name)
            if not isinstance(a, dict) or not isinstance(b, dict):
                continue
            result, change = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            rows.append((workload, name, a, b, change, metric["bound"], result))
    return rows, worse


def _cell(summary: dict) -> str:
    return (
        f"{summary['median']:.5g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="results file A (the parent)")
    parser.add_argument("new", help="results file B (the change)")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    rows, worse = compare(base, new, declared)
    print(
        f"{'workload':12s} {'metric':22s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict"
    )
    for workload, name, a, b, change, bound, result in rows:
        print(
            f"{workload:12s} {name:22s} {_cell(a):>30s} {_cell(b):>30s} "
            f"{change:>+8.1%} {bound:>6.0%}  {result}"
        )
    for label, results in (("A", base), ("B", new)):
        for workload, record in results["workloads"].items():
            for message in record.get("failures", []):
                print(f"{label} {workload} FAILED: {message}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
