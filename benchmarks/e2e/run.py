#!/usr/bin/env python3
"""End-to-end benchmark: time to answer, space and answer quality.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                        # every workload
    python3 benchmarks/e2e/run.py --workload reference --seed 3 --seconds 45
    python3 benchmarks/e2e/run.py --out results.json     # machine-readable
    python3 benchmarks/e2e/run.py --trace 1 --trace-out spans.json
    python3 benchmarks/e2e/run.py --quick                # ~1/10 self-check

Each workload runs in a fresh subprocess.  The parent generates the
workload's stream from ``--seed`` (never timed), writes it to a
temporary ``.npz`` under ``benchmarks/e2e/.work/``, and computes the
lazy-greedy reference coverage; the child memory-maps the stream, runs
one discarded warm-up repetition and then timed repetitions for
``--seconds`` seconds, and reports every repetition back.  A fixed
host-speed probe (:mod:`hostspeed`) runs after every sample, and the
end-to-end times are divided by the run's host-speed factor.  The parent
checks every answer, prints each metric by name with its unit, and
prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A traced run alternates untraced and traced
repetitions: per-layer numbers come from the traced ones, and the
untraced ones measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CHUNK_SIZE,
    WORKLOADS,
    check_answers,
    factory,
    generate,
    opt_ratio,
)

#: Timed repetitions run until ``--seconds`` have passed, and at least
#: this many (a traced run needs two traced and two untraced); at most
#: ``MAX_REPS`` bounds a run whose repetitions fail at once.
MIN_REPS = 3
MIN_TRACED_REPS = 4
MAX_REPS = 200
#: Pool spawns per ``sharded_2w`` run; ``setup_s`` is their median.
SHARDED_SETUPS = 3
#: A child that runs longer than this is killed with its process group.
CHILD_TIMEOUT_S = 160
#: Failure of a workload whose child produced no result.
NO_RESULT = "child produced no result"


def declared_metrics(spec: dict) -> dict:
    """``{"end_to_end": {...}, "per_layer": {...}}`` from BENCHMARK.json."""
    return {
        kind: {m["name"]: m for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


# -- child: one workload in a fresh process ---------------------------------


@contextlib.contextmanager
def _phase(tracer, root: str, record: dict, key: str):
    """Time one phase into ``record[key]``; traced, also its root span."""
    traced = tracer is not None and tracer.enabled
    if traced:
        tracer.open(root)
    start = time.perf_counter()
    try:
        yield
    finally:
        record[key] = time.perf_counter() - start
        if traced:
            tracer.close()


#: State keys whose content a shard may legitimately change today: the
#: ``F2HeavyHitter`` candidate pools evict per shard, so a merged pool
#: can differ from the single pass's once prunes evict.
POOL_KEYS = ("pool_items", "pool_counts")
#: State keys holding dict insertion order, which follows chunk
#: boundaries; compared both exactly and as sorted sets.
ORDERED_KEYS = ("l0_sids",)


def _digest(array) -> str:
    import numpy as np

    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype}|{array.shape}|".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def state_digests(algo) -> dict:
    """``{key: digest}`` over ``state_arrays()``; ordered keys also get a
    ``key + "#sorted"`` digest of their sorted values."""
    import numpy as np

    digests = {}
    for key, value in algo.state_arrays().items():
        digests[key] = _digest(value)
        if key.endswith(ORDERED_KEYS):
            digests[key + "#sorted"] = _digest(np.sort(value, axis=None))
    return digests


def compare_states(merged: dict, single: dict) -> tuple[list, int]:
    """``(mismatches, divergent)`` between two :func:`state_digests`.

    A mismatch fails the run: a key present on one side only, or a
    differing key outside :data:`POOL_KEYS`, or an ordered key whose
    sorted values differ.  ``divergent`` counts the tolerated
    differences: candidate pools, and ordered keys equal as sets.
    """
    if set(merged) != set(single):
        return [f"state keys differ: {sorted(set(merged) ^ set(single))[:3]}"], 0
    mismatches, divergent = [], 0
    for key in sorted(merged):
        if key.endswith("#sorted") or merged[key] == single[key]:
            continue
        if key.endswith(POOL_KEYS):
            divergent += 1
        elif key.endswith(ORDERED_KEYS) and (
            merged[key + "#sorted"] == single[key + "#sorted"]
        ):
            divergent += 1
        else:
            mismatches.append(f"merged state differs from the single pass at {key}")
    return mismatches, divergent


def _space_profile(algo) -> dict:
    """Words per subroutine: ``Oracle.space_profile`` summed over the
    estimator's branches, or the reporter's children's ``space_words``."""
    if hasattr(algo, "_branches"):
        total: dict = {}
        for _z, _reducer, oracle in algo._branches:
            for name, words in oracle.space_profile().items():
                total[name] = total.get(name, 0) + words
        return total
    children = {
        "large_common": algo._large_common,
        "large_set": algo._large_set,
        "small_set": algo._small_set,
    }
    return {
        name: child.space_words()
        for name, child in children.items()
        if child is not None
    }


class _Child:
    """Drives one workload's repetitions inside the child process."""

    def __init__(self, spec: dict, probe):
        self.spec = spec
        self.probe = probe
        self.workload = WORKLOADS[spec["workload"]]
        self.make = factory(self.workload, spec["quick"])
        self.path = spec["stream_path"]
        self.trace = bool(spec["trace"])
        self.tracer = None
        if self.trace:
            self.tracer = tracing.Tracer(keep_spans=bool(spec["trace_out"]))
            tracing.install(self.tracer)
        self.samples = 0
        self.layer_samples: list = []

    def _begin(self, traced: bool) -> None:
        """Start a sample: a repetition or a pool set-up."""
        if self.tracer is not None:
            self.tracer.rep = self.samples
            self.tracer.enabled = traced
        self.samples += 1

    def _end(self, record: dict) -> None:
        """Stop tracing; keep a traced, successful sample's totals."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        tracer.enabled = False
        if "error" not in record:
            times, counts = tracer.rep_totals(tracer.rep)
            self.layer_samples.append({"times": times, "counts": counts})
            record["layer_sample"] = len(self.layer_samples) - 1

    def _probe(self, record: dict) -> dict:
        """Time the host-speed probe after a sample."""
        # The sample's garbage is collected here, untimed, rather than
        # by a collection inside the next sample's timed region.
        gc.collect()
        record["probe_s"] = self.probe()
        return record

    def _finalize(self, algo):
        if self.workload.kind == "report":
            return list(algo.solution().set_ids)
        return algo.estimate()

    def _rep(self, traced: bool, run_pass) -> dict:
        """One repetition: (setup), pass, finalise; errors recorded."""
        record: dict = {"traced": traced}
        self._begin(traced)
        try:
            algo, tokens, extra = run_pass(record)
            with _phase(self.tracer, tracing.ROOT_FINALIZE, record, "finalize_s"):
                answer = self._finalize(algo)
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        finally:
            self._end(record)
        record.update(extra, tokens=tokens, answer=answer)
        record["space_words"] = algo.space_words()
        if traced:
            record["space_profile"] = _space_profile(algo)
        return record

    def _sample(self, traced: bool, run_pass) -> dict:
        """One repetition, then the probe after it."""
        return self._probe(self._rep(traced, run_pass))

    def _timed_loop(self, run_pass) -> list:
        reps: list = []
        quick = self.spec["quick"]
        minimum = MIN_TRACED_REPS if self.trace else MIN_REPS
        if quick:
            minimum = 2 if self.trace else 1
        seconds = 0.0 if quick else float(self.spec["seconds"])
        start = time.perf_counter()
        while len(reps) < MAX_REPS and (
            len(reps) < minimum or time.perf_counter() - start < seconds
        ):
            reps.append(self._sample(self.trace and len(reps) % 2 == 1, run_pass))
        return reps

    # -- single-process workloads ------------------------------------------

    def run_single(self) -> dict:
        from repro import EdgeStream, StreamRunner

        def run_pass(record):
            with _phase(self.tracer, tracing.ROOT_SETUP, record, "setup_s"):
                stream = EdgeStream.load_binary(self.path, mmap=True)
                algo = self.make()
            with _phase(self.tracer, tracing.ROOT_PASS, record, "pass_s"):
                report = StreamRunner(chunk_size=CHUNK_SIZE).run(algo, stream)
            return algo, report.tokens, {}

        warmup = [] if self.spec["quick"] else [self._sample(False, run_pass)]
        reps = self._timed_loop(run_pass)
        return {"warmup": warmup, "reps": reps, "peak_rss_mb": _peak_rss_mb()}

    # -- the sharded workload ----------------------------------------------

    def _open_pool(self, setups: list):
        from repro import EdgeStream, PersistentShardExecutor

        record: dict = {}
        self._begin(self.trace)
        with _phase(self.tracer, tracing.ROOT_SETUP, record, "setup_s"):
            stream = EdgeStream.load_binary(self.path, mmap=True)
            pool = PersistentShardExecutor(
                self.make,
                workers=2,
                chunk_size=CHUNK_SIZE,
                dispatch="shared_memory",
            )
            pool.__enter__()
        self._end(record)
        setups.append(self._probe(record))
        return stream, pool

    def run_sharded(self) -> dict:
        from repro import StreamRunner
        from repro.sketch.serialize import dumps_state

        setups: list = []
        count = 1 if self.spec["quick"] else SHARDED_SETUPS
        for _ in range(count - 1):
            _stream, pool = self._open_pool(setups)
            pool.close()
        stream, pool = self._open_pool(setups)
        digests: dict = {}
        state: dict = {}

        def run_pass(record):
            with _phase(self.tracer, tracing.ROOT_PASS, record, "pass_s"):
                algo, report = pool.run(stream)
            seconds = [shard.seconds for shard in report.shards]
            extra = {
                "shard_seconds": seconds,
                "dispatch_bytes": report.dispatch_bytes,
            }
            if "merged" not in digests:
                # Once, in the untimed warm-up: the merged state before
                # finalisation, for the identity check below.
                digests["merged"] = state_digests(algo)
            if self.trace and "bytes" not in state:
                start = time.perf_counter()
                blob = dumps_state(algo)
                state["dumps_state_s"] = time.perf_counter() - start
                state["bytes"] = len(blob)
                del blob
            return algo, report.tokens, extra

        try:
            # Kept in --quick too: the warm-up carries the state check.
            warmup = [self._sample(False, run_pass)]
            reps = self._timed_loop(run_pass)
        finally:
            pool.close()
        peak = _peak_rss_mb(children=True)
        # The single pass the merged state must equal, outside the timed
        # region and after the memory high-water mark was read.
        single = self.make()
        StreamRunner(chunk_size=CHUNK_SIZE).run(single, stream)
        mismatches, divergent = compare_states(
            digests.get("merged", {}), state_digests(single)
        )
        reference = single.estimate()
        del single
        if mismatches:
            warmup[0].setdefault("error", "; ".join(mismatches[:3]))
        return {
            "divergent_state_keys": divergent,
            "warmup": warmup,
            "reps": reps,
            "setups": setups,
            "peak_rss_mb": peak,
            "reference": reference,
            "state_bytes": state.get("bytes", 0),
            "dumps_state_s": state.get("dumps_state_s", 0.0),
        }

    def run(self) -> dict:
        if self.workload.kind == "sharded":
            result = self.run_sharded()
        else:
            result = self.run_single()
        result["layer_samples"] = self.layer_samples
        if self.tracer is not None and self.spec["trace_out"]:
            self.tracer.write(self.spec["trace_out"])
        return result


def _peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` in MB; with ``children``, the max over self and
    every reaped child process."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def child_main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    probe = hostspeed.Probe()
    try:
        result = _Child(spec, probe).run()
    finally:
        probe.close()
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


# -- parent: generation, checks, aggregation --------------------------------


def summarize(values: list) -> dict:
    """Median, quartiles and sample count of ``values``."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _run_child(spec: dict, work: Path) -> dict | None:
    """Run one child in its own process group; its result or ``None``."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(spec_path)],
        cwd=str(ROOT),
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        else:
            # Reap anything the child left in its group (a shard worker
            # orphaned by a crash).
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(child.pid, signal.SIGKILL)
    result_path = Path(spec["result_path"])
    if child.returncode != 0 or not result_path.exists():
        return None
    return json.loads(result_path.read_text())


def _layer_value(samples: list, names: tuple, kind: str = "times") -> float:
    """Median over traced samples of the summed ``names``, taken over the
    samples that exercised the layer at all (0 when none did)."""
    values = [
        sum(s[kind].get(n, 0) for n in names)
        for s in samples
        if any(n in s[kind] for n in names)
    ]
    return statistics.median(values) if values else 0.0


def _ratio(samples: list, top: str, bottom: str) -> float:
    values = [
        s["counts"].get(top, 0) / s["counts"][bottom]
        for s in samples
        if s["counts"].get(bottom)
    ]
    return statistics.median(values) if values else 0.0


def _median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(result: dict, reps: list) -> dict:
    """Every per-layer metric of one traced run."""
    samples = result["layer_samples"]
    traced = [r for r in reps if r["traced"] and "layer_sample" in r]
    plain = [r for r in reps if not r["traced"]]
    metrics: dict = {}
    timed_names = sorted({name for name, _m, _p in tracing.TIMED})
    for name in timed_names:
        metrics[name] = _layer_value(samples, (name,))
    for name, _module, _path in tracing.COUNTED:
        metrics[name] = _layer_value(samples, (name,), "counts")
    metrics.pop("sketch.pool_calls")
    metrics["sketch.pool_replay_frac"] = _ratio(
        samples, "sketch.pool_replays", "sketch.pool_calls"
    )
    metrics["sketch.hh_report_frac"] = _ratio(
        samples, tracing.REPORTED, "sketch.cs_query_calls"
    )
    profiles = [r["space_profile"] for r in traced if "space_profile" in r]
    for name in ("large_common", "large_set", "small_set"):
        metrics[f"core.space.{name}_words"] = _median_or_zero(
            [p.get(name, 0) for p in profiles]
        )
    metrics["sketch.state_bytes"] = result.get("state_bytes", 0)
    metrics["parallel.divergent_state_keys"] = result.get(
        "divergent_state_keys", 0
    )
    metrics["sketch.dumps_state_s"] = result.get("dumps_state_s", 0.0)
    shards = [r["shard_seconds"] for r in reps if r.get("shard_seconds")]
    metrics["parallel.shard_max_s"] = _median_or_zero([max(s) for s in shards])
    metrics["parallel.shard_skew"] = _median_or_zero(
        [max(s) / max(min(s), 1e-9) for s in shards]
    )
    metrics["parallel.dispatch_bytes"] = _median_or_zero(
        [r["dispatch_bytes"] for r in reps if "dispatch_bytes" in r]
    )
    others, fractions = [], []
    roots = (tracing.ROOT_PASS, tracing.ROOT_FINALIZE)
    for rep in traced:
        times = samples[rep["layer_sample"]]["times"]
        other = sum(times.get(root, 0.0) for root in roots)
        answer = rep["pass_s"] + rep["finalize_s"]
        others.append(other)
        fractions.append(1.0 - other / answer)
    # Finalisation is a phase, not a layer: its untraced time is kept
    # here because its seed-to-seed spread is too wide for a bound.
    metrics["finalize_s"] = _median_or_zero([r["finalize_s"] for r in plain])
    metrics["other_s"] = _median_or_zero(others)
    metrics["trace.attributed_frac"] = _median_or_zero(fractions)
    traced_answer = _median_or_zero([r["pass_s"] + r["finalize_s"] for r in traced])
    plain_answer = _median_or_zero([r["pass_s"] + r["finalize_s"] for r in plain])
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_answer / plain_answer - 1.0) if plain_answer else 0.0
    )
    return metrics


def end_to_end_metrics(workload, result, reps, system, greedy, speed) -> dict:
    """Every end-to-end metric (as a summary) of one untraced run; every
    time is divided by the run's host-speed factor ``speed``."""
    setups = result.get("setups") or reps
    first = reps[0]
    return {
        "setup_s": summarize([r["setup_s"] / speed for r in setups]),
        "ingest_tokens_per_sec": summarize(
            [r["tokens"] * speed / r["pass_s"] for r in reps]
        ),
        "finalize_s": summarize([r["finalize_s"] / speed for r in reps]),
        "answer_s": summarize(
            [(r["pass_s"] + r["finalize_s"]) / speed for r in reps]
        ),
        "peak_rss_mb": summarize([result["peak_rss_mb"]]),
        "space_words": summarize([first["space_words"]]),
        "opt_ratio": summarize(
            [opt_ratio(workload, first["answer"], system, greedy)]
        ),
    }


def run_workload(name: str, args, work: Path) -> dict:
    """Generate, run in a child, check and aggregate one workload."""
    from repro.coverage.greedy import lazy_greedy

    workload = WORKLOADS[name]
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(
            f"warning: 1-minute load average {load:.2f} exceeds "
            f"{os.cpu_count()} CPUs before {name}",
            file=sys.stderr,
        )
    work.mkdir()
    system, stream = generate(workload, args.seed, args.quick)
    stream_path = work / f"{name}.npz"
    stream.save_binary(stream_path)
    k = workload.dims(args.quick)[2]
    greedy = lazy_greedy(system, k).coverage
    result_path = work / f"{name}.result.json"
    result = _run_child(
        {
            "workload": name,
            "seconds": args.seconds,
            "quick": args.quick,
            "trace": args.trace,
            "trace_out": _trace_out(args.trace_out, name, args.workload),
            "stream_path": str(stream_path),
            "result_path": str(result_path),
        },
        work,
    )
    stream_path.unlink()
    record = {"load_avg_1m": load, "tokens": len(stream)}
    if result is None:
        record.update(attempted=1, failed=1, failures=[NO_RESULT], metrics={})
        return record
    warmup, reps = result["warmup"], result["reps"]
    messages = check_answers(
        workload, warmup + reps, system, greedy, k, result.get("reference")
    )
    failures = [m for m in messages if m is not None]
    good = [r for r, m in zip(reps, messages[len(warmup):]) if m is None]
    probes = [r["probe_s"] for r in warmup + reps + result.get("setups", [])]
    speed = hostspeed.speed_factor(probes)
    record["host_speed"] = {"probe_s": summarize(probes), "factor": speed}
    record.update(
        attempted=len(messages),
        failed=len(failures),
        failures=failures,
        warmup_reps=len(warmup),
        timed_reps=len(reps),
        traced_reps=sum(1 for r in reps if r["traced"]),
    )
    record["failed_frac"] = len(failures) / max(1, len(messages))
    if "divergent_state_keys" in result:
        record["divergent_state_keys"] = result["divergent_state_keys"]
    if args.trace:
        record["metrics"] = layer_metrics(result, good)
    elif good:
        record["metrics"] = end_to_end_metrics(
            workload, result, good, system, greedy, speed
        )
    else:
        record["metrics"] = {}
    return record


def _trace_out(path, name: str, single: str | None):
    """Span file for ``name``: ``path`` itself for a one-workload run,
    ``<stem>.<name><suffix>`` beside it otherwise."""
    if not path:
        return None
    path = Path(path).resolve()
    if single:
        return str(path)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


def host_record(args) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "probe_nominal_s": hostspeed.NOMINAL_S,
    }


def _git_rev():
    """``git rev-parse HEAD`` of this checkout, or ``None`` outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _print_workload(name: str, record: dict, declared: dict) -> None:
    units = {**declared["end_to_end"], **declared["per_layer"]}
    print(
        f"[{name}] attempted={record['attempted']} failed={record['failed']} "
        f"timed_reps={record.get('timed_reps', 0)} "
        f"load_avg_1m={record['load_avg_1m']:.2f}"
    )
    if "host_speed" in record:
        probe = record["host_speed"]["probe_s"]
        print(
            f"  host speed factor {record['host_speed']['factor']:.4f} "
            f"(probe median {probe['median']:.4f} s over {probe['n']}; "
            f"nominal {hostspeed.NOMINAL_S} s); times below are divided by it"
        )
    for message in record["failures"]:
        print(f"  FAILED: {message}")
    for metric, value in record["metrics"].items():
        unit = units.get(metric, {}).get("unit", "")
        if isinstance(value, dict):
            print(
                f"  {metric:28s} {value['median']:>14.6g} {unit:9s} "
                f"q1 {value['q1']:.6g}  q3 {value['q3']:.6g}  n={value['n']}"
            )
        else:
            print(f"  {metric:28s} {value:>14.6g} {unit}")
    if "failed_frac" in record:
        print(f"  {'failed_frac':28s} {record['failed_frac']:>14.6g} fraction")


def _result_line(records: dict, declared: dict, trace: bool) -> dict:
    """The final JSON line: the declared metrics of every workload
    (prefixed by workload name when more than one ran)."""
    kind = "per_layer" if trace else "end_to_end"
    metrics: dict = {}
    for name, record in records.items():
        for metric, spec in declared[kind].items():
            if metric not in record["metrics"]:
                continue
            value = record["metrics"][metric]
            if isinstance(value, dict):
                value = value["median"]
            key = metric if len(records) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": spec["unit"]}
    complete = all(
        set(declared[kind]) <= set(r["metrics"]) for r in records.values()
    )
    failed = sum(r["failed"] for r in records.values())
    return {
        "correct": failed == 0 and complete,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        help="measuring time per workload (timed repetitions; default: "
        "run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--trace-out", help="with --trace 1, write every span to this JSON file"
    )
    parser.add_argument("--out", help="write the full results to this JSON file")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="~1/10 instances, one repetition each (self-check)",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args.child)
    if not (SRC / "repro").is_dir():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared_metrics(spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    host = host_record(args)
    records: dict = {}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name in names:
            records[name] = run_workload(name, args, work / name)
            _print_workload(name, records[name], declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    if args.out:
        Path(args.out).write_text(
            json.dumps({"host": host, "workloads": records}, indent=2) + "\n"
        )
    line = _result_line(records, declared, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
