"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the listed entry points of ``repro.streams``, ``repro.engine``,
``repro.core``, ``repro.sketch``, ``repro.coverage`` and
``repro.parallel`` at run time with span-recording timers (or, for
calls too frequent to time, plain counters), and :func:`uninstall`
puts the originals back.

A span is ``(id, name, start, end, parent, repetition)``.  A span's
*self time* is its duration minus the durations of its direct child
spans; self times and call counts are summed per ``(repetition, name)``
as spans close, so the per-layer metrics need no post-processing pass
over the span list.  The benchmark opens its own root spans
(``bench.setup``, ``bench.pass``, ``bench.finalize``) around each
phase, so the self time of a root is exactly the part of that phase
no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

#: Root spans the benchmark opens around its own phases.
ROOT_SETUP = "bench.setup"
ROOT_PASS = "bench.pass"
ROOT_FINALIZE = "bench.finalize"

#: ``(metric, module, attribute path)`` for every timed entry point.
#: Several entry points may share one metric; their self times add up.
#: A function imported by name is patched where it is looked up
#: (``repro.core.small_set.lazy_greedy``, not ``repro.coverage.greedy``).
TIMED = (
    ("streams.load_s", "repro.streams.edge_stream", "EdgeStream.load_binary"),
    ("core.construct_s", "repro.core.estimate", "EstimateMaxCover.__init__"),
    ("core.construct_s", "repro.core.reporting", "MaxCoverReporter.__init__"),
    (
        "parallel.spawn_s",
        "repro.parallel.persistent",
        "PersistentShardExecutor.__enter__",
    ),
    ("engine.plan_build_s", "repro.engine.plan", "EvalPlan.freeze"),
    ("engine.hash_eval_s", "repro.engine.plan", "EvalPlan.begin_chunk"),
    ("engine.hash_eval_s", "repro.engine.plan", "ChunkContext.values"),
    ("engine.hash_eval_s", "repro.engine.plan", "ChunkContext.mask"),
    ("core.dispatch_s", "repro.core.estimate", "EstimateMaxCover.process_batch"),
    ("core.dispatch_s", "repro.core.reporting", "MaxCoverReporter.process_batch"),
    ("core.dispatch_s", "repro.core.oracle", "Oracle._ingest_planned"),
    (
        "core.large_common_s",
        "repro.core.large_common",
        "LargeCommon._ingest_planned",
    ),
    (
        "core.large_common_s",
        "repro.core.reporting",
        "ReportingLargeCommon._ingest_planned",
    ),
    ("core.large_set_s", "repro.core.large_set", "LargeSetRun._process_planned"),
    ("core.small_set_s", "repro.core.small_set", "SmallSet._ingest_planned"),
    (
        "sketch.contributing_s",
        "repro.sketch.contributing",
        "F2Contributing.ingest_grouped",
    ),
    ("sketch.pool_s", "repro.sketch.countsketch", "F2HeavyHitter.ingest_unique"),
    (
        "sketch.pool_replay_s",
        "repro.sketch.countsketch",
        "F2HeavyHitter._replay_windows",
    ),
    ("sketch.scatter_s", "repro.sketch.countsketch", "CountSketch.update_grouped"),
    ("sketch.scatter_s", "repro.sketch.countsketch", "CountSketch.update_batch"),
    ("sketch.l0_insert_s", "repro.sketch.l0", "L0Sketch.process_tabulated"),
    (
        "sketch.hh_query_s",
        "repro.sketch.countsketch",
        "F2HeavyHitter.peek_heavy_hitters",
    ),
    ("core.small_set_solve_s", "repro.core.small_set", "SmallSet._run_value"),
    ("coverage.from_edges_s", "repro.coverage.setsystem", "SetSystem.from_edges"),
    ("coverage.greedy_s", "repro.core.small_set", "lazy_greedy"),
    ("core.finalize_other_s", "repro.core.estimate", "EstimateMaxCover.estimate"),
    ("core.finalize_other_s", "repro.core.reporting", "MaxCoverReporter.solution"),
    ("sketch.loads_state_s", "repro.parallel.persistent", "loads_state"),
    (
        "parallel.submit_s",
        "repro.parallel.persistent",
        "PersistentShardExecutor.submit",
    ),
    (
        "parallel.collect_wait_s",
        "repro.parallel.persistent",
        "PersistentShardExecutor.collect",
    ),
    # Only the top-level merge: nested child merges resolve to the
    # unpatched base-class method.
    ("parallel.merge_s", "repro.core.estimate", "EstimateMaxCover.merge"),
)

#: ``(counter, module, attribute path)`` for entry points that are only
#: counted.  ``ChunkContext.values``/``mask`` are timed above as well.
COUNTED = (
    ("engine.values_calls", "repro.engine.plan", "ChunkContext.values"),
    ("engine.mask_calls", "repro.engine.plan", "ChunkContext.mask"),
    ("sketch.pool_calls", "repro.sketch.countsketch", "F2HeavyHitter.ingest_unique"),
    (
        "sketch.pool_replays",
        "repro.sketch.countsketch",
        "F2HeavyHitter._replay_windows",
    ),
    ("sketch.l0_insert_calls", "repro.sketch.l0", "L0Sketch.process_tabulated"),
    # 50k+ scalar calls per finalisation: counted, never timed.
    ("sketch.cs_query_calls", "repro.sketch.countsketch", "CountSketch.query"),
)

#: Counter of heavy hitters reported by ``peek_heavy_hitters``.
REPORTED = "sketch.hh_reported"


class Tracer:
    """Span and counter store for one benchmark process.

    Disabled until :attr:`enabled` is set.  A forked child process (a
    shard worker) starts disabled: its spans would never reach the
    parent, and recording them would only slow the worker down.
    """

    def __init__(self, keep_spans: bool = False):
        self.enabled = False
        self.rep = -1
        self.keep_spans = keep_spans
        self.spans: list = []
        self.self_time: dict = {}
        self.counts: dict = {}
        self._next_id = 0
        self._ids: list = []
        self._names: list = []
        self._starts: list = []
        self._child: list = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def open(self, name: str) -> None:
        """Open a span nested in the innermost open span."""
        self._ids.append(self._next_id)
        self._next_id += 1
        self._names.append(name)
        self._child.append(0.0)
        self._starts.append(time.perf_counter())

    def close(self) -> None:
        """Close the innermost open span."""
        end = time.perf_counter()
        start = self._starts.pop()
        name = self._names.pop()
        child = self._child.pop()
        span_id = self._ids.pop()
        duration = end - start
        if self._child:
            self._child[-1] += duration
        key = (self.rep, name)
        self.self_time[key] = self.self_time.get(key, 0.0) + duration - child
        if self.keep_spans:
            parent = self._ids[-1] if self._ids else None
            self.spans.append((span_id, name, start, end, parent, self.rep))

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.rep, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def rep_totals(self, rep: int) -> tuple[dict, dict]:
        """``(self seconds by name, counts by name)`` for one repetition."""
        times = {n: v for (r, n), v in self.self_time.items() if r == rep}
        counts = {n: v for (r, n), v in self.counts.items() if r == rep}
        return times, counts

    def write(self, path) -> None:
        """Write every kept span as JSON (names interned in a table)."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [span_id, index[name], start, end, parent, rep]
            for span_id, name, start, end, parent, rep in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["id", "name", "start", "end", "parent", "rep"],
                    "names": names,
                    "spans": rows,
                },
                handle,
            )


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return traced


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.enabled:
            tracer.count(name)
        return fn(*args, **kwargs)

    return counted


def _reported(tracer: Tracer, fn):
    """Count the heavy hitters a ``peek_heavy_hitters`` call returns."""

    @functools.wraps(fn)
    def reported(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.enabled:
            tracer.count(REPORTED, len(result))
        return result

    return reported


def _frozen_once(tracer: Tracer, fn):
    """Time ``EvalPlan.freeze`` only when it does work.

    Every slot-table lookup re-enters ``freeze``, which returns at once
    on a frozen plan; recording those no-op calls as spans would cost
    more than the plan build they sit next to.
    """
    timed = _timed(tracer, "engine.plan_build_s", fn)

    @functools.wraps(fn)
    def freeze(plan):
        if plan._frozen:
            return None
        return timed(plan)

    return freeze


class _Patch:
    """One attribute replaced on a class or module, restorable."""

    def __init__(self, owner, attr: str, wrap):
        self.owner = owner
        self.attr = attr
        self.had_own = attr in vars(owner)
        self.original = vars(owner)[attr] if self.had_own else getattr(owner, attr)
        raw = self.original
        if isinstance(raw, classmethod):
            replacement = classmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        if self.had_own:
            setattr(self.owner, self.attr, self.original)
        else:
            delattr(self.owner, self.attr)


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list:
    """Wrap every listed entry point; returns the patches to undo.

    Counters are installed first, so where one call is both counted and
    timed the timer wraps the counter.
    """
    patches = []
    for name, module, path in COUNTED:
        owner, attr = _resolve(module, path)
        patches.append(
            _Patch(owner, attr, functools.partial(_counted, tracer, name))
        )
    owner, attr = _resolve(
        "repro.sketch.countsketch", "F2HeavyHitter.peek_heavy_hitters"
    )
    patches.append(_Patch(owner, attr, functools.partial(_reported, tracer)))
    for name, module, path in TIMED:
        owner, attr = _resolve(module, path)
        if path == "EvalPlan.freeze":
            wrap = functools.partial(_frozen_once, tracer)
        else:
            wrap = functools.partial(_timed, tracer, name)
        patches.append(_Patch(owner, attr, wrap))
    return patches


def uninstall(patches: list) -> None:
    """Undo :func:`install`, innermost patch last."""
    for patch in reversed(patches):
        patch.undo()
