"""Fused evaluation engine for the multi-branch streaming composites.

The composite tree (``EstimateMaxCover -> UniverseReducer -> Oracle ->
LargeCommon/LargeSet/SmallSet -> SampledSet/L0/F2/CountSketch``)
evaluates many k-wise polynomial hash families against the same two
chunk columns.  :mod:`repro.engine.plan` collects those families into a
shared :class:`~repro.engine.plan.EvalPlan` that deduplicates identical
``(range, degree, coefficients)`` members, evaluates same-degree groups
with one Horner pass, and memoises every per-chunk result so nested
composites reuse parent evaluations instead of re-hashing.  Every
kernel is plain numpy on int64 arrays.

:mod:`repro.engine.arena` holds the per-plan scratch buffers those
passes write into; :mod:`repro.engine.autotune` picks the chunk size
empirically for ``StreamRunner(chunk_size="auto")``.

:mod:`repro.engine.profile` carries the opt-in per-kernel timer behind
``repro bench --profile``.

Every name here is imported lazily (PEP 562): the sketch modules
(``repro.sketch.countsketch``, ``repro.sketch.l0``) import
``repro.engine.profile``, and an eager ``plan`` import here would close
an import cycle back onto ``repro.sketch``.
"""

__all__ = [
    "ChunkContext",
    "EvalPlan",
    "KernelProfiler",
    "PROFILER",
    "ScratchArena",
    "drive_autotuned",
]

_LAZY = {
    "ChunkContext": "repro.engine.plan",
    "EvalPlan": "repro.engine.plan",
    "PROFILER": "repro.engine.profile",
    "KernelProfiler": "repro.engine.profile",
    "ScratchArena": "repro.engine.arena",
    "drive_autotuned": "repro.engine.autotune",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
