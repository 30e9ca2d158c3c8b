"""Fused evaluation engine for the multi-branch streaming composites.

The composite tree (``EstimateMaxCover -> UniverseReducer -> Oracle ->
LargeCommon/LargeSet/SmallSet -> SampledSet/L0/F2/CountSketch``)
evaluates many k-wise polynomial hash families against the same two
chunk columns.  :mod:`repro.engine.plan` collects those families into a
shared :class:`~repro.engine.plan.EvalPlan` that deduplicates identical
``(range, degree, coefficients)`` members, evaluates same-degree groups
with one Horner pass, and memoises every per-chunk result so nested
composites reuse parent evaluations instead of re-hashing.

:mod:`repro.engine.backend` is the array-backend shim those passes run
on: a numpy reference implementation and a torch (CPU/CUDA) port of the
same primitives, selected per run and bit-identical by contract.
:mod:`repro.engine.arena` holds the per-plan scratch arena the numpy
backend writes into; :mod:`repro.engine.autotune` picks the chunk size
empirically for ``StreamRunner(chunk_size="auto")``.

:mod:`repro.engine.profile` carries the opt-in per-kernel timer behind
``repro bench --profile``.

``plan``/``profile`` are imported lazily (PEP 562): the low-level
hashing module imports ``repro.engine.backend``, and an eager ``plan``
import here would close an import cycle back onto ``repro.sketch``.
"""

from repro.engine.backend import (
    BACKEND_CHOICES,
    ArrayBackend,
    BackendUnavailableError,
    NumpyBackend,
    TorchBackend,
    active_backend,
    available_backends,
    backend_of,
    cuda_available,
    get_backend,
    resolve_backend,
    set_active_backend,
    torch_available,
    use_backend,
)

__all__ = [
    "ArrayBackend",
    "BACKEND_CHOICES",
    "BackendUnavailableError",
    "ChunkContext",
    "EvalPlan",
    "KernelProfiler",
    "NumpyBackend",
    "PROFILER",
    "ScratchArena",
    "TorchBackend",
    "active_backend",
    "available_backends",
    "backend_of",
    "cuda_available",
    "drive_autotuned",
    "get_backend",
    "resolve_backend",
    "set_active_backend",
    "torch_available",
    "use_backend",
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
