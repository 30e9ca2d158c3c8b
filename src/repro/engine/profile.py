"""Opt-in per-kernel wall-clock accounting for the fused engine.

``repro bench --profile`` flips :data:`PROFILER` on for one measured
pass and prints where the time went: k-wise hash evaluation, the
contributing detectors' one-time layout builds, sketch scatter updates,
distinct-element inserts (``kmv-insert`` for LargeSet's case-2b bank,
``l0-insert`` for LargeCommon's sketches), shard merging.  The
categories are coarse by design -- they answer "which kernel family
should the next perf PR attack", not "which line".

Instrumented call sites guard on :attr:`KernelProfiler.enabled` before
touching the clock, so the disabled profiler costs one attribute check
on the hot path.
"""

from __future__ import annotations

import contextlib
import time

__all__ = ["KernelProfiler", "PROFILER"]


class KernelProfiler:
    """Accumulates seconds and call counts per kernel category."""

    __slots__ = ("enabled", "seconds", "calls", "_stack")

    def __init__(self) -> None:
        self.enabled = False
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # Open span() frames; each entry accumulates child-span seconds
        # so nested categories report *self time* and totals stay <= the
        # pass's wall clock instead of double counting.
        self._stack: list[float] = []

    def reset(self) -> None:
        """Clear accumulated timings (does not change ``enabled``)."""
        self.seconds.clear()
        self.calls.clear()
        self._stack.clear()

    def start(self) -> None:
        self.reset()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def add(self, category: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` of wall clock to ``category``."""
        self.seconds[category] = self.seconds.get(category, 0.0) + seconds
        self.calls[category] = self.calls.get(category, 0) + calls

    def clock(self) -> float:
        """The clock instrumented sites use; exposed for symmetry."""
        return time.perf_counter()

    @contextlib.contextmanager
    def span(self, category: str):
        """Time a region, crediting its *self time* to ``category``.

        Unlike a bare :meth:`add`, spans nest correctly: a ``horner``
        span opened inside a ``hash-eval`` span credits the Horner pass
        to ``horner`` and only the surrounding bookkeeping to
        ``hash-eval``, so category totals sum to at most the pass's
        wall clock.  Call sites should still guard on :attr:`enabled`
        before entering a span -- a disabled span yields immediately but
        the context-manager machinery is not free on a per-chunk path.
        """
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child_seconds = self._stack.pop()
            self.add(category, max(0.0, elapsed - child_seconds))
            if self._stack:
                self._stack[-1] += elapsed

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{category: {"seconds": ..., "calls": ...}}``, sorted by cost."""
        return {
            name: {
                "seconds": round(self.seconds[name], 6),
                "calls": self.calls.get(name, 0),
            }
            for name in sorted(
                self.seconds, key=self.seconds.__getitem__, reverse=True
            )
        }


#: Process-wide profiler instance shared by every instrumented kernel.
PROFILER = KernelProfiler()
