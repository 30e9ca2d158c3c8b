"""Online chunk-size autotuning for columnar stream passes.

The best ``StreamRunner`` chunk size depends on the machine: numpy
wants chunks big enough to amortise per-call dispatch, and per-chunk
scratch (``branches x chunk_size`` reduction matrices) wants to stay in
cache.  The historical default of 4096 is a reasonable middle but
measurably wrong on some hosts in either direction.

:func:`drive_autotuned` picks the size empirically *during the real
pass*: it feeds a warm-up chunk (plan freeze and cache warming land
there), then times a few probe chunks at each
candidate size, then finishes the stream at the fastest size observed.
Every token is fed exactly once and in stream order -- the probing only
moves chunk *boundaries*, which the :meth:`process_batch` contract
already declares state-neutral ("state after a batch equals state after
processing the same tokens one by one"), so an autotuned pass produces
the same answers as any fixed-size pass modulo the documented
pool-pruning timing of candidate trackers.  The modular-hash values
themselves are computed per token and are bit-identical regardless of
chunking.

Probing costs nothing extra: probe chunks are real work, only their
timings are recorded.  Streams too short to finish probing simply keep
the best size seen so far (or the default when nothing was measured).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["AUTOTUNE_GRID", "AutotuneResult", "drive_autotuned"]

#: Geometric candidate grid.  Spans "definitely dispatch-bound" (1k) to
#: "definitely cache-hostile for wide branch matrices" (32k).
AUTOTUNE_GRID = (1024, 2048, 4096, 8192, 16384, 32768)

#: Fallback when a stream is too short for any probe to complete.
DEFAULT_CHUNK_SIZE = 4096

#: Timed chunks per candidate size.
PROBE_CHUNKS = 3


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of one autotuned pass.

    Attributes
    ----------
    chosen:
        Chunk size used for the remainder of the stream.
    tokens / chunks:
        Totals over the whole pass (warm-up + probes + remainder).
    probes:
        One ``{"chunk_size", "tokens", "seconds", "tokens_per_sec"}``
        row per candidate that got at least one timed chunk.
    """

    chosen: int
    tokens: int
    chunks: int
    probes: list = field(default_factory=list)

    def report(self) -> dict:
        """JSON-ready summary for :class:`repro.base.RunReport.autotune`."""
        return {
            "chosen": self.chosen,
            "grid": [int(p["chunk_size"]) for p in self.probes],
            "probes": self.probes,
        }


def drive_autotuned(
    feed,
    length: int,
    grid=AUTOTUNE_GRID,
    probe_chunks: int = PROBE_CHUNKS,
) -> AutotuneResult:
    """Feed ``length`` tokens through ``feed`` picking the chunk size online.

    Parameters
    ----------
    feed:
        ``feed(lo, hi)`` processes the half-open token range; the caller
        closes over its columns (``algo.process_batch(ids[lo:hi], ...)``).
    length:
        Total tokens available.
    grid:
        Candidate chunk sizes, probed in the given order.
    probe_chunks:
        Timed chunks per candidate.
    """
    grid = tuple(int(s) for s in grid)
    if not grid or any(s < 1 for s in grid):
        raise ValueError(f"grid must be positive chunk sizes, got {grid!r}")
    if probe_chunks < 1:
        raise ValueError(f"probe_chunks must be >= 1, got {probe_chunks}")

    pos = 0
    chunks = 0

    def run_chunk(size: int) -> int:
        nonlocal pos, chunks
        hi = min(pos + size, length)
        feed(pos, hi)
        fed = hi - pos
        pos = hi
        chunks += 1
        return fed

    # Warm-up chunk: JIT compilation, plan freeze and table building all
    # happen on the first chunk; timing it would poison the first probe.
    if pos < length:
        run_chunk(min(grid))

    probes: list = []
    for size in grid:
        if pos >= length:
            break
        fed = 0
        t0 = time.perf_counter()
        for _ in range(probe_chunks):
            if pos >= length:
                break
            fed += run_chunk(size)
        seconds = time.perf_counter() - t0
        probes.append(
            {
                "chunk_size": size,
                "tokens": fed,
                "seconds": seconds,
                "tokens_per_sec": fed / max(seconds, 1e-9),
            }
        )

    # Short final probe chunks under-rate a candidate; only full-size
    # probes are trusted when any exist.
    full = [p for p in probes if p["tokens"] >= p["chunk_size"]]
    ranked = full or probes
    if ranked:
        chosen = int(max(ranked, key=lambda p: p["tokens_per_sec"])["chunk_size"])
    else:
        chosen = DEFAULT_CHUNK_SIZE

    while pos < length:
        run_chunk(chosen)

    return AutotuneResult(
        chosen=chosen, tokens=length, chunks=chunks, probes=probes
    )
