"""Per-plan scratch arenas: zero-allocation reuse of per-chunk buffers.

Every chunk of a planned pass used to allocate the same transient
arrays again and again: the ``(B, L)`` Horner output bank of each
mega-bank group, the gathered values/masks of every tabulated slot, the
all-true masks of rate-1 samplers.  A :class:`ScratchArena` owned by the
:class:`~repro.engine.plan.EvalPlan` hands those call sites a reusable
buffer instead, so the steady-state hot loop performs no numpy
allocations for plan intermediates at all.

Lifetime rules (the contract every consumer relies on):

* An arena buffer is valid **for one chunk only**.  ``EvalPlan.begin_chunk``
  implicitly invalidates every buffer handed out for the previous chunk
  -- the next chunk overwrites them in place.  This is exactly the
  existing :class:`~repro.engine.plan.ChunkContext` contract ("returned
  arrays are shared between consumers: treat them as read-only"), with
  "and do not retain them across chunks" now load-bearing.
* Anything that must survive the chunk (sketch tables, pools, plan
  domain tables) is therefore **never** served from the arena; it must
  own its storage.  ``Slot._table`` / ``mask_table`` are built at plan
  freeze from regular allocations for this reason.
* Buffers grow monotonically to the largest shape requested under a
  key and are sliced down per chunk, so a short final chunk reuses the
  full-size buffer's prefix rather than reallocating.

The arena is a CPython speed cache exactly like the plan's domain
tables: it holds no charged state and ``space_words`` accounting is
unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScratchArena"]


class ScratchArena:
    """Keyed pool of reusable scratch buffers for one plan.

    ``take(key, shape, dtype)`` returns a writable array view of exactly
    ``shape``, backed by a capacity buffer that is reused across chunks.
    """

    __slots__ = ("hits", "misses", "_buffers")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._buffers: dict = {}

    def take(self, key, shape, dtype=np.int64):
        """A reusable buffer view of ``shape``.

        The returned view's contents are undefined; callers must fully
        overwrite it.  Valid for the current chunk only (see the module
        docstring for the lifetime rules).
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(key)
        if (
            buffer is None
            or buffer.dtype != dtype
            or any(c < s for c, s in zip(buffer.shape, shape))
            or buffer.ndim != len(shape)
        ):
            capacity = (
                shape
                if buffer is None or buffer.ndim != len(shape)
                else tuple(
                    max(c, s) for c, s in zip(buffer.shape, shape)
                )
            )
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[key] = buffer
            self.misses += 1
        else:
            self.hits += 1
        if buffer.shape == shape:
            return buffer
        return buffer[tuple(slice(0, s) for s in shape)]

    @property
    def buffer_count(self) -> int:
        """Distinct buffers currently pooled (diagnostics only)."""
        return len(self._buffers)

    def nbytes(self) -> int:
        """Total bytes pooled across all buffers (diagnostics only)."""
        return int(sum(b.nbytes for b in self._buffers.values()))
