"""Universe reduction (Section 3.1 of the paper).

``EstimateMaxCover`` may face instances whose optimal coverage is a tiny
fraction of the universe, while every sampling-based method pays space
proportional to the reciprocal of that fraction.  The fix (Lemma 3.5,
Theorem 3.6): for a guess ``z`` of the optimal coverage, hash the ground
set onto ``z`` *pseudo-elements* with a 4-wise independent hash.  Then

* coverage never increases (``|h(C(Q))| <= |C(Q)|``) -- so estimates made
  downstream remain valid lower bounds; and
* if ``|C(OPT)| >= z >= 32``, with probability at least 3/4 the image of
  the optimal coverage keeps at least ``z/4`` pseudo-elements
  (Lemma 3.5's Chebyshev argument on pairwise collision counts) -- so the
  reduced instance has optimal coverage at least a quarter of its
  universe, i.e. ``eta = 4``.

:class:`UniverseReducer` is the hash wrapper; it maps each stream edge
``(S, e)`` to ``(S, h(e))`` on the fly.  The vectorised path of
``EstimateMaxCover`` registers every branch's reduction hash on its
fused evaluation plan (:mod:`repro.engine.plan`), so one Horner pass
reduces a chunk of edges for every branch at once.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import KWiseHash

__all__ = ["UniverseReducer"]


class UniverseReducer:
    """4-wise independent map from ``[n]`` onto ``z`` pseudo-elements.

    Parameters
    ----------
    z:
        Target pseudo-universe size (the guess of ``|C(OPT)|``).
    seed:
        Randomness for the hash.  A fresh seed per repetition implements
        the ``log(1/delta)`` probability boosting of Figure 1.
    """

    def __init__(self, z: int, seed=0):
        if z < 1:
            raise ValueError(f"z must be >= 1, got {z}")
        self.z = int(z)
        self._hash = KWiseHash(self.z, degree=4, seed=seed)

    def map_element(self, element: int) -> int:
        """The pseudo-element ``h(e)`` in ``[0, z)``."""
        return self._hash(int(element))

    def map_batch(self, elements):
        """Vectorised :meth:`map_element` over an integer array."""
        return self._hash(np.asarray(elements, dtype=np.int64))

    def map_edge(self, set_id: int, element: int) -> tuple[int, int]:
        """Transform a stream edge ``(S, e)`` to ``(S, h(e))``."""
        return set_id, self._hash(int(element))

    def image_size(self, elements) -> int:
        """``|h(S)|`` for an explicit element collection (testing aid)."""
        return len({self._hash(int(e)) for e in elements})

    def space_words(self) -> int:
        return self._hash.space_words() + 1

