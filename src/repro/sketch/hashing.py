"""d-wise independent hash families over a Mersenne prime field.

The paper (Appendix A, Lemma A.2, citing [40]) relies on families of
``d``-wise independent hash functions ``h : [m] -> [n]`` that can be stored
in ``d * log(mn)`` bits.  The classic construction is polynomial evaluation
over a prime field: pick ``d`` coefficients uniformly from ``GF(p)`` and set

    h(x) = ((a_{d-1} x^{d-1} + ... + a_1 x + a_0) mod p) mod n .

We use the Mersenne prime ``p = 2^31 - 1`` so products of two residues fit
comfortably in 64-bit integers, which lets us evaluate the polynomial over
whole numpy arrays with Horner's rule -- the hot path for every sketch in
this package.

The module exposes:

* :class:`KWiseHash` -- the raw family, mapping ``[p] -> [range_size]``.
* :class:`KWiseHashBank` -- many same-degree functions stacked into a
  ``(branches, degree)`` coefficient matrix and evaluated on a whole
  chunk with one batched Horner pass (the multi-branch hot path).
* :class:`SignHash` -- four-wise independent ``{-1, +1}`` hash used by
  CountSketch / AMS.
* :class:`SampledSet` -- rate-``1/r`` membership test implemented as
  ``h(x) == 0`` over ``r`` buckets, the paper's mechanism for set sampling
  and element sampling with ``Theta(log(mn))`` random bits (Appendix A.1).
* :class:`SampledSetBank` -- stacked membership tests for many sampled
  sets at once, built on :class:`KWiseHashBank`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MERSENNE_P",
    "KWiseHash",
    "KWiseHashBank",
    "SignHash",
    "SampledSet",
    "SampledSetBank",
    "default_degree",
    "same_hash",
    "same_sampled_set",
]

#: Mersenne prime 2^31 - 1; the field over which hash polynomials live.
MERSENNE_P = (1 << 31) - 1


def default_degree(m: int, n: int) -> int:
    """Return the paper's ``Theta(log(mn))`` independence degree.

    The analyses in the paper (Lemma A.5, A.6, Claim 4.9, ...) require
    ``Theta(log(mn))``-wise independence.  We use ``ceil(log2(m * n)) + 1``
    capped to a small practical range: degree below 4 breaks the 4-wise
    requirements of Lemma 3.5, and degrees beyond ~64 only slow evaluation
    without changing behaviour at any feasible scale.
    """
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    bits = math.ceil(math.log2(max(4, m)) + math.log2(max(4, n)))
    return int(min(64, max(4, bits + 1)))


def same_hash(a: "KWiseHash", b: "KWiseHash") -> bool:
    """Whether two hash functions are the *same* function.

    Merge validation uses this rather than comparing seeds: samplers and
    composite algorithms draw hash coefficients through intermediate
    generators, so coefficient equality is the ground truth for "these
    two instances partition the world identically".
    """
    return (
        a.range_size == b.range_size
        and a.degree == b.degree
        and np.array_equal(a._coeffs, b._coeffs)
    )


def same_sampled_set(a: "SampledSet", b: "SampledSet") -> bool:
    """Whether two :class:`SampledSet` instances sample identically."""
    return a.buckets == b.buckets and same_hash(a._hash, b._hash)


class KWiseHash:
    """A hash function drawn from a ``degree``-wise independent family.

    Parameters
    ----------
    range_size:
        Size of the output range; hashes land in ``[0, range_size)``.
    degree:
        Independence degree ``d``; the function is ``d``-wise independent
        over inputs in ``[0, MERSENNE_P)``.
    seed:
        Seed (or :class:`numpy.random.Generator`) used to draw the
        polynomial's coefficients.

    Notes
    -----
    The output is ``poly(x) mod range_size`` which is only near-uniform
    when ``range_size`` does not divide ``p``; the modulo bias is at most
    ``range_size / p < 2^-10`` for every range used in this package, far
    below the failure probabilities the analyses budget for.
    """

    def __init__(self, range_size: int, degree: int = 4, seed=0):
        if range_size < 1:
            raise ValueError(f"range_size must be >= 1, got {range_size}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.range_size = int(range_size)
        self.degree = int(degree)
        rng = np.random.default_rng(seed)
        # Leading coefficient non-zero keeps the polynomial degree exact.
        coeffs = rng.integers(0, MERSENNE_P, size=self.degree, dtype=np.int64)
        if self.degree > 1 and coeffs[0] == 0:
            coeffs[0] = 1
        self._coeffs = coeffs
        self._coeffs_py = [int(a) for a in coeffs]

    def __call__(self, x):
        """Hash ``x`` (int or integer ndarray) into ``[0, range_size)``."""
        if isinstance(x, (int, np.integer)):
            # Scalar fast path: plain Python ints beat numpy scalars by a
            # wide margin, and this is the per-stream-token hot path.
            acc = self._coeffs_py[0]
            xi = int(x) % MERSENNE_P
            for a in self._coeffs_py[1:]:
                acc = (acc * xi + a) % MERSENNE_P
            return acc % self.range_size
        # Array path: one Horner pass over the whole input.
        xs = np.asarray(x, dtype=np.int64) % MERSENNE_P
        acc = np.full_like(xs, self._coeffs_py[0])
        for a in self._coeffs_py[1:]:
            acc = (acc * xs + a) % MERSENNE_P
        return acc % self.range_size

    def space_words(self) -> int:
        """Words needed to store this function (its coefficients)."""
        return self.degree


class KWiseHashBank:
    """``B`` same-degree :class:`KWiseHash` functions, one Horner pass.

    The multi-branch engines -- universe reduction across all ``z``
    guesses, membership layers across samplers, CountSketch rows --
    each hold many independently seeded hashes of a single degree.
    Stacking the coefficient vectors into a ``(B, degree)`` matrix lets
    ``degree - 1`` fused multiply-add-mod sweeps over a ``(B, L)``
    accumulator evaluate *every* function on a whole chunk, instead of
    ``B`` separate Horner passes with their per-call numpy dispatch
    overhead.  Outputs are bit-identical to calling each member hash on
    its own (same field arithmetic, same order of operations).

    Range sizes may differ per member (each universe-reduction branch
    has its own ``z``); only the degree must match.
    """

    def __init__(self, hashes):
        hashes = list(hashes)
        if not hashes:
            raise ValueError("KWiseHashBank needs at least one hash")
        degrees = {h.degree for h in hashes}
        if len(degrees) != 1:
            raise ValueError(
                f"bank members must share one degree, got {sorted(degrees)}"
            )
        self.degree = degrees.pop()
        self.size = len(hashes)
        self._coeffs = np.stack([h._coeffs for h in hashes])
        self._ranges = np.asarray(
            [h.range_size for h in hashes], dtype=np.int64
        ).reshape(-1, 1)

    def eval_many(self, xs, out=None):
        """``(B, L)`` matrix with ``out[b, j] = hashes[b](xs[j])``.

        Inputs are reduced ``mod p`` first and residues stay below 2^31,
        so every product fits int64.  ``out``, when given, is a
        ``(B, len(xs))`` int64 buffer (a scratch-arena view) that the
        pass writes into and returns.
        """
        xs = np.asarray(xs, dtype=np.int64) % MERSENNE_P
        coeffs = self._coeffs
        acc = (
            out
            if out is not None
            else np.empty((coeffs.shape[0], len(xs)), dtype=np.int64)
        )
        acc[:] = coeffs[:, :1]
        for j in range(1, coeffs.shape[1]):
            acc *= xs
            acc += coeffs[:, j : j + 1]
            acc %= MERSENNE_P
        acc %= self._ranges
        return acc

    def space_words(self) -> int:
        """Words to store every member's coefficients."""
        return self.size * self.degree


class SignHash:
    """Four-wise independent hash into ``{-1, +1}``.

    Used by the AMS ``F_2`` estimator and CountSketch, both of which need
    exactly 4-wise independence for their variance bounds.
    """

    def __init__(self, degree: int = 4, seed=0):
        self._hash = KWiseHash(2, degree=degree, seed=seed)

    def __call__(self, x):
        bit = self._hash(x)
        if isinstance(bit, int):
            return 1 if bit == 1 else -1
        return np.where(bit == 1, 1, -1)

    def space_words(self) -> int:
        return self._hash.space_words()


class SampledSet:
    """Pseudorandom subset of ``[universe)`` with membership rate ``~1/rate``.

    Implements the paper's space-efficient sampling (Appendix A.1): a
    member ``x`` is *sampled* iff ``h(x) == 0`` for ``h`` drawn from a
    ``Theta(log(mn))``-wise independent family ``[universe] -> [rate]``.
    Storing the set costs only the hash coefficients -- ``O(degree)``
    words -- rather than one word per member.

    Parameters
    ----------
    rate:
        Inverse sampling probability; each item is kept with probability
        ``1/ceil(rate)``.  Values ``<= 1`` keep everything.
    degree:
        Independence degree of the underlying hash.
    seed:
        Randomness for the hash coefficients.
    """

    def __init__(self, rate: float, degree: int = 16, seed=0):
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        self.buckets = max(1, int(np.ceil(rate)))
        self._hash = KWiseHash(self.buckets, degree=degree, seed=seed)

    @property
    def probability(self) -> float:
        """Exact per-item sampling probability."""
        return 1.0 / self.buckets

    def contains(self, x) -> bool:
        """Whether item ``x`` belongs to the sampled set."""
        if self.buckets == 1:
            return True
        return self._hash(x) == 0

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an array of items."""
        if self.buckets == 1:
            return np.ones(len(xs), dtype=bool)
        return self._hash(xs) == 0

    def space_words(self) -> int:
        return self._hash.space_words() + 1


class SampledSetBank:
    """Stacked membership tests for ``B`` same-degree :class:`SampledSet`s.

    One :meth:`contains_matrix` call answers every member's
    :meth:`SampledSet.contains_many` on a whole chunk via a single
    :class:`KWiseHashBank` pass.  ``h(x) % 1 == 0`` always holds, so
    rate-1 members (which keep everything) need no special casing --
    the bank's row is all ``True`` exactly like the scalar path.
    """

    def __init__(self, sets):
        sets = list(sets)
        if not sets:
            raise ValueError("SampledSetBank needs at least one SampledSet")
        self.size = len(sets)
        self._bank = KWiseHashBank([s._hash for s in sets])

    def contains_matrix(self, xs) -> np.ndarray:
        """``(B, L)`` boolean matrix ``out[b, j] = sets[b].contains(xs[j])``."""
        return self._bank.eval_many(xs) == 0

    def space_words(self) -> int:
        return self._bank.space_words() + self.size
