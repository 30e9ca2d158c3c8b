"""d-wise independent hash families over a Mersenne prime field.

The paper (Appendix A, Lemma A.2, citing [40]) relies on families of
``d``-wise independent hash functions ``h : [m] -> [n]`` that can be stored
in ``d * log(mn)`` bits.  The classic construction is polynomial evaluation
over a prime field: pick ``d`` coefficients uniformly from ``GF(p)`` and set

    h(x) = ((a_{d-1} x^{d-1} + ... + a_1 x + a_0) mod p) mod n .

We use the Mersenne prime ``p = 2^31 - 1`` so products of two residues fit
comfortably in 64-bit integers, which lets us evaluate the polynomial over
whole numpy arrays with Horner's rule -- the hot path for every sketch in
this package.  Stacks of high-degree hashes are evaluated instead as two
exact float64 matrix products against a table of powers (see
:func:`eval_rows`), to the same residues.

A hash with seed ``s`` draws its coefficients as
``np.random.default_rng(s).integers(0, p, size=d)``, with the leading
coefficient forced non-zero.  One generator per hash costs about 24 us,
and an estimator holds thousands of hashes, so construction derives
them in bulk instead: :func:`kwise_coefficients` replays numpy's
derivation for a whole array of integer seeds at once and returns the
same coefficients bit for bit.  Objects hand their children seeds
drawn as ``rng.integers(0, 2**63)``; :func:`seed_draws` replays those
draws in bulk the same way, so a whole seed tree is derived without one
generator per node.  The estimator roots construct inside
:func:`coefficient_batch`, where every :class:`KWiseHash` with an integer
seed in ``[0, 2^64)``, every :class:`~repro.sketch.l0.KMVBank` row and
every :class:`~repro.sketch.contributing.F2Contributing` level queues
its seeds (or the parent seeds its row seeds are drawn from), and one
:func:`seed_draws` call and one :func:`kwise_coefficients` call fill
them all when the outermost batch closes.  Reading a queued hash early
fills the batch at once, so no read sees anything but the drawn
coefficients.  Other seeds (a ``Generator``, ``None``, a
``SeedSequence``, a negative value) and batches too small for the
kernels to pay off draw through numpy, which stays the reference the
tests compare against.

The module exposes:

* :class:`KWiseHash` -- the raw family, mapping ``[p] -> [range_size]``.
* :class:`KWiseHashBank` -- many same-degree functions stacked into a
  ``(branches, degree)`` coefficient matrix on first use and evaluated on
  a whole chunk with one :func:`eval_rows` pass (the multi-branch hot
  path).
* :class:`SignHash` -- four-wise independent ``{-1, +1}`` hash used by
  CountSketch / AMS.
* :class:`SampledSet` -- rate-``1/r`` membership test implemented as
  ``h(x) == 0`` over ``r`` buckets, the paper's mechanism for set sampling
  and element sampling with ``Theta(log(mn))`` random bits (Appendix A.1).
* :class:`SampledSetBank` -- stacked membership tests for many sampled
  sets at once, built on :class:`KWiseHashBank`.
* :func:`eval_rows` -- the pass over a stacked coefficient matrix that
  :class:`KWiseHash`, :class:`KWiseHashBank`, the contributing detectors
  and the KMV bank's value table share: Horner, or an exact power-table
  product for two or more hashes of degree 8 to 64.
* :func:`kwise_coefficients`, :func:`seed_draws` and
  :func:`coefficient_batch` -- the bulk derivation above.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

__all__ = [
    "MERSENNE_P",
    "KWiseHash",
    "KWiseHashBank",
    "SignHash",
    "SampledSet",
    "SampledSetBank",
    "coefficient_batch",
    "default_degree",
    "eval_rows",
    "kwise_coefficients",
    "same_hash",
    "same_sampled_set",
    "seed_draws",
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


# -- bulk coefficient derivation --------------------------------------------

#: Batches of fewer seeds draw per seed through numpy.  Measured on a
#: 2-CPU host: numpy draws a seed in ~27 us, and the kernel costs a fixed
#: 0.4 ms at degree 4 up to 1.0 ms at degree 22 for batches this small,
#: so it pays off from about 16 seeds at degree 4 and 37 at degree 22.
_KERNEL_MIN_SEEDS = 32

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT16 = np.uint32(16)

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a four-word pool,
# hash and mix constants.
_POOL_SIZE = 4
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), split
# into the 64-bit halves and 32-bit quarters the limb arithmetic uses.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & (2**64 - 1))
_PCG_MULT_LO0 = np.uint64(_PCG_MULT & 0xFFFFFFFF)
_PCG_MULT_LO1 = np.uint64((_PCG_MULT >> 32) & 0xFFFFFFFF)


def _hash_rounds(init: int, mult: int, count: int) -> list:
    """``(xor, multiplier)`` of SeedSequence's first ``count`` hash rounds.

    A round is ``v ^= c; c *= mult; v *= c; v ^= v >> 16`` with a running
    constant ``c`` that never depends on the data, so the whole sequence
    is known up front.
    """
    rounds = []
    for _ in range(count):
        xor, init = init, (init * mult) & 0xFFFFFFFF
        rounds.append((np.uint32(xor), np.uint32(init)))
    return rounds


#: Pool mixing: four rounds to fill the pool, one per ordered pair of
#: distinct pool words to mix it.
_MIX_ROUNDS = _hash_rounds(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
#: ``generate_state(4, np.uint64)``: eight 32-bit output words.
_STATE_ROUNDS = _hash_rounds(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)


def _hash_round(words, constants):
    xor, mult = constants
    words = (words ^ xor) * mult
    return words ^ (words >> _SHIFT16)


def _seed_sequence_state(seeds):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed,
    as four uint64 arrays.

    A seed's entropy is its little-endian 32-bit words.  A seed below
    ``2^32`` has one word, and the pool pads it with a hashed zero, which
    is what a zero high word hashes to, so every seed mixes as two words.
    """
    rounds = iter(_MIX_ROUNDS)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [
        _hash_round(word, next(rounds))
        for word in (
            (seeds & _MASK32).astype(np.uint32),
            (seeds >> _SHIFT32).astype(np.uint32),
            zero,
            zero,
        )
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hash_round(
                    pool[src], next(rounds)
                )
                pool[dst] = mixed ^ (mixed >> _SHIFT16)
    words = [
        _hash_round(pool[i % _POOL_SIZE], constants).astype(np.uint64)
        for i, constants in enumerate(_STATE_ROUNDS)
    ]
    return [words[2 * j] | (words[2 * j + 1] << _SHIFT32) for j in range(4)]


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """``state * MULT + inc`` mod ``2^128`` on ``(hi, lo)`` uint64 limbs."""
    # The high word of lo * MULT_LO, from 32-bit partial products.
    lo0 = lo & _MASK32
    lo1 = lo >> _SHIFT32
    p00 = lo0 * _PCG_MULT_LO0
    p01 = lo0 * _PCG_MULT_LO1
    p10 = lo1 * _PCG_MULT_LO0
    mid = (p00 >> _SHIFT32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = lo1 * _PCG_MULT_LO1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32)
    carry += mid >> _SHIFT32
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


def _pcg64_seeded(seeds):
    """``(state_hi, state_lo, inc_hi, inc_lo)`` of ``PCG64(seed)``."""
    seed_hi, seed_lo, inc_hi, inc_lo = _seed_sequence_state(seeds)
    inc_hi = (inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63))
    inc_lo = (inc_lo << np.uint64(1)) | np.uint64(1)
    # pcg_setseq_128_srandom_r: from state 0 one step leaves ``inc``;
    # add the seed, then step once more.
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_output(hi, lo):
    """PCG64's XSL-RR output: the state's two words xored, rotated right
    by its top six bits."""
    mixed = hi ^ lo
    rot = hi >> np.uint64(58)
    left = (np.uint64(64) - rot) & np.uint64(63)
    return (mixed >> rot) | (mixed << left)


def _bounded_draws(seeds, counts, range_size: int):
    """``default_rng(seed).integers(0, range_size, size=count)`` per seed.

    Returns an ``(len(seeds), max(counts))`` int64 matrix whose row ``i``
    begins with the ``counts[i]`` values seed ``i`` draws; the rest is 0.
    Each PCG64 step's 64-bit XSL-RR output gives two 32-bit draws, low
    half first.  Lemire's method maps a draw ``x`` to
    ``x * range_size >> 32`` and rejects it when the low 32 bits of that
    product fall below ``2^32 mod range_size``; a lane then draws again.
    Lanes leave the loop once they hold their count.
    """
    if not 1 <= range_size <= 1 << 32:
        raise ValueError(f"range_size must be in [1, 2^32], got {range_size}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), seeds.shape)
    out = np.zeros((len(seeds), counts.max(initial=0)), dtype=np.int64)
    scale = np.uint64(range_size)
    threshold = np.uint64((1 << 32) % range_size)
    hi, lo, inc_hi, inc_lo = _pcg64_seeded(seeds)
    lanes = np.arange(len(seeds))
    need = counts
    filled = np.zeros(len(seeds), dtype=np.int64)
    live = need > 0
    while True:
        if not live.all():
            lanes, need, filled, hi, lo, inc_hi, inc_lo = (
                a[live] for a in (lanes, need, filled, hi, lo, inc_hi, inc_lo)
            )
        if not len(lanes):
            return out
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        word = _pcg64_output(hi, lo)
        for draw in (word & _MASK32, word >> _SHIFT32):
            scaled = draw * scale
            take = ((scaled & _MASK32) >= threshold) & (filled < need)
            out[lanes[take], filled[take]] = scaled[take] >> _SHIFT32
            filled += take
        live = filled < need


def _seed_array(seeds) -> np.ndarray:
    """``seeds`` as uint64, provided each is an integer in ``[0, 2^64)``."""
    if isinstance(seeds, np.ndarray):
        if seeds.ndim != 1 or (seeds.size and seeds.dtype.kind not in "iu"):
            raise ValueError("seeds must be a 1-D array of integers")
        if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
            raise ValueError("seeds must be non-negative")
    elif not all(_is_plain_seed(seed) for seed in seeds):
        raise ValueError("seeds must be integers in [0, 2^64)")
    # An explicit dtype: numpy infers float64 for ints of 2^63 and above.
    return np.asarray(seeds, dtype=np.uint64)


def seed_draws(seeds, counts) -> np.ndarray:
    """``default_rng(seed).integers(0, 2**63, size=count)`` per seed.

    ``seeds`` holds integers in ``[0, 2^64)`` and ``counts`` one count,
    or one per seed.  Returns an ``(len(seeds), max(counts))`` int64
    matrix whose row ``i`` begins with seed ``i``'s ``counts[i]`` draws,
    zero-padded.  Over ``[0, 2^63)`` numpy's Lemire draw never rejects
    and returns the top 63 bits of one 64-bit output, so each draw is
    one PCG64 step: the whole matrix takes ``max(counts)`` steps over
    all seeds at once.  This derives the seeds that objects built with
    ``rng.integers(0, 2**63)`` hand their children.
    """
    seeds = _seed_array(seeds)
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), seeds.shape)
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    width = int(counts.max(initial=0))
    out = np.empty((len(seeds), width), dtype=np.int64)
    hi, lo, inc_hi, inc_lo = _pcg64_seeded(seeds)
    for column in range(width):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        out[:, column] = _pcg64_output(hi, lo) >> np.uint64(1)
    out[np.arange(width) >= counts[:, None]] = 0
    return out


def kwise_coefficients(seeds, degree) -> np.ndarray:
    """Coefficients of ``KWiseHash(r, degree, seed)`` for many seeds at once.

    ``seeds`` holds integers in ``[0, 2^64)``; ``degree`` is one degree
    or one per seed.  Returns an ``(len(seeds), max degree)`` int64
    matrix whose row ``i`` begins with the coefficients seed ``i``'s hash
    draws, zero-padded: bit for bit what numpy's per-seed draw gives.  A
    smaller degree takes a prefix of the same draws, so mixed degrees
    share one pass.
    """
    seeds = _seed_array(seeds)
    degrees = np.broadcast_to(np.asarray(degree, dtype=np.int64), seeds.shape)
    if degrees.size and degrees.min() < 1:
        raise ValueError("degree must be >= 1")
    coeffs = _bounded_draws(seeds, degrees, MERSENNE_P)
    # Leading coefficient non-zero keeps the polynomial degree exact.
    if coeffs.shape[1]:
        coeffs[(degrees > 1) & (coeffs[:, 0] == 0), 0] = 1
    return coeffs


def _draw_coefficients(seed, degree: int) -> np.ndarray:
    """One hash's coefficients through numpy's own generator (the
    reference :func:`kwise_coefficients` replays)."""
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, MERSENNE_P, size=degree, dtype=np.int64)
    if degree > 1 and coeffs[0] == 0:
        coeffs[0] = 1
    return coeffs


def _coefficient_rows(seeds: list, degrees) -> np.ndarray:
    """:func:`kwise_coefficients` of integer ``seeds``, drawn per seed
    through numpy when there are too few for the kernel to pay off."""
    if len(seeds) >= _KERNEL_MIN_SEEDS:
        return kwise_coefficients(np.asarray(seeds, dtype=np.uint64), degrees)
    degrees = np.broadcast_to(degrees, len(seeds))
    rows = np.zeros((len(seeds), degrees.max(initial=0)), dtype=np.int64)
    for row, seed, degree in zip(rows, seeds, degrees.tolist()):
        row[:degree] = _draw_coefficients(seed, degree)
    return rows


def _seed_rows(seeds: list, counts) -> np.ndarray:
    """:func:`seed_draws` of integer ``seeds``, drawn per seed through
    numpy (the reference the kernel replays) when there are too few for
    the kernel to pay off."""
    if len(seeds) >= _KERNEL_MIN_SEEDS:
        return seed_draws(np.asarray(seeds, dtype=np.uint64), counts)
    counts = np.broadcast_to(counts, len(seeds))
    rows = np.zeros((len(seeds), counts.max(initial=0)), dtype=np.int64)
    for row, seed, count in zip(rows, seeds, counts.tolist()):
        rng = np.random.default_rng(seed)
        row[:count] = rng.integers(0, 2**63, size=count)
    return rows


def _request_seeds(requests) -> list:
    """Every request's integer seeds, in request order.

    A request is ``(seeds, degree, draws)``.  With ``draws=None`` its
    seeds are given; otherwise they are each parent seed's first
    ``draws`` :func:`seed_draws`, parent-major, derived for every such
    request in one call.
    """
    derived = [(parents, draws) for parents, _deg, draws in requests if draws]
    if derived:
        rows = _seed_rows(
            [parent for parents, _draws in derived for parent in parents],
            np.repeat(
                [draws for _parents, draws in derived],
                [len(parents) for parents, _draws in derived],
            ),
        )
    seeds, start = [], 0
    for parents, _degree, draws in requests:
        if draws is None:
            seeds.extend(parents)
        elif draws:
            stop = start + len(parents)
            seeds.extend(rows[start:stop, :draws].ravel().tolist())
            start = stop
    return seeds


def _request_size(request) -> int:
    parents, _degree, draws = request
    return len(parents) * (1 if draws is None else draws)


class _CoefficientBatch:
    """Requests waiting for their coefficients, and the objects awaiting
    them."""

    def __init__(self):
        self._waiting: list = []

    def defer(self, target, requests: list) -> None:
        self._waiting.append((target, requests))
        target._batch = self

    def fill(self) -> None:
        """Derive every waiting seed's coefficients in one call and hand
        each target one block per request."""
        waiting, self._waiting = self._waiting, []
        if not waiting:
            return
        requests = [request for _target, group in waiting for request in group]
        sizes = [_request_size(request) for request in requests]
        row_degrees = np.repeat([degree for _s, degree, _d in requests], sizes)
        rows = _coefficient_rows(_request_seeds(requests), row_degrees)
        # One compact block per degree; targets keep views of it, not of
        # the zero-padded matrix.
        blocks = {
            degree: rows[row_degrees == degree, :degree]
            for degree in {degree for _s, degree, _d in requests}
        }
        offsets = dict.fromkeys(blocks, 0)
        sizes = iter(sizes)
        for target, group in waiting:
            parts = []
            for _seeds, degree, _draws in group:
                start = offsets[degree]
                offsets[degree] = start + next(sizes)
                parts.append(blocks[degree][start : offsets[degree]])
            del target._batch
            target._fill(*parts)


_LOCAL = threading.local()


@contextlib.contextmanager
def coefficient_batch():
    """Derive the coefficients of everything constructed inside at once.

    Within the context, a :class:`KWiseHash` with an integer seed in
    ``[0, 2^64)`` queues its seed instead of drawing, and so does every
    :class:`~repro.sketch.l0.KMVBank` row and every
    :class:`~repro.sketch.contributing.F2Contributing` level; one
    :func:`seed_draws` call derives the seeds that are drawn from other
    seeds, and one :func:`kwise_coefficients` call fills them all, when
    the context exits, even by an exception.  Batches are per thread,
    and a batch opened inside another joins it, so nested roots (an
    ``Oracle`` inside ``EstimateMaxCover``) share the outermost one.
    """
    if getattr(_LOCAL, "batch", None) is not None:
        yield
        return
    batch = _LOCAL.batch = _CoefficientBatch()
    try:
        yield
    finally:
        _LOCAL.batch = None
        batch.fill()


def defer_coefficients(target, *requests) -> None:
    """Have ``target._fill`` receive one coefficient block per request:
    when the active batch fills, or at once outside a batch.

    A request ``(seeds, degree)`` asks for the ``(len(seeds), degree)``
    coefficients of the integer ``seeds``.  A request ``(parents,
    degree, draws)`` asks for those of each parent's first ``draws``
    child seeds (``default_rng(parent).integers(0, 2**63, size=draws)``),
    parent-major: ``(len(parents) * draws, degree)``.
    """
    requests = [
        (request[0], request[1], request[2] if len(request) > 2 else None)
        for request in requests
    ]
    batch = getattr(_LOCAL, "batch", None)
    if batch is None:
        target._fill(
            *(
                _coefficient_rows(_request_seeds([request]), request[1])
                for request in requests
            )
        )
    else:
        batch.defer(target, requests)


class DeferredCoefficients:
    """Base of objects whose ``_coeffs`` a coefficient batch may fill.

    Until the batch fills, a waiting object has no ``_coeffs`` (nor any
    other name in ``_FILLED``) and holds the batch as ``_batch``; the
    first read of a missing name fills the batch then, so reads always
    see the drawn coefficients.  Subclasses implement ``_fill(coeffs)``.
    """

    _FILLED = ("_coeffs",)

    def __getattr__(self, name):
        # Reached only for names missing from the instance.
        batch = self.__dict__.get("_batch")
        if batch is not None and name in self._FILLED:
            batch.fill()
            if name in self.__dict__:
                return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


def _is_plain_seed(seed) -> bool:
    """Whether numpy would seed ``seed`` as one integer in ``[0, 2^64)``."""
    return isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 1 << 64


class KWiseHash(DeferredCoefficients):
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
        polynomial's coefficients.  Inside :func:`coefficient_batch` an
        integer seed in ``[0, 2^64)`` is queued and drawn with the rest
        of the batch, to the same coefficients.

    Notes
    -----
    The output is ``poly(x) mod range_size`` which is only near-uniform
    when ``range_size`` does not divide ``p``; the modulo bias is at most
    ``range_size / p < 2^-10`` for every range used in this package, far
    below the failure probabilities the analyses budget for.
    """

    _FILLED = ("_coeffs", "_coeffs_py")

    def __init__(self, range_size: int, degree: int = 4, seed=0):
        if range_size < 1:
            raise ValueError(f"range_size must be >= 1, got {range_size}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.range_size = int(range_size)
        self.degree = int(degree)
        if _is_plain_seed(seed):
            defer_coefficients(self, ([int(seed)], self.degree))
        else:
            self._fill(_draw_coefficients(seed, self.degree)[np.newaxis])

    def _fill(self, coeffs) -> None:
        """Adopt the ``(1, degree)`` coefficient block drawn for the seed."""
        self._coeffs = coeffs[0]
        self._coeffs_py = self._coeffs.tolist()

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
        # Array path: one eval_rows row (Horner), in the input's shape;
        # a 0-d input gives a numpy scalar, as numpy arithmetic would.
        xs = np.asarray(x, dtype=np.int64)
        values = eval_rows(
            self._coeffs[np.newaxis], self.range_size, xs.reshape(-1)
        )
        return values.reshape(xs.shape)[()]

    def space_words(self) -> int:
        """Words needed to store this function (its coefficients)."""
        return self.degree


#: :func:`eval_rows` takes the power-table kernel for at least this many
#: stacked hashes of a degree in this range; Horner otherwise.  Measured
#: on a 2-CPU host (hashes x items, Horner against power table): at
#: degree 4 the table loses (40 x 500: 0.49 against 0.73 ms), and so it
#: does for one row (1 x 4096 at degree 16: 0.44 against 0.72 ms); from
#: degree 8 it wins (40 x 500: 1.01 against 0.54 ms; at degree 16 1.84
#: against 0.66 ms; 12 x 4096 at degree 22: 6.1 against 2.1 ms), and two
#: rows break even (2 x 4096 at degree 16: 0.86 against 0.83 ms).  The
#: top of the range keeps its sums exact.
_POWER_MIN_ROWS = 2
_POWER_MIN_DEGREE = 8
_POWER_MAX_DEGREE = 64
#: Bound on ``max(rows, degree) * columns`` of one power-table column
#: block, so its power table and float64 products stay small, near the
#: size of a Horner accumulator over the block.
_POWER_BLOCK_CELLS = 1 << 14
_HALF_BITS = 16
_HALF_MASK = (1 << _HALF_BITS) - 1


def eval_rows(coeffs, ranges, xs, out=None) -> np.ndarray:
    """``out[b, j]``: hash ``b`` of ``xs[j]``, for ``B`` hashes stacked
    as a ``(B, degree)`` coefficient matrix with a ``(B, 1)`` column of
    range sizes.

    Row ``b`` equals that hash on its own, bit for bit.  Inputs are
    reduced ``mod p`` first.  A single hash, or a degree below 8 or
    above 64, takes one Horner pass in :class:`KWiseHash`'s field
    arithmetic and order of operations: residues stay below 2^31, so
    every product fits int64.  Two or more hashes of degree 8 to 64 take
    :func:`_power_rows`, whose float64 products are exact.  ``out``,
    when given, is a ``(B, len(xs))`` int64 buffer that the pass writes
    into and returns.
    """
    xs = np.asarray(xs, dtype=np.int64) % MERSENNE_P
    rows, degree = coeffs.shape
    acc = (
        out
        if out is not None
        else np.empty((rows, len(xs)), dtype=np.int64)
    )
    if (
        rows >= _POWER_MIN_ROWS
        and _POWER_MIN_DEGREE <= degree <= _POWER_MAX_DEGREE
    ):
        _power_rows(coeffs, xs, acc)
    else:
        acc[:] = coeffs[:, :1]
        for j in range(1, degree):
            acc *= xs
            acc += coeffs[:, j : j + 1]
            acc %= MERSENNE_P
    acc %= ranges
    return acc


def _power_rows(coeffs, xs, out) -> None:
    """Write ``poly_b(xs[j]) mod p`` into ``out[b, j]`` from a power table.

    With ``d = degree``, row ``b`` is ``sum_i c[b, d-1-i] x^i``.  Each
    coefficient splits into 16-bit halves ``c = 2^16 hi + lo``, and a
    column block's ``(d, block)`` table of ``x^i mod p`` turns both half
    sums into one float64 matrix product each.  A term is below
    ``2^16 * 2^31``, so with ``d <= 64`` every partial sum is an integer
    below ``2^53``: exact in float64 in any summation order, with or
    without FMA.  The row is then ``((S_hi mod p) * 2^16 + S_lo) mod p``
    in int64, Horner's residue exactly.
    """
    rows, degree = coeffs.shape
    descending = coeffs[:, ::-1]
    high = (descending >> _HALF_BITS).astype(np.float64)
    low = (descending & _HALF_MASK).astype(np.float64)
    width = max(1, _POWER_BLOCK_CELLS // max(rows, degree))
    powers = np.empty((degree, min(width, len(xs))), dtype=np.int64)
    for start in range(0, len(xs), width):
        x = xs[start : start + width]
        table = powers[:, : len(x)]
        table[0] = 1
        table[1] = x
        for i in range(2, degree):
            np.multiply(table[i - 1], x, out=table[i])
            table[i] %= MERSENNE_P
        table = table.astype(np.float64)
        block = out[:, start : start + len(x)]
        np.copyto(block, high @ table, casting="unsafe")
        block %= MERSENNE_P
        block <<= _HALF_BITS
        block += (low @ table).astype(np.int64)
        block %= MERSENNE_P


class KWiseHashBank:
    """``B`` same-degree :class:`KWiseHash` functions, one
    :func:`eval_rows` pass.

    The multi-branch engines -- universe reduction across all ``z``
    guesses, membership layers across samplers, CountSketch rows --
    each hold many independently seeded hashes of a single degree.
    Stacking the coefficient vectors into a ``(B, degree)`` matrix lets
    one pass -- ``degree - 1`` fused multiply-add-mod sweeps over a
    ``(B, L)`` accumulator, or from degree 8 the power-table products --
    evaluate *every* function on a whole chunk, instead of ``B``
    separate Horner passes with their per-call numpy dispatch overhead.
    Outputs are bit-identical to calling each member hash on its own.

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
        # Stacked on first use: members built in a coefficient batch
        # have no coefficients until the batch fills.
        self._hashes = hashes
        self._coeffs = None
        self._ranges = np.asarray(
            [h.range_size for h in hashes], dtype=np.int64
        ).reshape(-1, 1)

    def eval_many(self, xs, out=None):
        """``(B, L)`` matrix with ``out[b, j] = hashes[b](xs[j])``, by
        :func:`eval_rows`; ``out`` may be a scratch-arena view."""
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = self._coeffs = np.stack([h._coeffs for h in self._hashes])
        return eval_rows(coeffs, self._ranges, xs, out)

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
        self.buckets = self.buckets_for(rate)
        self._hash = KWiseHash(self.buckets, degree=degree, seed=seed)

    @staticmethod
    def buckets_for(rate: float) -> int:
        """Hash range of a rate-``rate`` set: ``max(1, ceil(rate))``."""
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        return max(1, int(np.ceil(rate)))

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
