"""Pluggable array backends for the fused evaluation engine.

The plan layer (PR 5) reduced the whole hot loop to a handful of dense
primitives: batched Horner passes over ``(B, degree)`` coefficient
mega-banks, bincount scatters into sketch tables, stable sorts and
gathers.  This module abstracts exactly that surface behind
:class:`ArrayBackend` so the same branch tree can evaluate on numpy or
on torch (CPU or CUDA) per chunk.

Contract
--------
* **int64 modular arithmetic, never float.**  Hash residues live below
  ``2**31`` so products fit int64; every backend must produce
  bit-identical values to the numpy reference for ``horner_mod`` /
  ``horner_mod_bank`` and for every structural primitive (stable sorts,
  first-occurrence indices, bincounts).  The equivalence suites assert
  byte-identical ``state_arrays`` across backends.
* **Persistent sketch state stays host-resident.**  Backend arrays are
  per-chunk intermediates; anything that survives the chunk (CountSketch
  tables, KMV heaps, pools) is numpy on the host, so serialisation and
  merging are backend-agnostic by construction.  ``bincount_scatter``
  and ``to_host`` are the only places device results meet host state.
* **Determinism over speed.**  Primitives with scatter semantics must be
  order-independent (e.g. first-occurrence via an ``amin`` reduction,
  not an index_put race) so CUDA runs match the CPU exactly.

Adding a backend (e.g. CuPy) means implementing this class and
registering a constructor in :func:`get_backend`; nothing in the plan or
sketch layers changes.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "BackendUnavailableError",
    "NUMPY",
    "HOST",
    "BACKEND_CHOICES",
    "active_backend",
    "set_active_backend",
    "use_backend",
    "resolve_backend",
    "get_backend",
    "available_backends",
    "backend_of",
    "as_host",
    "torch_available",
    "cuda_available",
]

# Names accepted by :func:`get_backend` / the CLI ``--backend`` flag.
BACKEND_CHOICES = ("auto", "numpy", "torch", "torch-cpu", "torch-cuda")


class BackendUnavailableError(RuntimeError):
    """Requested backend cannot run here (missing import or device)."""


class ArrayBackend:
    """The primitive surface the plan and sketch layers dispatch through.

    Subclasses provide ``name``/``device``/``is_gpu`` plus every method
    below.  All integer arrays are int64; masks are bool.
    """

    name: str = "abstract"
    device: str = "abstract"
    is_gpu: bool = False

    # -- host <-> device transfer -------------------------------------
    def from_host(self, a):
        """Host numpy array -> backend array (dtype preserved)."""
        raise NotImplementedError

    def to_host(self, a):
        """Backend array -> host numpy array."""
        raise NotImplementedError

    def ensure(self, a):
        """Anything array-like -> int64 array on this backend."""
        raise NotImplementedError

    def tolist(self, a) -> list:
        raise NotImplementedError

    # -- creation ------------------------------------------------------
    def asarray(self, values):
        raise NotImplementedError

    def zeros(self, shape):
        raise NotImplementedError

    def ones_bool(self, n):
        raise NotImplementedError

    def full(self, n, value):
        raise NotImplementedError

    def arange(self, n):
        raise NotImplementedError

    # -- structural ops ------------------------------------------------
    def stack(self, seq):
        raise NotImplementedError

    def concatenate(self, seq):
        raise NotImplementedError

    def where(self, cond, a, b):
        raise NotImplementedError

    def flatnonzero(self, a):
        raise NotImplementedError

    def diff(self, a):
        raise NotImplementedError

    def argsort_stable(self, a):
        raise NotImplementedError

    def lexsort(self, keys):
        """np.lexsort semantics: last key is the primary sort key."""
        raise NotImplementedError

    def searchsorted(self, sorted_a, values, side="left", sorter=None):
        raise NotImplementedError

    def take(self, a, idx, out=None):
        """Gather ``a[idx]`` (the tabulated-column hot path).

        ``out`` is a reuse hint from a scratch arena: host backends
        write into it; backends with their own allocators may ignore it
        and return a fresh array.  Callers must use the return value.
        """
        raise NotImplementedError

    def ascontiguous(self, a):
        raise NotImplementedError

    # -- elementwise int64 modular ops ----------------------------------
    def mod(self, a, m):
        raise NotImplementedError

    # -- fused kernels ---------------------------------------------------
    def horner_mod_bank(self, coeffs, xs, modulus, ranges=None, out=None):
        """Evaluate a ``(B, degree)`` coefficient bank at ``xs``.

        Returns the ``(B, len(xs))`` int64 matrix
        ``(sum_j coeffs[:, j] x^(d-1-j)) mod modulus`` (``mod ranges``
        rowwise when given).  All arithmetic int64; inputs are reduced
        ``mod modulus`` first so products stay below 2**63.  ``out`` is
        a scratch-arena reuse hint with the same contract as
        :meth:`take`.
        """
        raise NotImplementedError

    def horner_mod(self, coeffs, xs, modulus, range_size=None):
        """Single-family Horner pass; ``coeffs`` is a host int64 vector."""
        raise NotImplementedError

    def bincount(self, x, minlength, weights=None):
        """int64 bincount; ``weights`` (int64) accumulate exactly."""
        raise NotImplementedError

    def bincount_scatter(self, table, buckets, values, factor):
        """Accumulate ``values`` into the host ``(depth, width)`` int64
        ``table`` at per-row ``buckets`` — the CountSketch scatter.

        Mutates ``table`` in place.  When the batch is large enough to
        amortise a full-table pass (``len >= cells / factor`` per the
        caller's ``factor``) a single flat bincount is used; small
        batches fall back to per-row indexed adds on the host.
        """
        raise NotImplementedError

    def unique_grouped(self, items):
        """``(unique, first_pos, counts)`` — sorted unique values, the
        index of each value's first occurrence in ``items`` (exact, for
        first-arrival bookkeeping), and per-value counts."""
        raise NotImplementedError

    def unique_inverse(self, items):
        raise NotImplementedError

    def unique_counts(self, items):
        raise NotImplementedError

    def unique_values(self, items):
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name} ({self.device})"


class NumpyBackend(ArrayBackend):
    """Reference implementation: thin delegation to numpy on the host."""

    name = "numpy"
    device = "cpu"
    is_gpu = False

    def __init__(self):
        # Call-internal scratch for the flat-bincount scatter path:
        # the flattened bucket matrix and the per-(depth, width) row
        # offsets are reused across chunks instead of reallocated.  The
        # buffers never escape a single bincount_scatter call, so the
        # process-wide singleton sharing them across algorithms is safe.
        self._scatter_flat = np.empty(0, dtype=np.int64)
        self._scatter_offsets: dict = {}

    # -- transfer (identity on the host) --------------------------------
    def from_host(self, a):
        return a

    def to_host(self, a):
        return a

    def ensure(self, a):
        return np.asarray(a, dtype=np.int64)

    def tolist(self, a):
        return a.tolist()

    # -- creation --------------------------------------------------------
    def asarray(self, values):
        return np.asarray(values, dtype=np.int64)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def ones_bool(self, n):
        return np.ones(n, dtype=bool)

    def full(self, n, value):
        return np.full(n, value, dtype=np.int64)

    def arange(self, n):
        return np.arange(n, dtype=np.int64)

    # -- structural --------------------------------------------------------
    def stack(self, seq):
        return np.stack(seq)

    def concatenate(self, seq):
        return np.concatenate(seq)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def flatnonzero(self, a):
        return np.flatnonzero(a)

    def diff(self, a):
        return np.diff(a)

    def argsort_stable(self, a):
        return np.argsort(a, kind="stable")

    def lexsort(self, keys):
        return np.lexsort(keys)

    def searchsorted(self, sorted_a, values, side="left", sorter=None):
        return np.searchsorted(sorted_a, values, side=side, sorter=sorter)

    def take(self, a, idx, out=None):
        if out is None:
            return a[idx]
        return np.take(a, idx, out=out)

    def ascontiguous(self, a):
        return np.ascontiguousarray(a)

    # -- elementwise -------------------------------------------------------
    def mod(self, a, m):
        return a % m

    # -- fused kernels -------------------------------------------------------
    def horner_mod_bank(self, coeffs, xs, modulus, ranges=None, out=None):
        xs = np.asarray(xs, dtype=np.int64) % modulus
        acc = (
            out
            if out is not None
            else np.empty((coeffs.shape[0], len(xs)), dtype=np.int64)
        )
        acc[:] = coeffs[:, :1]
        for j in range(1, coeffs.shape[1]):
            acc *= xs
            acc += coeffs[:, j : j + 1]
            acc %= modulus
        if ranges is not None:
            acc %= ranges
        return acc

    def horner_mod(self, coeffs, xs, modulus, range_size=None):
        xs = np.asarray(xs, dtype=np.int64) % modulus
        acc = np.full_like(xs, int(coeffs[0]))
        for a in coeffs[1:]:
            acc = (acc * xs + int(a)) % modulus
        if range_size is not None:
            acc = acc % range_size
        return acc

    def bincount(self, x, minlength, weights=None):
        if weights is None:
            return np.bincount(x, minlength=minlength).astype(np.int64)
        # float64 partial sums stay below 2**53, so any accumulation
        # order is exact; the cast back to int64 is lossless.
        return (
            np.bincount(x, weights=weights, minlength=minlength)
            .astype(np.int64)
        )

    def bincount_scatter(self, table, buckets, values, factor):
        depth, width = table.shape
        cells = depth * width
        length = values.shape[1]
        if length * factor >= cells:
            offsets = self._scatter_offsets.get((depth, width))
            if offsets is None:
                offsets = (np.arange(depth, dtype=np.int64) * width)[:, None]
                self._scatter_offsets[(depth, width)] = offsets
            need = depth * length
            if self._scatter_flat.shape[0] < need:
                self._scatter_flat = np.empty(need, dtype=np.int64)
            flat = self._scatter_flat[:need].reshape(depth, length)
            np.add(buckets, offsets, out=flat)
            table += self.bincount(
                flat.ravel(), cells, weights=values.ravel()
            ).reshape(depth, width)
            return
        for row in range(depth):
            np.add.at(table[row], buckets[row], values[row])

    def unique_grouped(self, items):
        unique, first_pos, counts = np.unique(
            items, return_index=True, return_counts=True
        )
        return unique, first_pos.astype(np.int64), counts.astype(np.int64)

    def unique_inverse(self, items):
        unique, inverse = np.unique(items, return_inverse=True)
        return unique, inverse

    def unique_counts(self, items):
        unique, counts = np.unique(items, return_counts=True)
        return unique, counts.astype(np.int64)

    def unique_values(self, items):
        return np.unique(items)

    # -- host-only helpers (synopsis maintenance after a to_host sync) -----
    def union1d(self, a, b):
        return np.union1d(a, b)

    def fromiter(self, iterable, count):
        return np.fromiter(iterable, dtype=np.int64, count=count)

    def empty(self, n):
        return np.empty(n, dtype=np.int64)

    def sort(self, a):
        return np.sort(a)


class TorchBackend(ArrayBackend):  # pragma: no cover - needs torch installed
    """torch implementation, CPU or CUDA.

    Every primitive mirrors the numpy reference bit-for-bit: int64
    arithmetic with ``torch.remainder`` (identical semantics to numpy
    ``%`` for a positive modulus), stable argsorts, and deterministic
    first-occurrence indices via an ``amin`` scatter reduction (an
    ``index_put`` with duplicate indices would race on CUDA).
    """

    name = "torch"

    def __init__(self, device: str = "cpu"):
        torch = _torch_module()
        if torch is None:
            raise BackendUnavailableError(
                "torch backend requested but torch is not importable"
            )
        if device == "cuda" and not torch.cuda.is_available():
            raise BackendUnavailableError(
                "torch-cuda backend requested but CUDA is not available"
            )
        self._torch = torch
        self._device = torch.device(device)
        self.device = device
        self.name = f"torch-{device}"
        self.is_gpu = device == "cuda"

    # -- transfer -----------------------------------------------------------
    def from_host(self, a):
        # from_numpy shares memory on the CPU; backend arrays are
        # treated as read-only per-chunk intermediates, so that is safe
        # and keeps the torch-cpu path copy-free.
        t = self._torch.from_numpy(np.ascontiguousarray(a))
        return t.to(self._device) if self.is_gpu else t

    def to_host(self, a):
        return a.cpu().numpy()

    def ensure(self, a):
        torch = self._torch
        if isinstance(a, torch.Tensor):
            return a.to(device=self._device, dtype=torch.int64)
        return self.from_host(np.asarray(a, dtype=np.int64))

    def tolist(self, a):
        return a.tolist()

    # -- creation ---------------------------------------------------------
    def asarray(self, values):
        return self.ensure(values)

    def zeros(self, shape):
        return self._torch.zeros(
            shape, dtype=self._torch.int64, device=self._device
        )

    def ones_bool(self, n):
        return self._torch.ones(
            n, dtype=self._torch.bool, device=self._device
        )

    def full(self, n, value):
        return self._torch.full(
            (n,), int(value), dtype=self._torch.int64, device=self._device
        )

    def arange(self, n):
        return self._torch.arange(
            n, dtype=self._torch.int64, device=self._device
        )

    # -- structural -----------------------------------------------------
    def stack(self, seq):
        return self._torch.stack(list(seq))

    def concatenate(self, seq):
        return self._torch.cat(list(seq))

    def where(self, cond, a, b):
        torch = self._torch
        if not isinstance(a, torch.Tensor):
            a = torch.tensor(a, dtype=torch.int64, device=self._device)
        if not isinstance(b, torch.Tensor):
            b = torch.tensor(b, dtype=torch.int64, device=self._device)
        return torch.where(cond, a, b)

    def flatnonzero(self, a):
        return self._torch.nonzero(a.reshape(-1), as_tuple=False).reshape(-1)

    def diff(self, a):
        return self._torch.diff(a)

    def argsort_stable(self, a):
        return self._torch.argsort(a, stable=True)

    def lexsort(self, keys):
        # np.lexsort semantics via successive stable sorts, least
        # significant key first (the last key ends up primary).
        idx = self.arange(keys[0].shape[0])
        for key in keys:
            idx = idx[self._torch.argsort(key[idx], stable=True)]
        return idx

    def searchsorted(self, sorted_a, values, side="left", sorter=None):
        return self._torch.searchsorted(
            sorted_a, values, right=(side == "right"), sorter=sorter
        )

    def take(self, a, idx, out=None):
        # ``out`` is a host-reuse hint; torch keeps its own caching
        # allocator, so it is ignored by contract.
        return a[idx]

    def ascontiguous(self, a):
        return a.contiguous()

    # -- elementwise -------------------------------------------------------
    def mod(self, a, m):
        return self._torch.remainder(a, m)

    # -- fused kernels -----------------------------------------------------
    def horner_mod_bank(self, coeffs, xs, modulus, ranges=None, out=None):
        # ``out`` ignored: see :meth:`take`.
        torch = self._torch
        xs = torch.remainder(self.ensure(xs), modulus)
        acc = coeffs[:, :1].repeat(1, xs.shape[0])
        for j in range(1, coeffs.shape[1]):
            acc.mul_(xs)
            acc.add_(coeffs[:, j : j + 1])
            acc.remainder_(modulus)
        if ranges is not None:
            acc = torch.remainder(acc, ranges)
        return acc

    def horner_mod(self, coeffs, xs, modulus, range_size=None):
        torch = self._torch
        xs = torch.remainder(self.ensure(xs), modulus)
        # degree is tiny, so coefficients ride along as python scalars
        # instead of a cached device tensor.
        acc = torch.full_like(xs, int(coeffs[0]))
        for a in coeffs[1:]:
            acc.mul_(xs)
            acc.add_(int(a))
            acc.remainder_(modulus)
        if range_size is not None:
            acc = torch.remainder(acc, range_size)
        return acc

    def bincount(self, x, minlength, weights=None):
        torch = self._torch
        if weights is None:
            return torch.bincount(x, minlength=minlength)
        # Same exactness argument as numpy: float64 partial sums of
        # int64 values bounded by the chunk stay below 2**53.
        out = torch.bincount(
            x, weights=weights.to(torch.float64), minlength=minlength
        )
        return out.to(torch.int64)

    def bincount_scatter(self, table, buckets, values, factor):
        depth, width = table.shape
        cells = depth * width
        if values.shape[1] * factor >= cells:
            offsets = (self.arange(depth) * width).reshape(-1, 1)
            flat = (buckets + offsets).reshape(-1)
            delta = self.bincount(flat, cells, weights=values.reshape(-1))
            table += self.to_host(delta).reshape(depth, width)
            return
        # Small batch: indexed adds against the host-resident table.
        buckets_h = self.to_host(buckets)
        values_h = self.to_host(values)
        for row in range(depth):
            np.add.at(table[row], buckets_h[row], values_h[row])

    def unique_grouped(self, items):
        torch = self._torch
        unique, inverse, counts = torch.unique(
            items, return_inverse=True, return_counts=True
        )
        positions = self.arange(items.shape[0])
        first = self.full(unique.shape[0], items.shape[0])
        # amin is order-independent, hence deterministic on CUDA where
        # a plain scatter with duplicate indices is not.
        first.scatter_reduce_(
            0, inverse, positions, reduce="amin", include_self=True
        )
        return unique, first, counts

    def unique_inverse(self, items):
        return self._torch.unique(items, return_inverse=True)

    def unique_counts(self, items):
        return self._torch.unique(items, return_counts=True)

    def unique_values(self, items):
        return self._torch.unique(items)


# -- registry and active-backend machinery ----------------------------------

NUMPY = NumpyBackend()
#: Alias for the host reference backend, used at explicit host
#: boundaries (sequential pool replay, synopsis maintenance).
HOST = NUMPY

_TORCH_MODULE = None
_TORCH_CHECKED = False
_TORCH_BACKENDS: dict = {}
_ACTIVE: ArrayBackend = NUMPY


def _torch_module():
    """Import torch lazily, once; ``None`` when unavailable."""
    global _TORCH_MODULE, _TORCH_CHECKED
    if not _TORCH_CHECKED:
        _TORCH_CHECKED = True
        try:
            import torch as _torch
        except Exception:
            _TORCH_MODULE = None
        else:
            _TORCH_MODULE = _torch
    return _TORCH_MODULE


def torch_available() -> bool:
    return _torch_module() is not None


def cuda_available() -> bool:
    torch = _torch_module()
    return torch is not None and torch.cuda.is_available()


def _torch_backend(device: str) -> TorchBackend:
    backend = _TORCH_BACKENDS.get(device)
    if backend is None:
        backend = TorchBackend(device)
        _TORCH_BACKENDS[device] = backend
    return backend


def get_backend(name: str) -> ArrayBackend:
    """Resolve a backend name (see :data:`BACKEND_CHOICES`).

    ``auto`` picks the fastest backend that can run here: CUDA when
    torch sees a device, else numpy (a torch-CPU pass exists for parity
    testing, not speed); ``torch`` auto-selects the device; explicit
    names raise :class:`BackendUnavailableError` when they cannot run
    here.
    """
    if name in ("numpy", "host"):
        return NUMPY
    if name == "auto":
        return _torch_backend("cuda") if cuda_available() else NUMPY
    if name == "torch":
        return _torch_backend("cuda" if cuda_available() else "cpu")
    if name == "torch-cpu":
        return _torch_backend("cpu")
    if name in ("torch-cuda", "cuda"):
        return _torch_backend("cuda")
    raise ValueError(
        f"unknown array backend {name!r}; expected one of {BACKEND_CHOICES}"
    )


def available_backends() -> list:
    """Backend names that can actually run in this process.

    ``numpy`` (the reference) always comes first so parametrised parity
    suites compare every other backend against it.
    """
    names = ["numpy"]
    if torch_available():
        names.append("torch-cpu")
    if cuda_available():
        names.append("torch-cuda")
    return names


def resolve_backend(spec) -> ArrayBackend:
    """``None`` -> active backend; str -> registry; instance -> itself."""
    if spec is None:
        return _ACTIVE
    if isinstance(spec, ArrayBackend):
        return spec
    return get_backend(spec)


def active_backend() -> ArrayBackend:
    return _ACTIVE


def set_active_backend(spec) -> ArrayBackend:
    global _ACTIVE
    _ACTIVE = resolve_backend(spec)
    return _ACTIVE


@contextmanager
def use_backend(spec):
    """Temporarily select the active array backend."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = resolve_backend(spec)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def backend_of(a) -> ArrayBackend:
    """The backend an array belongs to (flows with the data).

    Host ndarrays belong to the active backend when that is a host
    backend (a :class:`NumpyBackend`, subclasses included), else to the
    numpy reference; device tensors route to their own backend.
    """
    if isinstance(a, np.ndarray):
        if isinstance(_ACTIVE, NumpyBackend):
            return _ACTIVE
        return NUMPY
    torch = _torch_module()
    if torch is not None and isinstance(a, torch.Tensor):
        return _torch_backend("cuda" if a.is_cuda else "cpu")
    return NUMPY


def is_backend_array(a) -> bool:
    """True for arrays already owned by some backend (incl. numpy)."""
    if isinstance(a, np.ndarray):
        return True
    torch = _torch_module()
    return torch is not None and isinstance(a, torch.Tensor)


def as_host(a):
    """Any backend array -> host numpy array."""
    return backend_of(a).to_host(a)
