"""Sketch checkpointing: save/restore sketch state across processes.

Linear sketches are the unit of distribution: shards build sketches
independently, persist them, and a coordinator loads and merges.  This
module serialises the four mergeable sketches to ``.npz`` files --
constructor parameters plus state arrays, no pickling of code -- so
checkpoints are portable across Python versions and safe to load from
untrusted-ish storage (only numeric arrays are read).

Round-trip contract: ``load_sketch(path)`` returns a sketch whose
estimates, queries, and merge behaviour are identical to the saved one;
the restored sketch can continue its pass.

Composite algorithms (``Oracle``, ``EstimateMaxCover``, ...) are covered
by the generic ``state_arrays`` protocol instead: :func:`save_state` /
:func:`load_state` ship only flat numeric arrays (hierarchical ``a/b/c``
keys), and the loader pours them into a *fresh, identically-constructed*
instance -- constructor parameters and seeds travel out of band, exactly
as a sharded coordinator reconstructs its workers.  :func:`dumps_state` /
:func:`loads_state` are the in-memory variants the multiprocessing
executor ships worker state with.
"""

from __future__ import annotations

import io

import numpy as np

from repro.sketch.countsketch import CountSketch
from repro.sketch.f2 import F2Sketch
from repro.sketch.hyperloglog import HyperLogLog
from repro.sketch.l0 import L0Sketch

__all__ = [
    "save_sketch",
    "load_sketch",
    "save_state",
    "load_state",
    "dumps_state",
    "loads_state",
    "ORDER_FREE_KEYS",
    "state_difference",
]

#: Last path components of state keys that list lazily created
#: sub-sketch ids in first-seen order: ``ReportingLargeCommon``'s
#: groups.  That order depends on batching granularity -- a scalar pass
#: sees arrival order, a batch sees sorted unique ids -- while each
#: sub-sketch's own arrays do not.  (``LargeSet``'s KMV bank lists its
#: superset ids sorted, so its state is exact under any chunking.)
ORDER_FREE_KEYS = ("gids",)


def _l0_state(sketch: L0Sketch) -> dict:
    return {
        "kind": "l0",
        "sketch_size": sketch.sketch_size,
        "degree": sketch._hash.degree,
        "seed": int(sketch.seed),
        "heap": np.asarray(sorted(sketch._heap), dtype=np.int64),
        "tokens": sketch.tokens_seen,
    }


def _l0_restore(data) -> L0Sketch:
    sketch = L0Sketch(
        sketch_size=int(data["sketch_size"]),
        degree=int(data["degree"]),
        seed=int(data["seed"]),
    )
    # The file keeps the negated max-heap sorted ascending; the state
    # protocol (and its validation) takes the values ascending.
    heap = np.asarray(data["heap"])
    if heap.dtype.kind in "iu":
        heap = -heap[::-1]
    sketch._load_state_arrays({"heap": heap})
    sketch._tokens_seen = int(data["tokens"])
    return sketch


def _f2_state(sketch: F2Sketch) -> dict:
    return {
        "kind": "f2",
        "means": sketch.means,
        "medians": sketch.medians,
        "seed": int(sketch.seed),
        "counters": sketch._counters,
        "tokens": sketch.tokens_seen,
    }


def _f2_restore(data) -> F2Sketch:
    sketch = F2Sketch(
        means=int(data["means"]),
        medians=int(data["medians"]),
        seed=int(data["seed"]),
    )
    sketch._counters = np.asarray(data["counters"], dtype=np.int64).copy()
    sketch._tokens_seen = int(data["tokens"])
    return sketch


def _cs_state(sketch: CountSketch) -> dict:
    state = {
        "kind": "countsketch",
        "width": sketch.width,
        "depth": sketch.depth,
        "seed": int(sketch.seed),
        "table": sketch.state_arrays()["table"],
        "tokens": sketch.tokens_seen,
    }
    if sketch.domain is not None:
        state["domain"] = sketch.domain
    return state


def _cs_restore(data) -> CountSketch:
    sketch = CountSketch(
        width=int(data["width"]),
        depth=int(data["depth"]),
        seed=int(data["seed"]),
        domain=int(data["domain"]) if "domain" in data else None,
    )
    sketch._load_state_arrays({"table": data["table"]})
    sketch._tokens_seen = int(data["tokens"])
    return sketch


def _hll_state(sketch: HyperLogLog) -> dict:
    return {
        "kind": "hyperloglog",
        "precision": sketch.precision,
        "seed": int(sketch.seed),
        "registers": sketch._registers,
        "tokens": sketch.tokens_seen,
    }


def _hll_restore(data) -> HyperLogLog:
    sketch = HyperLogLog(
        precision=int(data["precision"]), seed=int(data["seed"])
    )
    sketch._registers = np.asarray(data["registers"], dtype=np.int8).copy()
    sketch._tokens_seen = int(data["tokens"])
    return sketch


_SAVERS = {
    L0Sketch: _l0_state,
    F2Sketch: _f2_state,
    CountSketch: _cs_state,
    HyperLogLog: _hll_state,
}

_LOADERS = {
    "l0": _l0_restore,
    "f2": _f2_restore,
    "countsketch": _cs_restore,
    "hyperloglog": _hll_restore,
}


def save_sketch(sketch, path) -> None:
    """Persist a sketch's state to an ``.npz`` file.

    Supported types: :class:`L0Sketch`, :class:`F2Sketch`,
    :class:`CountSketch`, :class:`HyperLogLog`.  Raises
    :class:`TypeError` for anything else (composite algorithms should
    checkpoint their own parts).
    """
    saver = _SAVERS.get(type(sketch))
    if saver is None:
        raise TypeError(
            f"cannot serialise {type(sketch).__name__}; supported: "
            f"{sorted(cls.__name__ for cls in _SAVERS)}"
        )
    state = saver(sketch)
    kind = state.pop("kind")
    np.savez(path, kind=np.bytes_(kind.encode()), **state)


def load_sketch(path):
    """Load a sketch previously written by :func:`save_sketch`."""
    with np.load(path) as data:
        kind = bytes(data["kind"]).decode()
        loader = _LOADERS.get(kind)
        if loader is None:
            raise ValueError(f"unknown sketch kind {kind!r} in {path}")
        return loader(data)


def save_state(algo, path) -> None:
    """Persist any ``state_arrays``-capable algorithm to an ``.npz`` file.

    Works for every :class:`~repro.base.StreamingAlgorithm` implementing
    the state protocol, composites included.  The class name is stored
    so :func:`load_state` can refuse a mismatched target.
    """
    state = algo.state_arrays()
    np.savez(
        path,
        __class__=np.bytes_(type(algo).__name__.encode()),
        **state,
    )


def load_state(algo, path):
    """Pour a :func:`save_state` checkpoint into ``algo``.

    ``algo`` must be a fresh instance constructed with the *same*
    parameters and seed as the saved one (the checkpoint holds state
    arrays only, not construction randomness).  Returns ``algo``.
    """
    with np.load(path) as data:
        saved = bytes(data["__class__"]).decode()
        if saved != type(algo).__name__:
            raise TypeError(
                f"checkpoint holds {saved} state, cannot load into "
                f"{type(algo).__name__}"
            )
        state = {key: data[key] for key in data.files if key != "__class__"}
    return algo.load_state_arrays(state)


def dumps_state(algo) -> bytes:
    """In-memory :func:`save_state`; the shard-shipping wire format."""
    buffer = io.BytesIO()
    save_state(algo, buffer)
    return buffer.getvalue()


def loads_state(algo, blob: bytes):
    """In-memory :func:`load_state`; returns ``algo``."""
    return load_state(algo, io.BytesIO(blob))


def state_difference(left, right, order_free=ORDER_FREE_KEYS) -> str | None:
    """Key of the first differing array of two ``state_arrays()`` dicts,
    or ``None`` when they are equal.

    Arrays are equal when dtype and bytes match.  Arrays whose key ends
    in a component listed in ``order_free`` are compared sorted, and
    then the key sets (not the key order) must match.  With
    ``order_free=()`` the check is exact, key order included.
    """
    same_keys = (
        left.keys() == right.keys() if order_free else list(left) == list(right)
    )
    if not same_keys:
        return "<keys>"
    for key in left:
        a, b = np.asarray(left[key]), np.asarray(right[key])
        if key.rsplit("/", 1)[-1] in order_free:
            a, b = np.sort(a, axis=None), np.sort(b, axis=None)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return key
    return None
