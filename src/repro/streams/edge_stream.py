"""The general edge-arrival streaming model.

The paper's model (Section 1): the input set system is presented as a
sequence of ``(set, element)`` pairs *in arbitrary order* -- elements of a
set may arrive interleaved with other sets', duplicated, and far apart.
:class:`EdgeStream` materialises such a sequence together with the
instance shape ``(m, n)`` that every algorithm receives up front, and
provides the arrival orders the benchmarks exercise:

* ``set_major`` -- each set's edges contiguous (the *set-arrival* special
  case, which set-arrival baselines require);
* ``random`` -- a uniform shuffle, the usual average case;
* ``element_major`` -- grouped by element, the transpose worst case for
  set-arrival algorithms (footnote 2's directed-graph scenario);
* ``round_robin`` -- maximally interleaved: one edge per set per round,
  an adversarial order for thresholding heuristics;
* ``player_major`` -- grouped by element blocks in ascending order, the
  one-way communication order of the Section 5 lower bound.

Storage is *columnar*: the source of truth is a pair of parallel int64
arrays ``(set_ids, elements)``, so :meth:`EdgeStream.as_arrays` and
:meth:`EdgeStream.iter_chunks` are pure views/slices (no per-edge Python
work), reorderings are ``np.lexsort``/permutation arithmetic, and the
binary format (:mod:`repro.streams.io`) round-trips the columns without
parsing.  Tuple-oriented access (``iter``, ``edges``) is kept as a thin
compatibility shim for scalar reference paths and tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.base import RunReport, StreamRunner
from repro.coverage.setsystem import SetSystem
from repro.streams.io import (
    BINARY_SUFFIX,
    detect_format,
    load_columns,
    save_columns,
)

__all__ = ["ARRIVAL_ORDERS", "EdgeStream", "RunReport", "StreamRunner"]

ARRIVAL_ORDERS = (
    "set_major",
    "random",
    "element_major",
    "round_robin",
    "player_major",
)


class EdgeStream:
    """A replayable sequence of ``(set_id, element)`` edges.

    Parameters
    ----------
    edges:
        The ``(set_id, element)`` pairs, already in arrival order.
    m, n:
        Instance shape, known to algorithms in advance (as the paper
        assumes).  Inferred from the edges when omitted.
    """

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        m: int | None = None,
        n: int | None = None,
    ):
        pairs = list(edges)
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(
                    f"edges must be (set_id, element) pairs, got array "
                    f"of shape {arr.shape}"
                )
            set_ids = np.ascontiguousarray(arr[:, 0])
            elements = np.ascontiguousarray(arr[:, 1])
        else:
            set_ids = np.empty(0, dtype=np.int64)
            elements = np.empty(0, dtype=np.int64)
        self._init_columns(set_ids, elements, m, n, own=True)

    @classmethod
    def from_columns(
        cls,
        set_ids: np.ndarray,
        elements: np.ndarray,
        m: int | None = None,
        n: int | None = None,
        own: bool = False,
    ) -> "EdgeStream":
        """Wrap ``(set_ids, elements)`` columns without copying.

        The canonical zero-copy constructor: contiguous int64 1-d arrays
        are adopted as-is (a dtype/layout conversion is made only when
        needed).  The stream treats its columns as immutable; callers
        must not mutate arrays they hand over.  Pass ``own=True`` when
        transferring freshly allocated arrays -- the stream then locks
        them read-only so leaked views cannot corrupt it.
        """

        def adopt(column):
            if (
                isinstance(column, np.ndarray)
                and column.dtype == np.int64
                and column.flags.c_contiguous
            ):
                return column, own
            converted = np.ascontiguousarray(column, dtype=np.int64)
            return converted, converted is not column

        stream = cls.__new__(cls)
        ids, own_ids = adopt(set_ids)
        els, own_els = adopt(elements)
        if ids.ndim != 1 or els.ndim != 1 or len(ids) != len(els):
            raise ValueError(
                "columns must be equal-length 1-d arrays, got shapes "
                f"{np.shape(set_ids)} and {np.shape(elements)}"
            )
        stream._init_columns(ids, els, m, n, own=own_ids and own_els)
        return stream

    def _init_columns(self, set_ids, elements, m, n, own: bool) -> None:
        if own:
            # Freshly allocated columns are locked so that the views
            # handed out by as_arrays()/iter_chunks() cannot corrupt
            # the stream; adopted caller arrays are left untouched.
            set_ids.setflags(write=False)
            elements.setflags(write=False)
        self._set_ids = set_ids
        self._elements = elements
        max_set = int(set_ids.max()) if len(set_ids) else -1
        max_elem = int(elements.max()) if len(elements) else -1
        self.m = int(m) if m is not None else max_set + 1
        self.n = int(n) if n is not None else max_elem + 1
        if self.m < max_set + 1:
            raise ValueError(
                f"m={self.m} smaller than largest set id + 1 ({max_set + 1})"
            )
        if self.n < max_elem + 1:
            raise ValueError(
                f"n={self.n} smaller than largest element + 1 ({max_elem + 1})"
            )
        #: Path of the on-disk file backing this stream (set by the
        #: loaders); the mmap shard-dispatch path keys off these.
        self.source_path: str | None = None
        self.is_mmap: bool = False

    # -- construction ----------------------------------------------------

    @classmethod
    def from_system(
        cls,
        system: SetSystem,
        order: str = "random",
        seed=0,
    ) -> "EdgeStream":
        """Stream a :class:`SetSystem` in the given arrival order."""
        stream = cls(system.edges(), m=system.m, n=system.n)
        return stream.reordered(order, seed=seed)

    def to_system(self) -> SetSystem:
        """Materialise the underlying set system (testing convenience)."""
        return SetSystem.from_edges(self.edges, m=self.m, n=self.n)

    @classmethod
    def load(cls, path) -> "EdgeStream":
        """Read a stream from a whitespace-separated text file.

        Format: one ``set_id element`` pair per line; blank lines and
        ``#`` comments are skipped.  An optional ``# shape: m n`` header
        fixes the instance shape (otherwise inferred).
        """
        m = n = None
        set_ids: list[int] = []
        elements: list[int] = []
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if line.startswith("# shape:"):
                    parts = line.split(":", 1)[1].split()
                    m, n = int(parts[0]), int(parts[1])
                    continue
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'set element', "
                        f"got {line!r}"
                    )
                set_ids.append(int(parts[0]))
                elements.append(int(parts[1]))
        stream = cls.from_columns(
            np.asarray(set_ids, dtype=np.int64),
            np.asarray(elements, dtype=np.int64),
            m=m,
            n=n,
            own=True,
        )
        stream.source_path = str(path)
        return stream

    def save(self, path) -> None:
        """Write the stream in :meth:`load`'s format, with shape header."""
        with open(path, "w") as handle:
            handle.write(f"# shape: {self.m} {self.n}\n")
            if len(self._set_ids):
                np.savetxt(
                    handle,
                    np.column_stack((self._set_ids, self._elements)),
                    fmt="%d",
                )

    @classmethod
    def load_binary(cls, path, mmap: bool = False) -> "EdgeStream":
        """Read a stream saved by :meth:`save_binary`.

        With ``mmap=True`` the columns are read-only memory maps into
        the file: load cost is O(1), pages fault in on demand, and
        :class:`~repro.parallel.PersistentShardExecutor` can hand
        workers the file path instead of array bytes.
        """
        set_ids, elements, m, n = load_columns(path, mmap=mmap)
        stream = cls.from_columns(set_ids, elements, m=m, n=n, own=not mmap)
        stream.source_path = str(path)
        stream.is_mmap = bool(mmap)
        return stream

    def save_binary(self, path) -> None:
        """Write the columnar binary format (see :mod:`repro.streams.io`)."""
        save_columns(path, self._set_ids, self._elements, self.m, self.n)

    @classmethod
    def load_auto(cls, path, mmap: bool = False) -> "EdgeStream":
        """Load ``path`` in whichever format it is (extension + sniff)."""
        if detect_format(path) == "binary":
            return cls.load_binary(path, mmap=mmap)
        return cls.load(path)

    def save_auto(self, path) -> None:
        """Save as binary when ``path`` ends in ``.npz``, else text."""
        if str(path).endswith(BINARY_SUFFIX):
            self.save_binary(path)
        else:
            self.save(path)

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._set_ids.tolist(), self._elements.tolist())

    def __len__(self) -> int:
        return len(self._set_ids)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The edge list in arrival order (compatibility shim).

        Rebuilds a Python tuple list on every access -- O(len) -- so hot
        paths should use :meth:`as_arrays` instead.
        """
        return list(zip(self._set_ids.tolist(), self._elements.tolist()))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(set_ids, elements)`` as parallel int64 column arrays.

        Zero-copy: these are the stream's own (read-only) columns, not
        copies -- the feed for the vectorised ``process_batch`` path and
        the sharded dispatcher.
        """
        return self._set_ids, self._elements

    def iter_chunks(self, chunk_size: int = 4096):
        """Yield ``(set_ids, elements)`` array pairs of at most
        ``chunk_size`` edges, in arrival order.

        The zero-copy feed for :class:`~repro.base.StreamRunner`'s
        vectorized path: each chunk is a pure slice of the stream's
        columns, so chunking costs no per-edge Python work.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        set_ids, elements = self._set_ids, self._elements
        for start in range(0, len(set_ids), chunk_size):
            stop = start + chunk_size
            yield set_ids[start:stop], elements[start:stop]

    # -- reorderings -------------------------------------------------------

    def reordered(self, order: str, seed=0) -> "EdgeStream":
        """Return a new stream with the same edges in another order.

        Every order is computed as a permutation of the columns
        (``np.lexsort`` / rank arithmetic), bit-identical to sorting the
        tuple list: ``set_major`` is lexicographic ``(set, element)``,
        ``element_major``/``player_major`` lexicographic
        ``(element, set)``, ``random`` a seeded uniform shuffle, and
        ``round_robin`` one-edge-per-set rounds over the sorted edges.
        """
        if order not in ARRIVAL_ORDERS:
            raise ValueError(
                f"unknown arrival order {order!r}; choose from {ARRIVAL_ORDERS}"
            )
        set_ids, elements = self._set_ids, self._elements
        if order == "set_major":
            perm = np.lexsort((elements, set_ids))
        elif order in ("element_major", "player_major"):
            # player_major is Section 5's protocol order: all of element
            # 0's edges, then element 1's, ... -- one player per block.
            perm = np.lexsort((set_ids, elements))
        elif order == "random":
            rng = np.random.default_rng(seed)
            perm = rng.permutation(len(set_ids))
        else:  # round_robin
            perm = _round_robin_perm(set_ids, elements)
        return EdgeStream.from_columns(
            set_ids[perm], elements[perm], m=self.m, n=self.n, own=True
        )


def _round_robin_perm(set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Permutation interleaving edges one-per-set per round.

    Equivalent to sorting the edges lexicographically, queueing each
    set's run, and emitting round ``r`` as the ``r``-th edge of every
    surviving set in ascending set order: sort by ``(set, element)``,
    rank each edge within its set's run, then sort by ``(rank, set)``.
    """
    base = np.lexsort((elements, set_ids))
    total = len(base)
    if total == 0:
        return base
    sorted_sets = set_ids[base]
    run_starts = np.flatnonzero(
        np.r_[True, sorted_sets[1:] != sorted_sets[:-1]]
    )
    run_lengths = np.diff(np.r_[run_starts, total])
    position = np.arange(total)
    rank = position - np.repeat(run_starts, run_lengths)
    return base[np.lexsort((sorted_sets, rank))]
