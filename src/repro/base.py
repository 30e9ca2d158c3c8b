"""Shared protocol for every single-pass streaming algorithm in the package.

All estimators -- the vector sketches in :mod:`repro.sketch`, the paper's
max-coverage oracles in :mod:`repro.core`, and the baselines in
:mod:`repro.baselines` -- follow the same life cycle:

1. construct with explicit parameters and an explicit ``seed``;
2. call :meth:`StreamingAlgorithm.process` once per stream token
   (an ``(set_id, element_id)`` edge for coverage algorithms, a single
   coordinate for vector sketches);
3. call a result method (``estimate()`` / ``solution()``), which
   *finalises* the pass -- further ``process`` calls raise
   :class:`StreamConsumedError`, enforcing the single-pass model;
4. query :meth:`StreamingAlgorithm.space_words` for space accounting.

Space accounting counts the machine words a C implementation would retain
across stream tokens: sketch counters, hash coefficients, stored pairs,
reservoir contents.  Transient per-token scratch is excluded.  This is the
quantity the paper's ``O~(m / alpha^2)`` bounds talk about.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StreamConsumedError",
    "MergeIncompatibleError",
    "StreamingAlgorithm",
    "SetArrivalAlgorithm",
    "RunReport",
    "StreamRunner",
    "pack_state",
    "unpack_state",
    "sorted_unique",
]


class StreamConsumedError(RuntimeError):
    """Raised when an algorithm receives tokens after its pass finished.

    The streaming model studied by the paper is strictly single pass; the
    library enforces it so that tests catch accidental multi-pass use.
    """


class MergeIncompatibleError(ValueError):
    """Raised when two algorithm instances cannot be merged.

    Merging is only defined between instances built with *identical*
    parameters and hash seeds: two shards of the same logical pass.
    Anything else -- different seeds, different sketch shapes, different
    parameter schedules -- would silently combine incomparable state, so
    :meth:`StreamingAlgorithm.merge` validates and raises this error
    (a :class:`ValueError`) instead.
    """


def pack_state(state: dict, name: str, child_state: dict) -> None:
    """Fold a child's state arrays into ``state`` under ``name/``.

    State dictionaries are flat ``{key: ndarray}`` maps; composite
    algorithms namespace their children with ``/``-separated prefixes
    (``"branches/0/oracle/..."``), which ``np.savez`` stores verbatim.
    """
    for key, value in child_state.items():
        state[f"{name}/{key}"] = value


def unpack_state(state: dict, name: str) -> dict:
    """Extract the sub-dictionary packed under ``name/`` by :func:`pack_state`."""
    prefix = name + "/"
    return {
        key[len(prefix):]: value
        for key, value in state.items()
        if key.startswith(prefix)
    }


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D array, by one sort and a mask.

    ``np.unique`` first builds a hash table of the values, which costs
    several times a sort on the mostly-distinct packed keys the ingest
    state deduplicates.
    """
    values = np.sort(values)
    if len(values) > 1:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


class StreamingAlgorithm(abc.ABC):
    """Base class for single-pass streaming algorithms.

    Subclasses implement :meth:`_process` and :meth:`space_words`; the
    base class provides the pass-finalisation bookkeeping.
    """

    def __init__(self) -> None:
        self._finalized = False
        self._tokens_seen = 0

    @property
    def tokens_seen(self) -> int:
        """Number of stream tokens processed so far."""
        return self._tokens_seen

    @property
    def finalized(self) -> bool:
        """Whether the single pass has ended."""
        return self._finalized

    def _check_open(self) -> None:
        """Raise unless the single pass is still accepting tokens."""
        if self._finalized:
            raise StreamConsumedError(
                f"{type(self).__name__} already finalised its single pass; "
                "create a new instance to process another stream"
            )

    def process(self, *token) -> None:
        """Feed one stream token to the algorithm.

        The token counts in :attr:`tokens_seen` only once the kernel
        accepts it; a token the kernel rejects leaves the count as it
        was.
        """
        self._check_open()
        self._process(*token)
        self._tokens_seen += 1

    def process_stream(self, stream) -> "StreamingAlgorithm":
        """Feed every token of an iterable, then return ``self``.

        Tokens that are tuples are splatted into :meth:`process`, so an
        edge stream of ``(set_id, element_id)`` pairs and an item stream
        of bare integers both work.
        """
        for token in stream:
            if isinstance(token, tuple):
                self.process(*token)
            else:
                self.process(token)
        return self

    def process_batch(self, *columns) -> "StreamingAlgorithm":
        """Feed a column-oriented batch of stream tokens; returns ``self``.

        ``columns`` are parallel arrays -- ``(set_ids, elements)`` for
        coverage algorithms, ``(items,)`` for vector sketches.  The
        batch is still *one contiguous chunk of the single pass*: state
        after a batch equals state after processing the same tokens one
        by one (up to documented pool-pruning timing in candidate
        trackers).  Subclasses override :meth:`_process_batch` with
        vectorised kernels; the default falls back to the scalar path.
        """
        self._check_open()
        arrays = [np.asarray(c, dtype=np.int64) for c in columns]
        if not arrays or len(arrays[0]) == 0:
            return self
        length = len(arrays[0])
        if any(len(a) != length for a in arrays):
            raise ValueError(
                "batch columns must have equal lengths, got "
                f"{[len(a) for a in arrays]}"
            )
        self._process_batch(*arrays)
        self._tokens_seen += length
        return self

    def _process_batch(self, *columns) -> None:
        """Default batch kernel: the scalar path in a loop."""
        for row in zip(*columns):
            self._process(*(int(x) for x in row))

    def _ingest_planned(self, set_ids, elements, ctx):
        """Feed a chunk together with its fused-evaluation context.

        The internal fan-out path: composite roots that built an
        :class:`repro.engine.plan.EvalPlan` hand each consumer the
        per-chunk :class:`~repro.engine.plan.ChunkContext` so registered
        hash families are evaluated once and shared.  Returns what
        :meth:`_process_planned` returns, so a composite can collect
        its children's chunk results (``LargeSet`` gathers its runs'
        superset-id counts for one scatter).
        """
        self._check_open()
        result = self._process_planned(set_ids, elements, ctx)
        self._tokens_seen += len(set_ids)
        return result

    def _process_planned(self, set_ids, elements, ctx):
        """Planned batch kernel; defaults to the leaf batch kernel."""
        self._process_batch(set_ids, elements)

    def process_stream_batched(
        self, stream, batch_size: int = 8192
    ) -> "StreamingAlgorithm":
        """Feed an edge iterable through the batch path in chunks."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")

        def flush(buffer: list) -> None:
            if not buffer:
                return
            if isinstance(buffer[0], tuple):
                self.process_batch(*map(np.asarray, zip(*buffer)))
            else:
                self.process_batch(np.asarray(buffer))

        buffer: list = []
        for token in stream:
            buffer.append(token)
            if len(buffer) >= batch_size:
                flush(buffer)
                buffer = []
        flush(buffer)
        return self

    def finalize(self) -> None:
        """End the pass; subsequent :meth:`process` calls raise."""
        self._finalized = True

    # -- merging (sharded / distributed streams) ---------------------------

    def merge(self, other: "StreamingAlgorithm") -> "StreamingAlgorithm":
        """Absorb another instance of the same pass; returns ``self``.

        ``other`` must be an instance of the same class built with
        identical parameters and hash seeds -- a shard of the same
        logical stream.  After the merge, ``self`` holds the state of a
        single pass over the concatenation ``self's tokens ++ other's
        tokens``; ``other`` is consumed and must not be used again.

        For the linear sketches this equality is exact (bit-identical to
        the single pass).  For candidate-pool state the reconciliation
        is deterministic and documented per class.  Where the tracked
        state is insertion-ordered (candidate pools, the reporter's
        per-group sketches), shards must be merged left-to-right in
        stream order to reproduce the single pass's first-arrival order;
        ``LargeSet``'s per-superset KMV rows are kept in superset-id
        order and merge exactly in any order.

        Raises :class:`TypeError` for a different class and
        :class:`MergeIncompatibleError` for mismatched parameters or
        seeds.
        """
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        self._check_open()
        self._require_mergeable(other)
        self._merge(other)
        self._tokens_seen += other._tokens_seen
        return self

    def _require_mergeable(self, other) -> None:
        """Raise :class:`MergeIncompatibleError` unless ``other`` is a
        same-parameters, same-seeds instance.  Default: no constraints."""

    def _merge(self, other) -> None:
        """Combine ``other``'s validated state into ``self``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement merge"
        )

    # -- state shipping (checkpointing / worker processes) ------------------

    def state_arrays(self) -> dict:
        """The algorithm's mutable state as a flat ``{key: ndarray}`` dict.

        Covers *state only* -- counters, pools, stored edges -- not the
        constructor parameters or hash coefficients; load the dict into
        an instance constructed with the identical arguments and seed
        (see :func:`repro.sketch.serialize.save_state`).  Composite
        algorithms namespace children with ``/``-separated key prefixes.
        """
        state = self._state_arrays()
        state["tokens"] = np.asarray(self._tokens_seen, dtype=np.int64)
        return state

    def load_state_arrays(self, state: dict) -> "StreamingAlgorithm":
        """Restore state captured by :meth:`state_arrays`; returns ``self``.

        ``self`` must be a freshly constructed instance with the same
        parameters and seed as the instance that produced ``state``; the
        restored algorithm continues its pass (or merges) exactly like
        the original.
        """
        self._check_open()
        self._load_state_arrays(state)
        self._tokens_seen = int(state["tokens"])
        return self

    def _state_arrays(self) -> dict:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state shipping"
        )

    def _load_state_arrays(self, state: dict) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state shipping"
        )

    @abc.abstractmethod
    def _process(self, *token) -> None:
        """Handle one stream token (single-pass hot path)."""

    @abc.abstractmethod
    def space_words(self) -> int:
        """Machine words retained across stream tokens."""


class SetArrivalAlgorithm(abc.ABC):
    """Base class for *set-arrival* streaming algorithms.

    The restricted model some baselines require (Table 1, rows 4-5):
    each set arrives as one unit with its full contents.  The helper
    :meth:`process_edge_stream` adapts a set-major edge stream by
    buffering one set at a time -- valid only for ``set_major`` order,
    which is exactly the limitation the paper's general model removes.
    """

    def __init__(self) -> None:
        self._finalized = False
        self.sets_seen = 0

    def process_set(self, set_id: int, elements) -> None:
        """Feed one whole set."""
        if self._finalized:
            raise StreamConsumedError(
                f"{type(self).__name__} already finalised its single pass"
            )
        self.sets_seen += 1
        self._process_set(int(set_id), elements)

    def process_edge_stream(self, stream) -> "SetArrivalAlgorithm":
        """Adapt a *set-major* edge stream; raises on interleaved sets."""
        current_id: int | None = None
        buffer: list[int] = []
        seen: set[int] = set()
        for set_id, element in stream:
            if set_id != current_id:
                if set_id in seen:
                    raise ValueError(
                        f"set {set_id} arrived non-contiguously; "
                        "set-arrival algorithms require set_major order"
                    )
                if current_id is not None:
                    self.process_set(current_id, buffer)
                seen.add(set_id)
                current_id, buffer = set_id, []
            buffer.append(element)
        if current_id is not None:
            self.process_set(current_id, buffer)
        return self

    def finalize(self) -> None:
        """End the pass."""
        self._finalized = True

    @abc.abstractmethod
    def _process_set(self, set_id: int, elements) -> None:
        """Handle one arriving set."""

    @abc.abstractmethod
    def space_words(self) -> int:
        """Machine words retained across arrivals."""


def check_positive_int(name: str, value, auto: bool = False) -> int:
    """``value`` as an ``int``, provided it is an integer ``>= 1``.

    The one validator for the runners' size parameters (``chunk_size``,
    ``workers``).  Python and numpy integers pass.  Anything else --
    ``bool``, ``float``, ``str`` -- raises :class:`ValueError` naming
    ``name``: ``int()`` would silently turn ``True`` into 1 and
    ``4096.9`` into 4096.  ``auto=True`` adds the ``'auto'`` spelling to
    the message, for parameters whose callers resolve that string.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, np.integer)
    ):
        expected = "a positive int or 'auto'" if auto else "a positive int"
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class RunReport:
    """Timing summary returned by :meth:`StreamRunner.run`.

    Attributes
    ----------
    tokens:
        Stream tokens fed to the algorithm.
    chunks:
        ``process_batch`` calls issued (0 on the scalar path).
    seconds:
        Wall-clock duration of the pass.
    path:
        ``"vectorized"`` or ``"scalar"``.
    chunk_size:
        The chunk size the pass ran with.  For an autotuned run
        (``StreamRunner(chunk_size="auto")``) this is the size the
        tuner settled on, not the probe sizes.
    autotune:
        ``None`` for fixed-size runs; for autotuned runs, the tuner's
        probe table (see :meth:`repro.engine.autotune.AutotuneResult.report`).
    """

    tokens: int
    chunks: int
    seconds: float
    path: str
    chunk_size: int
    autotune: dict | None = None

    @property
    def tokens_per_sec(self) -> float:
        """Throughput, always finite.

        A pass too fast for the wall clock to resolve (zero or
        near-zero ``seconds``) is rated against a one-nanosecond floor
        instead of dividing by the raw delta, so reports never contain
        ``inf``; an empty pass rates 0.0.
        """
        if self.tokens <= 0:
            return 0.0
        return self.tokens / max(self.seconds, 1e-9)


class StreamRunner:
    """Uniform chunked driver for feeding streams to algorithms.

    Every driver in the package -- the CLI, the examples, the bench
    harness -- pushes streams through this one object, so the chunk
    size and the scalar/vectorized choice are a single knob rather than
    per-call-site conventions.

    Parameters
    ----------
    chunk_size:
        Edges per ``process_batch`` call on the vectorized path.  The
        default 4096 is large enough to amortise numpy dispatch across
        every branch's kernels, small enough that per-chunk scratch
        (``branches x chunk_size`` reduction matrices) stays in cache.
        Pass the string ``"auto"`` to pick the size empirically during
        the pass (columnar ``as_arrays`` streams only; other stream
        shapes fall back to the default size): see
        :func:`repro.engine.autotune.drive_autotuned`.  The chosen size
        is recorded in :attr:`RunReport.chunk_size` and the probe table
        in :attr:`RunReport.autotune`.
    path:
        ``"vectorized"`` routes chunks through ``process_batch``;
        ``"scalar"`` replays the per-token ``process`` reference path
        (the implementation the equivalence tests trust).
    """

    PATHS = ("vectorized", "scalar")

    def __init__(self, chunk_size: int | str = 4096, path: str = "vectorized"):
        self.autotune = chunk_size == "auto"
        if self.autotune:
            from repro.engine.autotune import DEFAULT_CHUNK_SIZE

            chunk_size = DEFAULT_CHUNK_SIZE
        self.chunk_size = check_positive_int(
            "chunk_size", chunk_size, auto=True
        )
        if path not in self.PATHS:
            raise ValueError(
                f"unknown path {path!r}; choose from {self.PATHS}"
            )
        self.path = path

    def run(self, algo: StreamingAlgorithm, stream) -> RunReport:
        """Feed every token of ``stream`` to ``algo``; timing report.

        ``stream`` may be any iterable of tuples (edges) or scalars
        (items); columnar streams (``EdgeStream``) expose ``as_arrays``
        and are fed as pure slices of their columns -- zero copies, no
        buffering, no per-edge Python work.
        """
        start = time.perf_counter()
        tokens = 0
        chunks = 0
        chunk_size = self.chunk_size
        autotune_report = None
        if self.path == "scalar":
            for token in stream:
                if isinstance(token, tuple):
                    algo.process(*token)
                else:
                    algo.process(token)
                tokens += 1
        elif hasattr(stream, "as_arrays"):
            set_ids, elements = stream.as_arrays()
            tokens = len(set_ids)
            if self.autotune:
                from repro.engine.autotune import drive_autotuned

                result = drive_autotuned(
                    lambda lo, hi: algo.process_batch(
                        set_ids[lo:hi], elements[lo:hi]
                    ),
                    tokens,
                )
                chunks = result.chunks
                chunk_size = result.chosen
                autotune_report = result.report()
            else:
                for lo in range(0, tokens, self.chunk_size):
                    hi = lo + self.chunk_size
                    algo.process_batch(set_ids[lo:hi], elements[lo:hi])
                    chunks += 1
        elif hasattr(stream, "iter_chunks"):
            for columns in stream.iter_chunks(self.chunk_size):
                algo.process_batch(*columns)
                tokens += len(columns[0])
                chunks += 1
        else:
            buffer: list = []
            for token in stream:
                buffer.append(token)
                if len(buffer) >= self.chunk_size:
                    tokens += self._flush(algo, buffer)
                    chunks += 1
                    buffer = []
            if buffer:
                tokens += self._flush(algo, buffer)
                chunks += 1
        return RunReport(
            tokens=tokens,
            chunks=chunks,
            seconds=time.perf_counter() - start,
            path=self.path,
            chunk_size=chunk_size,
            autotune=autotune_report,
        )

    @staticmethod
    def _flush(algo: StreamingAlgorithm, buffer: list) -> int:
        """Feed one buffered chunk through the batch path."""
        if isinstance(buffer[0], tuple):
            algo.process_batch(*map(np.asarray, zip(*buffer)))
        else:
            algo.process_batch(np.asarray(buffer))
        return len(buffer)
