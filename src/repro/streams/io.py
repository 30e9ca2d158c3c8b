"""Binary on-disk stream format: columnar ``.npz`` with a shape header.

The text format (:meth:`EdgeStream.save` / :meth:`EdgeStream.load`) is
human-readable but parses one line at a time; at production scale the
parse dominates end-to-end wall clock.  This module stores a stream as
an *uncompressed* ``.npz`` archive of three int64 members::

    set_ids.npy    the set-id column, in arrival order
    elements.npy   the element column, in arrival order
    shape.npy      the instance shape header ``[m, n]``

Because ``np.savez`` stores members uncompressed (``ZIP_STORED``), each
column's bytes sit contiguously inside the archive and can be
*memory-mapped* in place: :func:`load_columns` with ``mmap=True`` walks
the zip directory, locates each member's raw ``.npy`` payload, and
returns read-only ``np.memmap`` views -- a multi-GB stream "loads" in
microseconds and pages in lazily, shared across processes through the
OS page cache.  This is what makes the ``mmap`` shard-dispatch path in
:class:`~repro.parallel.PersistentShardExecutor` O(1) per worker.

Format detection is by extension (``.npz`` is binary, everything else
text) with a zip-magic sniff as the fallback, so renamed files still
route correctly.
"""

from __future__ import annotations

import zipfile

import numpy as np

__all__ = [
    "BINARY_SUFFIX",
    "StreamFormatError",
    "detect_format",
    "load_columns",
    "save_columns",
]

BINARY_SUFFIX = ".npz"


class StreamFormatError(ValueError):
    """A file is not a readable binary edge-stream archive.

    Raised (instead of whatever ``zipfile``/``numpy`` internals would
    propagate) for truncated files, non-zip bytes behind a ``.npz``
    name, corrupted or missing members, malformed shape headers, and
    mismatched column lengths -- every way on-disk bytes can fail to be
    a stream, typed so callers can catch storage corruption without a
    blanket ``except``.  Subclasses :class:`ValueError` for backwards
    compatibility.  A missing file still raises
    :class:`FileNotFoundError`.
    """


_ZIP_MAGIC = b"PK\x03\x04"
# Fixed portion of a zip local file header; the two little-endian uint16
# fields at offsets 26/28 give the variable name/extra lengths that sit
# between the header and the member's data.
_LOCAL_HEADER_SIZE = 30


def detect_format(path) -> str:
    """``"binary"`` or ``"text"``, by extension then by magic bytes."""
    if str(path).endswith(BINARY_SUFFIX):
        return "binary"
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(_ZIP_MAGIC))
    except OSError:
        return "text"
    return "binary" if magic == _ZIP_MAGIC else "text"


def save_columns(path, set_ids, elements, m: int, n: int) -> None:
    """Write ``(set_ids, elements)`` columns and the ``(m, n)`` header."""
    set_ids = np.ascontiguousarray(set_ids, dtype=np.int64)
    elements = np.ascontiguousarray(elements, dtype=np.int64)
    if set_ids.shape != elements.shape or set_ids.ndim != 1:
        raise ValueError(
            "columns must be equal-length 1-d arrays, got shapes "
            f"{set_ids.shape} and {elements.shape}"
        )
    np.savez(
        path,
        set_ids=set_ids,
        elements=elements,
        shape=np.asarray([int(m), int(n)], dtype=np.int64),
    )


def load_columns(path, mmap: bool = False):
    """Read a binary stream file; returns ``(set_ids, elements, m, n)``.

    With ``mmap=True`` the columns come back as read-only
    ``np.memmap`` views into the archive (zero parse, lazy paging);
    otherwise they are eagerly loaded in-memory arrays.
    """
    try:
        if mmap:
            members = _mmap_members(path)
        else:
            with np.load(path) as archive:
                members = {name: archive[name] for name in archive.files}
    except StreamFormatError:
        raise
    except FileNotFoundError:
        raise
    except (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile) as exc:
        # Truncated archives, non-zip bytes, corrupted zip directories,
        # and malformed .npy members all surface as one typed error.
        raise StreamFormatError(
            f"{path}: not a readable stream archive ({exc})"
        ) from exc
    try:
        set_ids = members["set_ids"]
        elements = members["elements"]
        shape = members["shape"]
    except KeyError as exc:
        raise StreamFormatError(
            f"{path}: not a stream archive (missing member {exc})"
        ) from None
    if shape.ndim != 1 or len(shape) != 2:
        raise StreamFormatError(
            f"{path}: malformed shape header {shape!r}"
        )
    if set_ids.ndim != 1 or elements.ndim != 1:
        raise StreamFormatError(
            f"{path}: stream columns must be 1-d, got shapes "
            f"{set_ids.shape} and {elements.shape}"
        )
    if len(set_ids) != len(elements):
        raise StreamFormatError(
            f"{path}: column length mismatch "
            f"({len(set_ids)} set ids vs {len(elements)} elements)"
        )
    try:
        m, n = int(shape[0]), int(shape[1])
    except (TypeError, ValueError) as exc:
        raise StreamFormatError(
            f"{path}: non-integer shape header {shape!r}"
        ) from exc
    return set_ids, elements, m, n


def _mmap_members(path) -> dict:
    """Memory-map every ``.npy`` member of an uncompressed ``.npz``.

    ``np.load`` ignores ``mmap_mode`` for archives, so this locates each
    member's payload by hand: zip directory -> local header -> npy
    header -> raw data offset, then ``np.memmap`` at that offset.
    """
    members: dict = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if not info.filename.endswith(".npy"):
                continue
            name = info.filename[: -len(".npy")]
            if info.compress_type != zipfile.ZIP_STORED:
                raise StreamFormatError(
                    f"{path}: member {info.filename!r} is compressed; "
                    "only np.savez (uncompressed) archives can be "
                    "memory-mapped -- re-save or load with mmap=False"
                )
            members[name] = _mmap_one(path, info)
    return members


def _mmap_one(path, info) -> np.ndarray:
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        header = handle.read(_LOCAL_HEADER_SIZE)
        if header[:4] != _ZIP_MAGIC:
            raise StreamFormatError(
                f"{path}: corrupt local header for {info.filename!r}"
            )
        name_len = int.from_bytes(header[26:28], "little")
        extra_len = int.from_bytes(header[28:30], "little")
        handle.seek(info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise StreamFormatError(
                f"{path}: unsupported npy format version {version} "
                f"in member {info.filename!r}"
            )
        if fortran:
            raise StreamFormatError(
                f"{path}: Fortran-ordered member {info.filename!r} "
                "cannot be memory-mapped as a stream column"
            )
        offset = handle.tell()
    if int(np.prod(shape)) == 0:
        # mmap cannot map zero bytes; an empty column is just empty.
        return np.empty(shape, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
