"""Sharded parallel stream execution over mergeable sketches.

One executor, :class:`~repro.parallel.persistent.PersistentShardExecutor`,
keeps a resident worker pool.  Each submission splits the stream into
contiguous shards and ships every worker a shard descriptor of about
100 bytes over shared memory, or an mmap range for a file-backed
stream.  Workers send their flat ``.npz`` state blobs back, the
coordinator merges them in stream order, and the merged state is
bit-identical to the scalar single pass.  After each collect a worker
rebuilds its algorithm from the factory, so submissions never share
state.

Importing from ``repro.parallel`` is the stable API.
"""

from repro.parallel.persistent import (
    PersistentShardExecutor,
    ShardExecutionError,
    ShardTiming,
    ShardedRunReport,
    compute_shard_bounds,
    dispatch_payload_bytes,
    resolve_dispatch,
)

__all__ = [
    "ShardTiming",
    "ShardedRunReport",
    "PersistentShardExecutor",
    "ShardExecutionError",
    "compute_shard_bounds",
    "resolve_dispatch",
    "dispatch_payload_bytes",
]
