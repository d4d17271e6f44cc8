"""Persistence substrate: object stores and a write-ahead log.

Fig. 3 of the paper shows the Activity Service implementation sitting on a
persistence service and a logging service.  This package provides both:
:class:`~repro.persistence.object_store.MemoryStore` /
:class:`~repro.persistence.object_store.SegmentedFileStore` for object state, and
:class:`~repro.persistence.wal.WriteAheadLog` for the transaction and
activity logs that drive crash recovery.

In the simulation, a store/log object represents *stable storage*: it is
deliberately held outside any :class:`~repro.orb.core.Node`, so a node
crash loses volatile servants but never the store contents — the same
failure model as a machine whose disks survive a reboot.

Durability has two axes here: *media* (memory, segmented
log-structured files, SQLite via
:class:`~repro.persistence.sqlite_store.SqliteStore`) and *redundancy*
(:class:`~repro.persistence.replicated.ReplicatedStore` /
:class:`~repro.persistence.replicated.ReplicatedWAL` put a write quorum
of any of those media behind the same two interfaces, so losing a disk
degrades a domain instead of erasing it).
"""

from repro.persistence.object_store import (
    MemoryStore,
    ObjectStore,
    SegmentedFileStore,
    StoreError,
)
from repro.persistence.replicated import (
    ReplicatedStore,
    ReplicatedWAL,
    ReplicaMedium,
    ReplicationError,
)
from repro.persistence.sqlite_store import SqliteStore
from repro.persistence.wal import (
    GroupCommitWAL,
    LogRecord,
    ShippedGapError,
    WriteAheadLog,
)

__all__ = [
    "ObjectStore",
    "MemoryStore",
    "SegmentedFileStore",
    "SqliteStore",
    "StoreError",
    "ReplicatedStore",
    "ReplicatedWAL",
    "ReplicaMedium",
    "ReplicationError",
    "WriteAheadLog",
    "GroupCommitWAL",
    "LogRecord",
    "ShippedGapError",
]
