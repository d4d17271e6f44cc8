"""Write-ahead log: one store key per forced batch, plus group commit.

The OTS coordinator logs its commit decision here before telling resources
to commit (presumed-abort protocol), and the activity recovery manager
logs activity-structure checkpoints.  Records are applied to an underlying
:class:`~repro.persistence.object_store.ObjectStore` so they share the
library's stable-storage model.

Records are append-only with monotonically increasing LSNs.  A log can be
reopened over the same store after a simulated crash; everything appended
(and forced) before the crash is still there.

Two durability engines share one on-store layout:

- :class:`WriteAheadLog` — ``append`` forces immediately (privately),
  ``append_volatile`` + ``force`` batch by hand; safe for concurrent
  appenders but each pays for its own flush;
- :class:`GroupCommitWAL` — concurrent appenders enqueue records and
  block on a *shared* force, so one durable write covers a whole batch
  of transactions (classic group commit).

Layout (format 3, one key per batch)
------------------------------------
``<name>:b:<first_lsn>:<last_lsn>``
    One forced batch: its records as ``[kind, payload]`` pairs in LSN
    order.  LSNs run contiguously from ``first_lsn`` to ``last_lsn`` (both
    zero-padded, so the store's sorted key listing is LSN order) and are
    not stored again per record.  Written exactly once, by the force that
    made the batch durable, and never overwritten — a force marshals and
    appends its own records and nothing else, so its cost is O(batch)
    however long the log has grown.
``<name>:head``
    ``{"format": 3, "next_lsn": n, "truncated_upto": t}``: two LSN
    watermarks, written only by ``truncate``.  ``next_lsn``
    keeps LSNs from being reissued once the records that carried them are
    gone; records at or below ``truncated_upto`` are dead even when the
    batch key that holds them survives (a batch the cut falls inside is
    filtered on read, not rewritten).  A log that never truncated has no
    head at all.

The log keeps only ``(first_lsn, last_lsn)`` per batch in memory, read
from the keys on open without decoding a single record; ``records``
decodes batches from the store on demand, and ``records(after=lsn)``
touches only the batches past ``lsn`` — O(new batches) for a reader that
remembers where it stopped.  ``generation`` changes whenever history may
have been rewritten under such a reader (truncate, re-open, promotion).

Durable-write sequence: ``force`` is one ``store.put`` of the batch key.
``truncate`` writes the head first and then removes the batch keys the
cut covers; a crash in between leaves covered keys that the next open
removes.  (README, "Persistence layering", tabulates every durable write
of one committed transaction: its one fsync is a force of this log — the
decision, carrying the transaction's intentions; the cell-store install
behind it is appended without an fsync, and the completion record waits
for the housekeeping round's checkpoint to sync that install before it
is appended volatile and rides the round's force.)
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import InvalidStateError
from repro.persistence.object_store import MemoryStore, ObjectStore

DEFAULT_GROUP_COMMIT_WINDOW = 0.002


class ShippedGapError(InvalidStateError):
    """A shipped batch does not extend this log contiguously.

    Raised by :meth:`WriteAheadLog.apply_shipped` when a follower log's
    durable tail and the incoming batch leave a hole in the LSN
    sequence; the replication layer reacts by re-syncing the follower
    from the primary instead of appending a log with missing history.
    """


@dataclass(frozen=True)
class LogRecord:
    """One durable log entry."""

    lsn: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class WriteAheadLog:
    """Append-only durable record list over an object store.

    Writes are forced (durable) by default.  ``append_volatile`` is for
    records a crash may lose (the coordinator's ``tx_completed``): they
    become durable with the next ``append`` or ``force``, in LSN order.

    A batch forced together is atomic: it lands in a single store write,
    so a crash mid-force leaves either the whole batch durable or none of
    it — never a torn prefix interleaved with later records.

    The log is safe for concurrent appenders, but each ``append`` here
    forces privately (the caller holds the log for its own flush);
    :class:`GroupCommitWAL` is the engine that makes concurrent appends
    share forces.
    """

    def __init__(self, store: Optional[ObjectStore] = None, name: str = "wal") -> None:
        self._store = store if store is not None else MemoryStore()
        self._name = name
        # Reentrant so GroupCommitWAL's condition can share it while its
        # methods call back into the base operations.
        self._lock = threading.RLock()
        self.forces = 0
        self.records_forced = 0
        self.generation = 0
        self._open()

    # -- keys ----------------------------------------------------------------

    def _head_key(self) -> str:
        return f"{self._name}:head"

    def _batch_key(self, first_lsn: int, last_lsn: int) -> str:
        return f"{self._name}:b:{first_lsn:012d}:{last_lsn:012d}"

    # -- opening -------------------------------------------------------------

    def _open(self) -> None:
        """(Re)load the log's state from ``self._store``.

        Also the promotion path: :class:`ReplicatedWAL` points
        ``_store`` at the promoted medium and opens again.
        """
        self.generation += 1
        self._volatile: List[LogRecord] = []
        self._firsts: List[int] = []  # per batch, ascending
        self._lasts: List[int] = []
        self._next_lsn = 1
        self._truncated_upto = 0
        self._durable_upto = 0  # highest LSN known durable
        prefix = f"{self._name}:b:"
        for key in self._store.keys():
            if key.startswith(prefix):
                first, _, last = key[len(prefix):].partition(":")
                self._firsts.append(int(first))
                self._lasts.append(int(last))
        head = self._store.get_or(self._head_key())  # absent: never truncated
        if head is not None:
            self._next_lsn = head["next_lsn"]
            self._truncated_upto = head["truncated_upto"]
        self._drop_batches_upto(self._truncated_upto)  # an interrupted truncate
        if self._lasts:
            self._durable_upto = self._lasts[-1]
            self._next_lsn = max(self._next_lsn, self._durable_upto + 1)

    # -- appending ----------------------------------------------------------

    def append(self, kind: str, **payload: Any) -> LogRecord:
        """Append and immediately force a record."""
        with self._lock:
            record = self.append_volatile(kind, **payload)
            self.force()
        return record

    def append_volatile(self, kind: str, **payload: Any) -> LogRecord:
        """Append a record that is lost on crash until :meth:`force` runs."""
        with self._lock:
            record = LogRecord(lsn=self._next_lsn, kind=kind, payload=payload)
            self._next_lsn += 1
            self._volatile.append(record)
            return record

    def force(self) -> None:
        """Flush all volatile records to stable storage in one batch write."""
        with self._lock:
            self._force_locked()

    def _force_locked(self) -> None:
        if not self._volatile:
            return
        self._land_batch_locked(self._volatile)
        self._volatile.clear()

    def _land_batch_locked(self, records: List[LogRecord]) -> None:
        """Make ``records`` (contiguous ascending LSNs) durable: one store
        write under a key no earlier write used."""
        first, last = records[0].lsn, records[-1].lsn
        self._store.put(
            self._batch_key(first, last),
            [[record.kind, record.payload] for record in records],
        )
        self._firsts.append(first)
        self._lasts.append(last)
        self._durable_upto = last
        self.forces += 1
        self.records_forced += len(records)

    # -- replication shipping -------------------------------------------------

    def apply_shipped(self, records: List[LogRecord]) -> None:
        """Apply a batch shipped from a replication primary.

        The records keep the primary's LSNs — a follower log never
        assigns its own — and must extend this log contiguously: either
        the log is empty (a fresh follower joins at whatever the primary
        still retains) or the batch starts at ``durable_upto + 1``.
        Anything else raises :class:`ShippedGapError` so the caller can
        fall back to a full re-sync rather than persist a log with a
        hole in its history.  The whole batch lands in one store write,
        mirroring the primary's one-flush-per-force contract.
        """
        with self._lock:
            if not records:
                return
            if self._volatile:
                raise InvalidStateError(
                    "follower log has local volatile records; "
                    "a follower only receives shipped batches"
                )
            for earlier, later in zip(records, records[1:]):
                if later.lsn != earlier.lsn + 1:
                    raise ShippedGapError(
                        f"shipped batch is not contiguous at lsn {earlier.lsn}"
                    )
            start = records[0].lsn
            empty = self._durable_upto == 0 and not self._lasts
            expected = start if empty else self._durable_upto + 1
            # At or below the truncation watermark the records would land
            # already dead; like a gap, that calls for a full re-sync.
            if start != expected or start <= self._truncated_upto:
                raise ShippedGapError(
                    f"shipped batch starts at lsn {start}, "
                    f"follower expected {expected}"
                )
            self._land_batch_locked(records)
            self._next_lsn = max(self._next_lsn, records[-1].lsn + 1)

    # -- reading ------------------------------------------------------------

    def records(self, after: int = 0) -> List[LogRecord]:
        """Durable records with ``lsn > after`` in LSN order (volatile
        tail excluded); decodes only the batches that hold them."""
        with self._lock:
            return self._records_locked(after)

    def _records_locked(self, after: int = 0) -> List[LogRecord]:
        after = max(after, self._truncated_upto)
        get, key_of = self._store.get, self._batch_key
        result: List[LogRecord] = []
        for index in range(bisect_right(self._lasts, after), len(self._lasts)):
            first = self._firsts[index]
            pairs = get(key_of(first, self._lasts[index]))
            if first <= after:  # the cut falls inside this (first) batch
                del pairs[: after + 1 - first]
                first = after + 1
            result.extend(
                [LogRecord(lsn, kind, payload) for lsn, (kind, payload) in enumerate(pairs, first)]
            )
        return result

    def __iter__(self):
        return iter(self.records())

    def __len__(self) -> int:
        with self._lock:
            return self._count_upto_locked(self._durable_upto)

    def _count_upto_locked(self, lsn: int) -> int:
        """Live (untruncated) durable records with an LSN up to ``lsn``."""
        floor = self._truncated_upto + 1
        return sum(
            max(0, min(last, lsn) - max(first, floor) + 1)
            for first, last in zip(self._firsts, self._lasts)
        )

    def of_kind(self, *kinds: str) -> List[LogRecord]:
        wanted = set(kinds)
        return [record for record in self.records() if record.kind in wanted]

    @property
    def durable_upto(self) -> int:
        """Highest LSN known to be durable (0 when the log is empty)."""
        return self._durable_upto

    # -- truncation ----------------------------------------------------------

    def truncate(self, up_to_lsn: int) -> int:
        """Discard durable records with ``lsn <= up_to_lsn``; return count."""
        with self._lock:
            return self._truncate_locked(up_to_lsn)

    def _truncate_locked(self, up_to_lsn: int) -> int:
        # Only durable records are discarded: the watermark must not
        # reach LSNs still in (or not yet handed to) the volatile tail.
        up_to_lsn = min(up_to_lsn, self._durable_upto)
        dropped = self._count_upto_locked(up_to_lsn)
        self._truncated_upto = max(self._truncated_upto, up_to_lsn)
        self.generation += 1
        # Head first: once it is durable the cut has happened, and keys
        # it covers that outlive a crash are removed by the next open.
        self._store.put(
            self._head_key(),
            {
                "format": 3,
                "next_lsn": self._next_lsn,
                "truncated_upto": self._truncated_upto,
            },
        )
        self._drop_batches_upto(self._truncated_upto)
        return dropped

    def _drop_batches_upto(self, lsn: int) -> None:
        """Remove every batch whose records all lie at or below ``lsn``."""
        covered = bisect_right(self._lasts, lsn)
        for first, last in zip(self._firsts[:covered], self._lasts[:covered]):
            self._store.remove(self._batch_key(first, last))
        del self._firsts[:covered]
        del self._lasts[:covered]

    # -- crash simulation ------------------------------------------------------

    def crash(self) -> None:
        """Drop the volatile tail, as a machine crash would."""
        with self._lock:
            self._volatile.clear()

    def _reopen_kwargs(self) -> Dict[str, Any]:
        return {}

    def reopen(self) -> "WriteAheadLog":
        """Return a fresh log handle over the same store (post-restart)."""
        with self._lock:
            if self._volatile:
                raise InvalidStateError(
                    "reopen with unforced records; crash() first"
                )
            return type(self)(self._store, self._name, **self._reopen_kwargs())

    @property
    def store(self) -> ObjectStore:
        return self._store


class GroupCommitWAL(WriteAheadLog):
    """Thread-safe WAL whose ``append`` rides a shared group force.

    Concurrent appenders enqueue records; the first one needing
    durability becomes the *flush leader*, waits up to ``window`` seconds
    for other transactions to join the batch, then forces everything
    enqueued with one durable write.  Followers block until the shared
    force covers their record, then return — each caller still gets the
    ``append``-means-durable contract, but N concurrent commits cost one
    force instead of N.

    ``window=0`` replaces the deliberate wait with a single yield to
    other threads, so batching then only happens under contention heavy
    enough for appenders to enqueue before the leader flushes; a real
    (fsync-speed) store or a nonzero window is what makes sharing
    reliable.

    :meth:`crash` discards the volatile tail; an ``append`` caught
    mid-window by a concurrent crash raises
    :class:`~repro.exceptions.InvalidStateError` rather than return a
    record that was never made durable.
    """

    def __init__(
        self,
        store: Optional[ObjectStore] = None,
        name: str = "wal",
        window: float = DEFAULT_GROUP_COMMIT_WINDOW,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(store, name)
        self.window = float(window)
        self._sleep = sleep
        # Shares the base lock so waiting on the shared force and the
        # base operations serialize against each other.
        self._flushed = threading.Condition(self._lock)
        self._leader_active = False

    def _reopen_kwargs(self) -> Dict[str, Any]:
        return {"window": self.window, "sleep": self._sleep}

    # -- thread-safe overrides ------------------------------------------------

    def append(self, kind: str, **payload: Any) -> LogRecord:
        """Append durably, sharing one force across concurrent appenders."""
        with self._flushed:
            record = super().append_volatile(kind, **payload)
            while self._durable_upto < record.lsn:
                if record not in self._volatile:
                    # A concurrent crash() discarded the volatile tail
                    # (including this record) while we waited; spinning
                    # would livelock and returning would break the
                    # append-means-durable contract.
                    raise InvalidStateError(
                        "record lost to a crash during group commit"
                    )
                if self._leader_active:
                    self._flushed.wait()
                    continue
                self._leader_active = True
                # Let other appenders join the batch: drop the lock while
                # we wait (window=0 still yields once).
                self._flushed.release()
                try:
                    self._sleep(max(0.0, self.window))
                finally:
                    self._flushed.acquire()
                try:
                    super().force()
                finally:
                    self._leader_active = False
                    self._flushed.notify_all()
        return record

    def force(self) -> None:
        with self._flushed:
            super().force()
            self._flushed.notify_all()

    def crash(self) -> None:
        with self._flushed:
            super().crash()
            # Wake any appender parked on the shared force so it can
            # observe its record is gone instead of sleeping forever.
            self._flushed.notify_all()
