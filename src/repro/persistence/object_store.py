"""Keyed object stores standing in for the CORBA Persistent State Service.

A store maps string uids to marshallable values, encoded by the same
marshaller as values on the wire, so stored values obey exactly the same
typing discipline.  ``SegmentedFileStore`` is the on-disk store: a batch
of puts becomes one appending write plus one fsync, which is what lets
the write-ahead log's group commit map to a single OS-level flush.

Mutators (``put`` / ``put_many`` / ``remove``, and ``compact`` on the
segmented store) are serialised by an internal lock: the parallel
broadcast executor and the OTS ``parallel_participants`` fan-out drive
participant state writes from worker threads, and the segmented store's
rollover bookkeeping is a read-modify-write sequence that must not
interleave.  Reads stay lockless — the index maps to immutable encoded
values and single dict lookups are atomic.
"""

from __future__ import annotations

import abc
import os
import struct
import threading
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.exceptions import ReproError
from repro.orb.marshal import Marshaller, ValueTypeRegistry

BatchItems = Union[Mapping[str, Any], Iterable[Tuple[str, Any]]]


class StoreError(ReproError):
    """A store operation failed (missing key, I/O problem)."""


class ObjectStore(abc.ABC):
    """Abstract keyed store for recoverable object state."""

    @abc.abstractmethod
    def put(self, uid: str, state: Any) -> None:
        """Durably record ``state`` under ``uid`` (overwrites)."""

    @abc.abstractmethod
    def get(self, uid: str) -> Any:
        """Return the state stored under ``uid``; raise StoreError if absent."""

    @abc.abstractmethod
    def remove(self, uid: str) -> None:
        """Delete ``uid``; raise StoreError if absent."""

    @abc.abstractmethod
    def contains(self, uid: str) -> bool: ...

    @abc.abstractmethod
    def keys(self) -> Tuple[str, ...]: ...

    def put_many(self, items: BatchItems) -> None:
        """Durably record a batch of ``uid -> state`` pairs.

        The base implementation loops over :meth:`put`; append-oriented
        stores override it to land the whole batch in one OS-level flush.
        A batch should be atomic where the medium allows: either every
        pair is visible after a crash or none is.
        """
        for uid, state in dict(items).items():
            self.put(uid, state)

    def put_many_unsynced(self, items: BatchItems) -> bool:
        """A batch a forced log record carries; True if left for :meth:`sync`."""
        self.put_many(items)
        return False

    def sync(self) -> None:
        """Make every earlier write durable (by default they all are)."""

    def get_or(self, uid: str, default: Any = None) -> Any:
        return self.get(uid) if self.contains(uid) else default

    def close(self) -> None:
        """Release OS resources held between calls (none by default)."""

    def items(self) -> Iterator[Tuple[str, Any]]:
        for uid in self.keys():
            yield uid, self.get(uid)

    def __len__(self) -> int:
        return len(self.keys())


class MemoryStore(ObjectStore):
    """In-memory stable storage.

    Values pass through the marshaller on ``put`` and ``get`` so that (a)
    only wire-legal values can be stored and (b) readers always receive an
    independent copy — a store can never alias live object state.
    """

    def __init__(self, registry: Optional[ValueTypeRegistry] = None) -> None:
        self._marshaller = Marshaller(registry)
        self._data: Dict[str, bytes] = {}
        self._write_lock = threading.Lock()
        # Same memoization contract as SegmentedFileStore.keys(): the
        # sorted listing is cached until a mutation changes the key
        # *set* (overwrites keep it valid), so recovery scans stop
        # re-sorting per lookup pass.
        self._keys_cache: Optional[Tuple[str, ...]] = None
        self.writes = 0
        self.reads = 0

    def put(self, uid: str, state: Any) -> None:
        encoded = self._marshaller.encode(state)
        with self._write_lock:
            if uid not in self._data:
                self._keys_cache = None
            self._data[uid] = encoded
            self.writes += 1

    def put_many(self, items: BatchItems) -> None:
        # Encode everything first so a marshalling error leaves the store
        # untouched — the batch is all-or-nothing, like one flush.
        encoded = {uid: self._marshaller.encode(state) for uid, state in dict(items).items()}
        with self._write_lock:
            if any(uid not in self._data for uid in encoded):
                self._keys_cache = None
            self._data.update(encoded)
            self.writes += 1

    def get(self, uid: str) -> Any:
        try:
            raw = self._data[uid]
        except KeyError:
            raise StoreError(f"no state stored under {uid!r}") from None
        self.reads += 1
        return self._marshaller.decode(raw)

    def remove(self, uid: str) -> None:
        with self._write_lock:
            if uid not in self._data:
                raise StoreError(f"no state stored under {uid!r}")
            del self._data[uid]
            self._keys_cache = None

    def contains(self, uid: str) -> bool:
        return uid in self._data

    def keys(self) -> Tuple[str, ...]:
        cache = self._keys_cache
        if cache is None:
            with self._write_lock:
                cache = self._keys_cache
                if cache is None:
                    cache = tuple(sorted(self._data))
                    self._keys_cache = cache
        return cache


class SegmentedFileStore(ObjectStore):
    """Log-structured keyed store: one appending write + fsync per batch.

    Every mutation is a frame appended to the active segment file — a put
    carries the marshalled value, a remove carries a tombstone — and
    :meth:`put_many` writes the whole batch, puts then tombstones, with a
    *single* flush+fsync, which is what makes a WAL group commit cost one
    disk flush no matter how many transactions joined it.  An in-memory
    index maps each key to its latest encoded value and is rebuilt by
    replaying the segments on open.

    Crash guarantee of a multi-frame batch: **frame prefix**.  A frame
    torn by a crash mid-append is detected by its length prefix and
    dropped together with everything behind it, but the complete frames
    in front of it are applied — after reopen a batch is visible as its
    first *k* frames, for some *k* from none to all.  A single-frame
    write (every WAL force) is therefore all-or-nothing; a caller that
    batches several keys must tolerate every prefix (the cell install
    does: each cell's state carries its install version, and replaying
    the logged intentions installs exactly the cells the prefix missed).

    The active segment's file handle stays open between appends (opened
    by the first one, swapped on rollover and compaction, released by
    :meth:`close`); a store that is only read never opens one.

    :meth:`put_many_unsynced` skips the fsync until :meth:`sync`, a rollover,
    a compaction or :meth:`close`; opening syncs what a killed writer left.
    After a failed fsync (a retry may pass over dropped pages) appends and
    syncs raise until reopened.  ``flushes`` counts appends, ``fsyncs``
    fsyncs; ``synced`` maps segment id to the offset its last fsync covered.

    Segments roll over once the active file passes ``segment_bytes``;
    superseded frames accumulate until :meth:`compact` rewrites the live
    set into a fresh segment and deletes the old files.  The store runs
    that compaction itself **when a segment rolls over** and the
    dead-record ratio (frames written minus live keys, over frames
    written) has crossed ``auto_compact_ratio`` — on by default at 0.5
    since long-lived stores (site-daemon cell stores) otherwise grow
    without bound; pass ``auto_compact_ratio=None`` to opt out.  An
    append that does not fill the segment never pays for a rewrite, a
    heavily overwritten store compacts once per ``segment_bytes``
    written and holds at most its live set plus two segments on disk,
    and a store that never fills a segment never compacts.
    Reentrancy-safe (compaction's own rewrite never re-triggers itself).
    """

    _LEN = struct.Struct(">II")

    def __init__(
        self,
        root: str,
        registry: Optional[ValueTypeRegistry] = None,
        segment_bytes: int = 1 << 20,
        auto_compact_ratio: Optional[float] = 0.5,
    ) -> None:
        self._root = root
        self._marshaller = Marshaller(registry)
        self._segment_bytes = segment_bytes
        self._index: Dict[str, bytes] = {}
        # keys() returns a sorted tuple; recomputing the sort on every
        # call made recovery scans O(n log n) per lookup pass.  The
        # cache lives until a mutation changes the key *set*.
        self._keys_cache: Optional[Tuple[str, ...]] = None
        # Serialises appends/rollover/compaction: the active-segment
        # bookkeeping is a read-modify-write sequence (size check, id
        # bump, size reset) that concurrent writers must not interleave.
        self._write_lock = threading.RLock()
        self.flushes = 0
        self.fsyncs = 0
        self.synced: Dict[int, int] = {}
        self._failed: Optional[OSError] = None
        self.torn_frames_dropped = 0
        if auto_compact_ratio is not None and not (0.0 < auto_compact_ratio <= 1.0):
            raise ValueError("auto_compact_ratio must be in (0, 1]")
        self._auto_compact_ratio = auto_compact_ratio
        self._records_written = 0
        self._compacting = False
        self.auto_compactions = 0
        os.makedirs(root, exist_ok=True)
        self._segment_ids = self._scan_segment_ids()
        self._active_id = self._segment_ids[-1] if self._segment_ids else 1
        if not self._segment_ids:
            self._segment_ids = [self._active_id]
        self._handle: Optional[BinaryIO] = None  # append handle, opened by the first write
        for seg_id in self._segment_ids:
            # The last one is the active segment: appends go behind its
            # last whole frame.
            self._active_size = self.synced[seg_id] = self._replay(self._segment_path(seg_id))
        if os.path.exists(self._segment_path(self._active_id)):  # maybe page cache only
            with open(self._segment_path(self._active_id), "rb") as handle:
                os.fsync(handle.fileno())
            self.fsyncs += 1
            self._fsync_root()

    # -- layout ---------------------------------------------------------------

    def _segment_path(self, seg_id: int) -> str:
        return os.path.join(self._root, f"seg-{seg_id:08d}.log")

    def _scan_segment_ids(self) -> List[int]:
        ids = []
        for entry in os.listdir(self._root):
            if entry.startswith("seg-") and entry.endswith(".log"):
                ids.append(int(entry[len("seg-") : -len(".log")]))
        return sorted(ids)

    def _frame(self, uid: str, tombstone: bool, value: bytes) -> bytes:
        header = self._marshaller.encode([uid, tombstone])
        return self._LEN.pack(len(header), len(value)) + header + value

    def _replay(self, path: str) -> int:
        """Apply the frames of one segment file to the index; returns the
        offset behind the last whole frame."""
        if not os.path.exists(path):
            return 0
        with open(path, "rb") as handle:
            data = handle.read()
        unpack, prefix, decode = self._LEN.unpack_from, self._LEN.size, self._marshaller.decode
        index, size, offset = self._index, len(data), 0
        while offset < size:
            header_start = offset + prefix
            if header_start > size:
                self.torn_frames_dropped += 1
                break
            header_len, value_len = unpack(data, offset)
            value_start = header_start + header_len
            end = value_start + value_len
            if end > size:
                self.torn_frames_dropped += 1
                break
            uid, tombstone = decode(data[header_start:value_start])
            if tombstone:
                index.pop(uid, None)
            else:
                index[uid] = data[value_start:end]
            self._records_written += 1
            offset = end
        return offset

    def _fsync_root(self) -> None:
        """Force the store directory's entries to disk.

        A new segment file's directory entry lives in the directory's own
        data block: until that is flushed, a power loss can forget the
        file, and with it frames whose contents were durably written.
        Not every platform lets a directory be opened for fsync; where it
        can't be, the per-file fsync is the best available.
        """
        try:
            fd = os.open(self._root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _append_frames(self, frames: List[bytes], sync: bool = True) -> bool:
        """One write + fsync if ``sync`` (and a directory fsync when it created
        the segment file); True when it filled (and rolled) the segment."""
        self._refuse_if_failed()
        handle = self._handle
        created = False
        if handle is None:
            path = self._segment_path(self._active_id)
            created = not os.path.exists(path)
            handle = self._handle = open(path, "ab")
            if handle.tell() > self._active_size:
                # A crash tore the tail: cut it off, or replay would stop
                # there and never reach the frames appended behind it.
                handle.truncate(self._active_size)
        data = b"".join(frames)
        handle.write(data)
        handle.flush()
        self.flushes += 1
        self._records_written += len(frames)
        self._active_size += len(data)
        if sync:
            self.sync()
        if created:
            self._fsync_root()
        if self._active_size < self._segment_bytes:
            return False
        self._start_segment(self._active_id + 1)
        self._segment_ids.append(self._active_id)
        return True

    def _start_segment(self, seg_id: int) -> None:
        """Make ``seg_id`` the (still empty) active segment."""
        self.close()
        self._active_id = seg_id
        self._active_size = 0

    def _refuse_if_failed(self) -> None:
        if self._failed is not None:
            raise StoreError(f"{self._root}: an fsync failed ({self._failed}); reopen the store")

    def sync(self) -> None:
        """Fsync the active segment if an append left it dirty."""
        with self._write_lock:
            self._refuse_if_failed()
            if self._handle is not None and self.synced.get(self._active_id, 0) < self._active_size:
                try:
                    os.fsync(self._handle.fileno())
                except OSError as exc:
                    self._failed = exc
                    self._refuse_if_failed()
                self.fsyncs += 1
                self.synced[self._active_id] = self._active_size

    def close(self) -> None:
        """Sync (unless failed) and close the active segment's append handle.

        The store stays usable: the next append reopens the file.
        """
        with self._write_lock:
            if self._handle is not None:
                try:
                    if self._failed is None:
                        self.sync()
                finally:
                    self._handle.close()
                    self._handle = None

    # -- auto compaction -------------------------------------------------------

    def dead_record_ratio(self) -> float:
        """Fraction of written frames that no longer back a live key."""
        with self._write_lock:
            if self._records_written == 0:
                return 0.0
            dead = self._records_written - len(self._index)
            return dead / self._records_written

    def _maybe_auto_compact(self) -> None:
        """Compact when the dead-record ratio has crossed the threshold.

        Called (lock held) when an append rolled the active segment
        over; the reentrancy guard keeps compaction's own rewrite — and
        any future mutator nested under it — from recursing.
        """
        if self._auto_compact_ratio is None or self._compacting:
            return
        dead = self._records_written - len(self._index)
        if dead / self._records_written < self._auto_compact_ratio:
            return
        self._compacting = True
        try:
            self._compact_locked()
            self.auto_compactions += 1
        finally:
            self._compacting = False

    # -- ObjectStore interface ------------------------------------------------

    def put(self, uid: str, state: Any) -> None:
        self.put_many([(uid, state)])

    def put_many(self, items: BatchItems, removes: Iterable[str] = ()) -> None:
        """Puts, then a tombstone per existing uid of ``removes``, in one
        append + fsync (see the class docstring for the crash guarantee)."""
        encoded = {uid: self._marshaller.encode(state) for uid, state in dict(items).items()}
        with self._write_lock:
            dead = [uid for uid in removes if uid in self._index or uid in encoded]
            self._apply_locked(encoded, dead)

    def put_many_unsynced(self, items: BatchItems) -> bool:
        encoded = {uid: self._marshaller.encode(state) for uid, state in dict(items).items()}
        with self._write_lock:
            self._apply_locked(encoded, [], sync=False)
        return True

    def _apply_locked(self, encoded: Dict[str, bytes], dead: List[str], sync: bool = True) -> None:
        frames = [self._frame(uid, False, value) for uid, value in encoded.items()]
        frames.extend(self._frame(uid, True, b"") for uid in dead)
        if not frames:
            return
        rolled = self._append_frames(frames, sync)
        self._index.update(encoded)
        for uid in dead:
            self._index.pop(uid, None)
        self._keys_cache = None
        if rolled:  # after the index took the batch: compaction rewrites from it
            self._maybe_auto_compact()

    def get(self, uid: str) -> Any:
        try:
            raw = self._index[uid]
        except KeyError:
            raise StoreError(f"no state stored under {uid!r}") from None
        return self._marshaller.decode(raw)

    def remove(self, uid: str) -> None:
        with self._write_lock:
            if uid not in self._index:
                raise StoreError(f"no state stored under {uid!r}")
            self._apply_locked({}, [uid])

    def contains(self, uid: str) -> bool:
        return uid in self._index

    def keys(self) -> Tuple[str, ...]:
        cache = self._keys_cache
        if cache is None:
            with self._write_lock:
                cache = self._keys_cache
                if cache is None:
                    cache = tuple(sorted(self._index))
                    self._keys_cache = cache
        return cache

    # -- maintenance ----------------------------------------------------------

    def compact(self) -> int:
        """Rewrite live entries into a fresh segment; return files removed."""
        with self._write_lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        old_ids = list(self._segment_ids)
        new_id = (old_ids[-1] if old_ids else 0) + 1
        self._start_segment(new_id)
        self._segment_ids = [new_id]
        self._records_written = 0
        frames = [self._frame(uid, False, value) for uid, value in sorted(self._index.items())]
        if frames:
            # Creates the new segment and fsyncs its directory entry, so
            # the live set is durable before any old segment goes.
            self._append_frames(frames)
        removed = 0
        for seg_id in old_ids:
            self.synced.pop(seg_id, None)
            path = self._segment_path(seg_id)
            if os.path.exists(path):
                os.remove(path)
                removed += 1
        return removed
