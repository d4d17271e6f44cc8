"""Replicated persistence: quorum object stores and WAL shipping.

Every durability story so far ends at one ``fsync`` on one medium: a
domain that loses that disk loses its committed cells and — far worse —
its in-doubt coordination state, which peers presume a superior can
always answer (``resolve_in_doubt``).  This module puts N copies behind
the two existing interfaces so losing a disk degrades a domain instead
of erasing it:

- :class:`ReplicatedStore` — an :class:`~repro.persistence.object_store.ObjectStore`
  over a primary + N-1 follower replicas (each any existing store).
  ``put`` / ``put_many`` / ``remove`` acknowledge only once a
  configurable **write quorum** of replicas has durably applied the
  mutation; stragglers are retried under a
  :class:`~repro.util.retry.RetryPolicy` and persistently failing
  replicas are latched DOWN by a
  :class:`~repro.orb.membership.FailureDetector`, after which the store
  keeps serving in *degraded mode* (as long as a quorum remains) with an
  explicit ``under_replicated`` health surface.  A write that misses
  the quorum is rolled back out of the journal and off the minority
  that applied it, so unacknowledged data is never observable.  Every
  mutation gets a monotone version; a bounded op journal replays missed
  versions into a readmitted replica, falling back to a full snapshot
  re-sync when the journal no longer reaches back far enough (or after
  a wipe).

- :class:`ReplicatedWAL` — a :class:`~repro.persistence.wal.GroupCommitWAL`
  on the primary medium that ships every force's batch to follower
  logs, one shipped batch per force, keeping the primary's LSNs.  A
  restarted or readmitted follower re-syncs through the
  sequence-numbered catch-up protocol
  (:meth:`~repro.persistence.wal.WriteAheadLog.apply_shipped` rejects
  gaps; the primary then ships the missing tail, or a store-level
  snapshot when truncation has outrun the follower) *before* it counts
  toward the quorum again.

Both layers share one **deterministic promotion path**: construction
elects the medium holding the newest durable state (highest persisted
version / highest ``durable_upto``, ties broken by replica order), and
:meth:`promote` re-runs the same election over the surviving replicas
when the primary's disk is lost — because acked state reached a write
quorum, the newest surviving replica is guaranteed to contain every
acknowledged write whenever a quorum survives the failure.

:class:`ReplicaMedium` wraps any backing store as a pluggable "disk"
with ``fail()`` / ``heal()`` / ``wipe()`` hooks; the chaos engine's
``replica_loss`` and ``disk_wipe`` fault kinds drive exactly these.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidStateError
from repro.orb.membership import (
    FailureDetector,
    FailureDetectorConfig,
    PeerState,
)
from repro.persistence.object_store import (
    BatchItems,
    MemoryStore,
    ObjectStore,
    StoreError,
)
from repro.persistence.wal import (
    DEFAULT_GROUP_COMMIT_WINDOW,
    GroupCommitWAL,
    LogRecord,
    ShippedGapError,
    WriteAheadLog,
)
from repro.util.clock import WallClock
from repro.util.retry import RetryPolicy

#: Version marker persisted inside each replica of a ReplicatedStore so
#: a reboot (or promotion) can elect the newest copy without trusting
#: any process memory.  Hidden from keys()/items()/len().
META_KEY = "__replication__"

#: Sentinel for "this key did not exist" in a captured pre-image, so a
#: failed-quorum write can be rolled back to a state where the key is
#: absent (None is a legitimate stored value).
_MISSING = object()


class ReplicationError(StoreError):
    """A replicated operation could not reach its safety contract
    (write quorum not met, acked state unreachable, catch-up failed)."""


def default_replica_detector_config() -> FailureDetectorConfig:
    """Detector defaults tuned for storage replicas, not network peers.

    One explicit failure latches DOWN: a replica write already carries
    its own straggler retry, so a surviving error is strong evidence —
    and phi never latches, because replicas are only heartbeated by
    write traffic (an idle store is silent because it is idle).
    """
    return FailureDetectorConfig(
        heartbeat_interval=1.0,
        probe_interval=1.0,
        failure_threshold=1,
        phi_latches_down=False,
    )


def default_replica_retry() -> RetryPolicy:
    """One immediate straggler retry per replica per operation: a
    transient error gets a second chance inside the same acknowledged
    write, without ever sleeping on the quorum path."""
    return RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)


class ReplicaMedium(ObjectStore):
    """One pluggable "disk": a backing store that can fail, heal, wipe.

    The replicated layers treat any raised :class:`ReplicationError` as
    *medium* failure (retry, mark DOWN) while a plain
    :class:`StoreError` from a healthy medium keeps its usual meaning
    (missing key).  ``wipe()`` swaps in a fresh empty backing store —
    the disk was replaced; whatever it held is gone — after which the
    owning replicated store/WAL must be told via ``note_wiped`` so the
    replica is re-seeded instead of trusted.
    """

    def __init__(
        self,
        name: str,
        backing: ObjectStore,
        fresh: Optional[Callable[[], ObjectStore]] = None,
    ) -> None:
        self.name = name
        self._backing = backing
        self._fresh = fresh if fresh is not None else MemoryStore
        self.failed = False
        self.wipes = 0

    @property
    def backing(self) -> ObjectStore:
        return self._backing

    def fail(self) -> None:
        """The disk stops answering (pulled cable, dead controller)."""
        self.failed = True

    def heal(self) -> None:
        self.failed = False

    def wipe(self) -> None:
        """Replace the disk with an empty one; the old contents are lost."""
        self._backing.close()
        self._backing = self._fresh()
        self.failed = False
        self.wipes += 1

    def _check(self) -> None:
        if self.failed:
            raise ReplicationError(f"replica medium {self.name!r} is failed")

    # -- ObjectStore delegation -----------------------------------------------

    def put(self, uid: str, state: Any) -> None:
        self._check()
        self._backing.put(uid, state)

    def put_many(self, items: BatchItems) -> None:
        self._check()
        self._backing.put_many(items)

    def get(self, uid: str) -> Any:
        self._check()
        return self._backing.get(uid)

    def remove(self, uid: str) -> None:
        self._check()
        self._backing.remove(uid)

    def contains(self, uid: str) -> bool:
        self._check()
        return self._backing.contains(uid)

    def keys(self) -> Tuple[str, ...]:
        self._check()
        return self._backing.keys()

    def close(self) -> None:
        self._backing.close()


class _Replica:
    """Book-keeping for one member of a :class:`ReplicatedStore`."""

    __slots__ = ("index", "name", "store", "applied", "resync")

    def __init__(self, index: int, name: str, store: ObjectStore) -> None:
        self.index = index
        self.name = name
        self.store = store
        self.applied = 0  # highest version durably applied on this replica
        self.resync = False  # contents untrusted; full snapshot required


def _replica_name(index: int, store: ObjectStore) -> str:
    name = getattr(store, "name", None)
    return name if isinstance(name, str) and name else f"replica-{index}"


class ReplicatedStore(ObjectStore):
    """Primary + N-1 followers behind the :class:`ObjectStore` interface.

    Mutations apply to every live replica in declaration order and
    acknowledge once ``write_quorum`` replicas hold the new version
    durably; anything less raises :class:`ReplicationError` and the
    write is *rolled back* — un-journaled and reverted on the minority
    that applied it (a replica whose pre-image cannot be restored is
    distrusted and re-seeded) — so an unacknowledged write is never
    observable through reads, catch-up replay, or promotion.  Reads are
    served from the newest live replica holding at least the acked
    version, preferring the elected primary, so the store always reads
    its acknowledged writes while any quorum survives.
    """

    def __init__(
        self,
        replicas: Sequence[ObjectStore],
        write_quorum: Optional[int] = None,
        clock: Optional[Any] = None,
        retry: Optional[RetryPolicy] = None,
        detector_config: Optional[FailureDetectorConfig] = None,
        journal_limit: int = 512,
    ) -> None:
        stores = list(replicas)
        if not stores:
            raise ReplicationError("ReplicatedStore needs at least one replica")
        quorum = (len(stores) // 2) + 1 if write_quorum is None else write_quorum
        if not 1 <= quorum <= len(stores):
            raise ReplicationError(
                f"write_quorum {quorum} out of range for {len(stores)} replicas"
            )
        if journal_limit < 1:
            raise ReplicationError("journal_limit must be >= 1")
        self._write_quorum = quorum
        self._clock = clock if clock is not None else WallClock()
        self._retry = retry if retry is not None else default_replica_retry()
        self._detector = FailureDetector(
            self._clock,
            detector_config
            if detector_config is not None
            else default_replica_detector_config(),
        )
        self._lock = threading.RLock()
        self._journal: Deque[Tuple[int, str, Any]] = deque()
        self._journal_limit = journal_limit
        self._under_since: Optional[float] = None
        self.catch_ups = 0
        self.full_resyncs = 0
        self.quorum_failures = 0
        self.promotions = 0
        self._replicas = [
            _Replica(i, _replica_name(i, store), store)
            for i, store in enumerate(stores)
        ]
        unversioned: List[_Replica] = []
        for replica in self._replicas:
            self._detector.watch(replica.name)
            try:
                meta = replica.store.get_or(META_KEY)
                populated = meta is None and any(
                    uid != META_KEY for uid in replica.store.keys()
                )
            except Exception:
                replica.resync = True
                self._detector.failure(replica.name)
            else:
                replica.applied = int(meta["version"]) if meta else 0
                if populated:
                    unversioned.append(replica)
        if unversioned:
            self._adopt_unversioned(unversioned)
        # Election: the newest durable copy becomes the read primary;
        # ties break toward the declared order.  This is the same rule
        # promote() applies after a primary loss, which is what makes
        # reboot-after-disk-loss and live promotion converge.
        self._version = max(r.applied for r in self._replicas)
        self._acked_version = self._version
        self._primary = self._elect_locked().index
        for replica in self._replicas:
            if replica.applied < self._version or replica.resync:
                try:
                    self._catch_up_replica_locked(replica, self._version)
                except Exception:
                    self._detector.failure(replica.name)
        self._refresh_health_locked()

    def _adopt_unversioned(self, unversioned: List[_Replica]) -> None:
        """Place replicas holding data but no version marker.

        Wrapping a pre-existing single-copy store is the legitimate
        case: with no versioned replica anywhere, the first populated
        one is adopted as the seed at version 1, so empty followers
        (version 0) read as *behind* it and get re-seeded instead of
        counting as in-sync — otherwise the first primary loss would
        promote an empty-but-"current" follower and every pre-existing
        key would vanish.  When versioned copies do exist, unversioned
        content has no place in the version order and is distrusted.
        """
        if any(r.applied > 0 for r in self._replicas):
            for replica in unversioned:
                replica.resync = True
            return
        seed: Optional[_Replica] = None
        for replica in unversioned:
            if seed is None:
                try:
                    replica.store.put(META_KEY, {"version": 1})
                except Exception:
                    replica.resync = True
                    self._detector.failure(replica.name)
                    continue
                replica.applied = 1
                seed = replica
            else:
                # A second marker-less populated disk may hold anything;
                # only one adopted lineage can win.
                replica.resync = True

    # -- membership helpers ---------------------------------------------------

    def _down_locked(self, replica: _Replica) -> bool:
        return self._detector.state(replica.name) is PeerState.DOWN

    def _skip_locked(self, replica: _Replica) -> bool:
        """Skip a DOWN replica unless its half-open probe is due."""
        if not self._down_locked(replica):
            return False
        return not self._detector.should_probe(replica.name)

    def _elect_locked(self) -> _Replica:
        live = [r for r in self._replicas if not self._down_locked(r) and not r.resync]
        candidates = live if live else list(self._replicas)
        return max(candidates, key=lambda r: (r.applied, -r.index))

    # -- mutation path --------------------------------------------------------

    def put(self, uid: str, state: Any) -> None:
        self.put_many({uid: state})

    def put_many(self, items: BatchItems) -> None:
        batch = dict(items)
        if not batch:
            return
        if META_KEY in batch:
            raise StoreError(f"{META_KEY!r} is reserved for replication metadata")
        self._mutate("put_many", batch)

    def remove(self, uid: str) -> None:
        with self._lock:
            if not self.contains(uid):
                raise StoreError(f"no state stored under {uid!r}")
            self._mutate("remove", uid)

    def _mutate(self, kind: str, payload: Any) -> None:
        with self._lock:
            # Pre-image of the touched keys, captured before the first
            # replica applies: once a replica holds the new version the
            # old values exist nowhere reachable if the rest of the
            # quorum dies mid-write, and the rollback path needs them.
            prior = self._capture_prior_locked(kind, payload, self._version)
            self._version += 1
            version = self._version
            self._journal.append((version, kind, payload))
            while len(self._journal) > self._journal_limit:
                self._journal.popleft()
            acked: List[_Replica] = []
            for replica in self._replicas:
                if self._skip_locked(replica):
                    continue
                try:
                    self._retry.call(
                        lambda r=replica: self._apply_locked(r, version, kind, payload),
                        retry_on=(Exception,),
                        sleep=self._clock.sleep,
                        now=self._clock.now,
                    )
                except Exception:
                    self._detector.failure(replica.name)
                else:
                    replica.applied = version
                    self._detector.heartbeat(replica.name)
                    acked.append(replica)
            if len(acked) >= self._write_quorum:
                self._acked_version = version
                self._refresh_health_locked()
                return
            self.quorum_failures += 1
            self._rollback_locked(version, prior, acked)
            self._refresh_health_locked()
            raise ReplicationError(
                f"write v{version} acked by {len(acked)}/{len(self._replicas)} "
                f"replicas ({[r.name for r in acked]}) and was rolled back; "
                f"write_quorum={self._write_quorum}"
            )

    def _capture_prior_locked(
        self, kind: str, payload: Any, at_version: int
    ) -> Optional[Dict[str, Any]]:
        """Pre-image of the keys this op touches, read from a replica
        fully current at ``at_version`` (missing keys map to
        ``_MISSING``) — what a failed-quorum write needs to roll itself
        back out.  ``None`` when no current replica answers."""
        keys = list(payload) if kind == "put_many" else [payload]
        candidates = sorted(
            (
                r
                for r in self._replicas
                if not r.resync and r.applied == at_version
            ),
            key=lambda r: (r.index != self._primary, r.index),
        )
        for replica in candidates:
            try:
                return {
                    uid: (
                        replica.store.get(uid)
                        if replica.store.contains(uid)
                        else _MISSING
                    )
                    for uid in keys
                }
            except Exception:
                continue
        return None

    def _rollback_locked(
        self,
        version: int,
        prior: Optional[Dict[str, Any]],
        acked: List[_Replica],
    ) -> None:
        """Roll a failed-quorum write back out so it is never
        observable: un-journal it, retract the version, and restore the
        pre-image on the minority that applied it.  A replica whose
        pre-image cannot be restored is distrusted (full re-sync) rather
        than left holding a write that was never acknowledged."""
        if self._journal and self._journal[-1][0] == version:
            self._journal.pop()
        self._version = version - 1
        for replica in acked:
            try:
                if prior is None:
                    raise ReplicationError("no pre-image captured")
                restore: Dict[str, Any] = {
                    uid: value
                    for uid, value in prior.items()
                    if value is not _MISSING
                }
                for uid, value in prior.items():
                    if value is _MISSING and replica.store.contains(uid):
                        replica.store.remove(uid)
                restore[META_KEY] = {"version": version - 1}
                replica.store.put_many(restore)
            except Exception:
                replica.applied = 0
                replica.resync = True
                self._detector.failure(replica.name)
            else:
                replica.applied = version - 1

    def _apply_locked(
        self, replica: _Replica, version: int, kind: str, payload: Any
    ) -> None:
        if replica.resync or replica.applied < version - 1:
            # A lagging or readmitted replica re-syncs *before* this
            # write can count it toward the quorum.
            self._catch_up_replica_locked(replica, version - 1)
        self._apply_op(replica.store, kind, payload, version)

    @staticmethod
    def _apply_op(store: ObjectStore, kind: str, payload: Any, version: int) -> None:
        if kind == "put_many":
            batch = dict(payload)
            batch[META_KEY] = {"version": version}
            store.put_many(batch)
        elif kind == "remove":
            try:
                store.remove(payload)
            except ReplicationError:
                raise  # medium failure, not a missing key
            except StoreError:
                pass  # replay over a snapshot that already lacks the key
            store.put(META_KEY, {"version": version})
        else:  # pragma: no cover - journal is written by this class only
            raise ReplicationError(f"unknown journal op {kind!r}")

    # -- catch-up -------------------------------------------------------------

    def _journal_covers_locked(self, applied: int) -> bool:
        needed_from = applied + 1
        if needed_from > self._version:
            return True  # nothing missing
        return bool(self._journal) and self._journal[0][0] <= needed_from

    def _catch_up_replica_locked(self, replica: _Replica, upto: int) -> None:
        if replica.resync or not self._journal_covers_locked(replica.applied):
            self._full_resync_locked(replica, upto)
            if replica.applied < upto and not self._journal_covers_locked(
                replica.applied
            ):
                # Backstop (source eligibility should make this
                # unreachable): replaying the journal over a gap would
                # silently skip the versions between the snapshot and
                # the journal's oldest entry.
                raise ReplicationError(
                    f"journal cannot bridge replica {replica.name!r} "
                    f"from v{replica.applied} to v{upto}"
                )
        for version, kind, payload in list(self._journal):
            if version <= replica.applied or version > upto:
                continue
            self._apply_op(replica.store, kind, payload, version)
            replica.applied = version
        if replica.applied < upto:
            raise ReplicationError(
                f"replica {replica.name!r} caught up to v{replica.applied}, "
                f"needed v{upto}"
            )
        self.catch_ups += 1

    def _full_resync_locked(self, replica: _Replica, upto: int) -> None:
        """Re-seed ``replica`` from the newest other live copy.

        A source is only eligible when its snapshot can be extended to
        ``upto``: either it already holds everything needed, or the op
        journal reaches back to its version.  A live-but-stale source
        below the journal window must never seed a catch-up — replaying
        the journal over the gap would skip mutations silently, then
        report the replica in sync."""
        sources = [
            r
            for r in self._replicas
            if r is not replica
            and not r.resync
            and not self._down_locked(r)
            and (r.applied >= upto or self._journal_covers_locked(r.applied))
        ]
        if not sources:
            raise ReplicationError(
                f"no live source can re-sync replica {replica.name!r} "
                f"to v{upto} without skipping journaled versions"
            )
        source = max(sources, key=lambda r: (r.applied, -r.index))
        snapshot = {
            uid: source.store.get(uid)
            for uid in source.store.keys()
            if uid != META_KEY
        }
        for uid in replica.store.keys():
            if uid != META_KEY and uid not in snapshot:
                replica.store.remove(uid)
        snapshot[META_KEY] = {"version": source.applied}
        replica.store.put_many(snapshot)
        replica.applied = source.applied
        replica.resync = False
        self.full_resyncs += 1

    def catch_up(self) -> int:
        """Opportunistically re-sync every reachable lagging replica;
        returns how many replicas were brought back in sync.  This is
        the maintenance entry point (site serve loop, chaos repair
        rounds) — quorum writes also catch up inline, but only touch
        replicas the current op happens to probe."""
        repaired = 0
        with self._lock:
            for replica in self._replicas:
                in_sync = (
                    replica.applied >= self._version and not replica.resync
                )
                if in_sync and not self._down_locked(replica):
                    continue
                if self._skip_locked(replica):
                    continue
                try:
                    if in_sync:
                        # DOWN but holding everything: a healed medium
                        # only needs a contact probe to be readmitted.
                        # Without this, an idle in-sync replica latches
                        # DOWN forever and can never serve as a re-sync
                        # source for its lagging peers.
                        replica.store.contains(META_KEY)
                    else:
                        self._catch_up_replica_locked(replica, self._version)
                except Exception:
                    self._detector.failure(replica.name)
                else:
                    self._detector.heartbeat(replica.name)
                    repaired += 1
            self._refresh_health_locked()
        return repaired

    # -- read path ------------------------------------------------------------

    def _read_candidates_locked(self) -> List[_Replica]:
        live = [
            r
            for r in self._replicas
            if not r.resync
            and not self._down_locked(r)
            and r.applied >= self._acked_version
        ]
        if not live:
            raise ReplicationError(
                f"acked state (v{self._acked_version}) unreachable: "
                f"no live in-sync replica"
            )
        # Newest first, primary breaking ties, then declaration order.
        primary = self._primary
        return sorted(
            live, key=lambda r: (-r.applied, r.index != primary, r.index)
        )

    def _read(self, op: Callable[[_Replica], Any]) -> Any:
        with self._lock:
            last: Optional[BaseException] = None
            for replica in self._read_candidates_locked():
                try:
                    return op(replica)
                except ReplicationError as exc:
                    # Medium failure (not a missing key): strike it and
                    # fall through to the next candidate.
                    self._detector.failure(replica.name)
                    last = exc
            raise ReplicationError(
                "every in-sync replica failed the read"
            ) from last

    def get(self, uid: str) -> Any:
        if uid == META_KEY:
            # Hidden consistently with contains()/keys(): the reserved
            # metadata key reads as absent, never as its internal value.
            raise StoreError(f"no state stored under {uid!r}")
        return self._read(lambda r: r.store.get(uid))

    def contains(self, uid: str) -> bool:
        if uid == META_KEY:
            return False
        return self._read(lambda r: r.store.contains(uid))

    def keys(self) -> Tuple[str, ...]:
        listing = self._read(lambda r: r.store.keys())
        return tuple(uid for uid in listing if uid != META_KEY)

    # -- promotion ------------------------------------------------------------

    def note_wiped(self, index: int) -> None:
        """The medium at ``index`` was wiped/replaced; distrust its
        contents and, if it was the primary, promote a survivor."""
        with self._lock:
            replica = self._replicas[index]
            replica.applied = 0
            replica.resync = True
            if index == self._primary:
                self.promote()
            self._refresh_health_locked()

    def promote(self) -> str:
        """Deterministically re-elect the newest surviving replica as
        primary and re-seed the others from it.  Raises
        :class:`ReplicationError` when the election would lose
        acknowledged writes — i.e. when no surviving quorum exists."""
        with self._lock:
            best = self._elect_locked()
            if best.resync or best.applied < self._acked_version:
                raise ReplicationError(
                    f"promotion would lose acked writes: best survivor "
                    f"{best.name!r} at v{best.applied}, acked v{self._acked_version}"
                )
            self._primary = best.index
            self._version = max(self._version, best.applied)
            self.promotions += 1
            for replica in self._replicas:
                if replica is best or self._skip_locked(replica):
                    continue
                if replica.applied >= best.applied and not replica.resync:
                    continue
                try:
                    self._catch_up_replica_locked(replica, best.applied)
                except Exception:
                    self._detector.failure(replica.name)
                else:
                    self._detector.heartbeat(replica.name)
            self._refresh_health_locked()
            return best.name

    # -- health ---------------------------------------------------------------

    def _refresh_health_locked(self) -> None:
        degraded = any(
            self._down_locked(r) or r.resync or r.applied < self._acked_version
            for r in self._replicas
        )
        if degraded and self._under_since is None:
            self._under_since = self._clock.now()
        elif not degraded:
            self._under_since = None

    @property
    def write_quorum(self) -> int:
        return self._write_quorum

    @property
    def primary_name(self) -> str:
        with self._lock:
            return self._replicas[self._primary].name

    @property
    def primary_index(self) -> int:
        with self._lock:
            return self._primary

    def quorum_ok(self) -> bool:
        with self._lock:
            live = sum(
                1
                for r in self._replicas
                if not self._down_locked(r)
                and not r.resync
                and r.applied >= self._acked_version
            )
            return live >= self._write_quorum

    def health(self) -> Dict[str, Any]:
        """The ``under_replicated`` surface operators (and the chaos
        auditor) gate on: per-replica lag, quorum status, and how long
        the store has been running degraded."""
        with self._lock:
            now = self._clock.now()
            self._refresh_health_locked()
            replicas = {
                r.name: {
                    "state": self._detector.state(r.name).value,
                    "applied": r.applied,
                    "lag": self._version - r.applied,
                    "resync_required": r.resync,
                    "primary": r.index == self._primary,
                }
                for r in self._replicas
            }
            return {
                "replicas": replicas,
                "version": self._version,
                "acked_version": self._acked_version,
                "write_quorum": self._write_quorum,
                "quorum_ok": self.quorum_ok(),
                "under_replicated": self._under_since is not None,
                "under_replicated_age": (
                    round(now - self._under_since, 6)
                    if self._under_since is not None
                    else None
                ),
                "counters": {
                    "catch_ups": self.catch_ups,
                    "full_resyncs": self.full_resyncs,
                    "quorum_failures": self.quorum_failures,
                    "promotions": self.promotions,
                },
            }


class _Follower:
    """Book-keeping for one follower log of a :class:`ReplicatedWAL`."""

    __slots__ = ("index", "name", "medium", "log", "resync")

    def __init__(
        self,
        index: int,
        name: str,
        medium: ObjectStore,
        log: Optional[WriteAheadLog],
        resync: bool = False,
    ) -> None:
        self.index = index
        self.name = name
        self.medium = medium
        self.log = log
        self.resync = resync


class ReplicatedWAL(GroupCommitWAL):
    """Group-commit WAL whose every force ships to follower logs.

    The primary medium hosts a normal :class:`GroupCommitWAL`; each
    force's batch is then shipped — one batch per force, primary LSNs
    preserved — to a :class:`WriteAheadLog` on every follower medium.
    ``append`` keeps the append-means-durable contract *at quorum
    strength*: it returns only when the batch is durable on at least
    ``write_quorum`` media, and raises :class:`ReplicationError`
    otherwise (the record is then durable on the primary but was never
    acknowledged as quorum-replicated).

    Construction elects the medium with the highest ``durable_upto`` as
    primary (ties break toward declaration order) and catches the rest
    up, which makes reopening after losing the primary's disk the same
    code path as :meth:`promote`.
    """

    def __init__(
        self,
        media: Sequence[ObjectStore],
        name: str = "wal",
        window: float = DEFAULT_GROUP_COMMIT_WINDOW,
        sleep: Optional[Callable[[float], None]] = None,
        write_quorum: Optional[int] = None,
        clock: Optional[Any] = None,
        retry: Optional[RetryPolicy] = None,
        detector_config: Optional[FailureDetectorConfig] = None,
        primary_index: Optional[int] = None,
    ) -> None:
        media = list(media)
        if not media:
            raise ReplicationError("ReplicatedWAL needs at least one medium")
        quorum = (len(media) // 2) + 1 if write_quorum is None else write_quorum
        if not 1 <= quorum <= len(media):
            raise ReplicationError(
                f"write_quorum {quorum} out of range for {len(media)} media"
            )
        self._media = media
        self._write_quorum = quorum
        self._clock = clock if clock is not None else WallClock()
        self._retry = retry if retry is not None else default_replica_retry()
        self._detector = FailureDetector(
            self._clock,
            detector_config
            if detector_config is not None
            else default_replica_detector_config(),
        )
        self.shipped_batches = 0
        self.shipped_records = 0
        self.catch_ups = 0
        self.full_resyncs = 0
        self.quorum_failures = 0
        self.promotions = 0
        self._under_since: Optional[float] = None

        probed: Dict[int, Optional[WriteAheadLog]] = {}
        if primary_index is None:
            best_index, best_upto = 0, -1
            for index, medium in enumerate(media):
                try:
                    log = WriteAheadLog(medium, name)
                except Exception:
                    log = None
                probed[index] = log
                if log is not None and log.durable_upto > best_upto:
                    best_index, best_upto = index, log.durable_upto
            primary_index = best_index
        if not 0 <= primary_index < len(media):
            raise ReplicationError(f"primary_index {primary_index} out of range")
        self._primary_index = primary_index
        super().__init__(
            media[primary_index],
            name,
            window,
            sleep if sleep is not None else time.sleep,
        )
        self._followers: List[_Follower] = []
        for index, medium in enumerate(media):
            if index == primary_index:
                continue
            follower = _Follower(
                index, _replica_name(index, medium), medium, probed.get(index)
            )
            self._followers.append(follower)
            self._detector.watch(follower.name)
            if follower.log is None and index in probed:
                follower.resync = True
                self._strike_follower_locked(follower)
        with self._lock:
            self._quorum_upto = self._durable_upto
            for follower in self._followers:
                if self._skip_follower_locked(follower):
                    continue
                try:
                    self._catch_up_follower_locked(follower)
                except Exception:
                    self._strike_follower_locked(follower)
            self._refresh_health_locked()

    # -- membership helpers ---------------------------------------------------

    def _skip_follower_locked(self, follower: _Follower) -> bool:
        if self._detector.state(follower.name) is not PeerState.DOWN:
            return False
        return not self._detector.should_probe(follower.name)

    def _strike_follower_locked(self, follower: _Follower) -> None:
        """A ship/catch-up against ``follower`` failed: mark it DOWN and
        drop the in-memory log handle.  A failure can leave the handle's
        volatile bookkeeping ahead of the medium (the store write is
        atomic, the Python-side batch roster is not), so the next
        contact reopens the log from the medium's durable state."""
        self._detector.failure(follower.name)
        follower.log = None

    def _ensure_log_locked(self, follower: _Follower) -> WriteAheadLog:
        if follower.log is None:
            follower.log = WriteAheadLog(follower.medium, self._name)
        return follower.log

    # -- shipping -------------------------------------------------------------

    def _force_locked(self) -> None:
        batch = [
            LogRecord(lsn=record.lsn, kind=record.kind, payload=record.payload)
            for record in self._volatile
        ]
        if not batch:
            return
        super()._force_locked()  # primary durable first
        acks = 1  # the primary
        for follower in self._followers:
            if self._skip_follower_locked(follower):
                continue
            try:
                self._retry.call(
                    lambda f=follower: self._ship_locked(f, batch),
                    retry_on=(Exception,),
                    sleep=self._clock.sleep,
                    now=self._clock.now,
                )
            except Exception:
                self._strike_follower_locked(follower)
            else:
                self._detector.heartbeat(follower.name)
                acks += 1
        self.shipped_batches += 1
        self.shipped_records += len(batch)
        self._refresh_health_locked()
        if acks >= self._write_quorum:
            self._quorum_upto = batch[-1].lsn
        else:
            self.quorum_failures += 1
            raise ReplicationError(
                f"force through lsn {batch[-1].lsn} durable on {acks}/"
                f"{len(self._media)} media; write_quorum={self._write_quorum}"
            )

    def _ship_locked(self, follower: _Follower, batch: List[LogRecord]) -> None:
        log = self._ensure_log_locked(follower)
        if not follower.resync and log.durable_upto >= batch[-1].lsn:
            return  # straggler retry after a partial failure: already landed
        if follower.resync or log.durable_upto != batch[0].lsn - 1:
            # The follower lags (or is untrusted): the catch-up protocol
            # ships *everything* it is missing, this batch included — a
            # bare apply of just this batch onto a lagging log would
            # either gap out or, on an empty log, silently skip the
            # records the primary still retains before the batch.
            self._catch_up_follower_locked(follower)
            return
        try:
            log.apply_shipped(batch)
        except ShippedGapError:
            self._catch_up_follower_locked(follower)

    def _catch_up_follower_locked(self, follower: _Follower) -> None:
        """Sequence-numbered catch-up: ship the missing LSN tail from
        the primary's retained records; fall back to a snapshot re-sync
        when the follower is untrusted, diverged, or truncation has
        dropped records it still needs."""
        log = self._ensure_log_locked(follower)
        if follower.resync or log.durable_upto > self._durable_upto:
            log = self._resync_follower_locked(follower)
        pending = self._records_locked(after=log.durable_upto)
        if pending:
            try:
                log.apply_shipped(pending)
            except ShippedGapError:
                # Truncation outran this follower; its log can no longer
                # be extended contiguously — re-seed it wholesale.
                log = self._resync_follower_locked(follower)
                remaining = self._records_locked(after=log.durable_upto)
                if remaining:
                    log.apply_shipped(remaining)
        # Target is the retained tail, not _durable_upto: a fully
        # truncated log keeps its watermark but holds no records a
        # follower could (or need) catch up to.
        target = self._lasts[-1] if self._lasts else 0
        if log.durable_upto < target:
            raise ReplicationError(
                f"follower {follower.name!r} caught up to lsn "
                f"{log.durable_upto}, primary retains through {target}"
            )
        self.catch_ups += 1

    def _resync_follower_locked(self, follower: _Follower) -> WriteAheadLog:
        """Copy the primary's on-store log image onto the follower."""
        prefix = f"{self._name}:"
        snapshot = {
            uid: self._store.get(uid)
            for uid in self._store.keys()
            if uid.startswith(prefix)
        }
        try:
            for uid in follower.medium.keys():
                if uid.startswith(prefix) and uid not in snapshot:
                    follower.medium.remove(uid)
            if snapshot:
                follower.medium.put_many(snapshot)
        except Exception:
            follower.log = None
            raise
        follower.log = WriteAheadLog(follower.medium, self._name)
        follower.resync = False
        self.full_resyncs += 1
        return follower.log

    # -- quorum-strength append ----------------------------------------------

    def append(self, kind: str, **payload: Any) -> LogRecord:
        record = super().append(kind, **payload)
        with self._lock:
            if self._quorum_upto < record.lsn:
                raise ReplicationError(
                    f"record {record.lsn} durable on the primary but not "
                    f"on a write quorum"
                )
        return record

    def _truncate_locked(self, up_to_lsn: int) -> int:
        dropped = super()._truncate_locked(up_to_lsn)
        for follower in self._followers:
            if follower.log is None or self._skip_follower_locked(follower):
                continue
            try:
                follower.log.truncate(up_to_lsn)
            except Exception:
                self._strike_follower_locked(follower)
        return dropped

    # -- catch-up / promotion maintenance -------------------------------------

    def catch_up(self) -> int:
        """Re-sync every reachable lagging follower; returns how many
        were brought back to the primary's ``durable_upto``."""
        repaired = 0
        with self._lock:
            for follower in self._followers:
                if self._skip_follower_locked(follower):
                    continue
                log = follower.log
                if (
                    log is not None
                    and not follower.resync
                    and log.durable_upto == self._durable_upto
                ):
                    continue
                try:
                    self._catch_up_follower_locked(follower)
                except Exception:
                    self._strike_follower_locked(follower)
                else:
                    self._detector.heartbeat(follower.name)
                    repaired += 1
            self._refresh_health_locked()
        return repaired

    def note_wiped(self, index: int) -> None:
        """The medium at ``index`` was wiped; re-seed it (follower) or
        promote the newest surviving follower (primary)."""
        with self._lock:
            if index == self._primary_index:
                self.promote()
                return
            for follower in self._followers:
                if follower.index == index:
                    follower.log = None
                    follower.resync = True
            self._refresh_health_locked()

    def failover_if_primary_down(self) -> Optional[str]:
        """Maintenance probe for the serve loop: when the primary medium
        stops answering, promote the newest surviving follower so the
        WAL degrades instead of wedging — with a dead primary every
        force raises, the volatile tail can never drain, and nothing
        else in the runtime would ever re-root the log.  Returns the
        promoted medium's name, or ``None`` when the primary answers."""
        with self._lock:
            try:
                self._store.contains(self._head_key())
            except Exception:
                return self.promote()
            return None

    def promote(self) -> str:
        """Re-root the log on the newest surviving follower medium.

        The old primary medium is demoted to a follower needing a full
        re-sync (its contents are no longer trusted).  Deterministic:
        highest ``durable_upto`` wins, declaration order breaks ties.

        An unforced tail is drained through a normal quorum force first
        (planned promotion over a healthy primary loses nothing); when
        that force cannot complete — the unplanned-primary-loss case —
        the tail is dropped exactly as the primary's crash dropped it:
        none of those records were ever acknowledged (``append`` returns
        only after quorum), and parked group-commit appenders are woken
        so they observe the loss instead of waiting forever."""
        with self._lock:
            if self._volatile:
                try:
                    self._force_locked()
                except Exception:
                    self._volatile.clear()
                    self._flushed.notify_all()
            best: Optional[_Follower] = None
            best_upto = -1
            for follower in self._followers:
                if self._detector.state(follower.name) is PeerState.DOWN:
                    continue
                if follower.resync:
                    continue
                try:
                    log = self._ensure_log_locked(follower)
                except Exception:
                    self._strike_follower_locked(follower)
                    continue
                if log.durable_upto > best_upto:
                    best, best_upto = follower, log.durable_upto
            if best is None:
                raise ReplicationError("no live follower to promote")
            if best_upto < self._quorum_upto:
                raise ReplicationError(
                    f"promotion would lose acked records: best survivor "
                    f"at lsn {best_upto}, quorum acked through {self._quorum_upto}"
                )
            old_index = self._primary_index
            old_medium = self._store
            old_name = _replica_name(old_index, old_medium)
            # Re-root the inherited WAL state on the promoted medium.
            self._store = best.medium
            self._open()
            self._primary_index = best.index
            self._quorum_upto = self._durable_upto
            self._followers = [f for f in self._followers if f is not best]
            demoted = _Follower(old_index, old_name, old_medium, None, resync=True)
            self._followers.append(demoted)
            self._followers.sort(key=lambda f: f.index)
            self._detector.watch(demoted.name)
            self.promotions += 1
            for follower in self._followers:
                if self._skip_follower_locked(follower):
                    continue
                try:
                    self._catch_up_follower_locked(follower)
                except Exception:
                    self._strike_follower_locked(follower)
            self._refresh_health_locked()
            return best.name

    def reopen(self) -> "ReplicatedWAL":
        with self._lock:
            if self._volatile:
                raise InvalidStateError("reopen with unforced records; crash() first")
        return ReplicatedWAL(
            self._media,
            self._name,
            window=self.window,
            sleep=self._sleep,
            write_quorum=self._write_quorum,
            clock=self._clock,
            retry=self._retry,
            detector_config=self._detector.config,
        )

    # -- health ---------------------------------------------------------------

    def _refresh_health_locked(self) -> None:
        degraded = any(
            self._detector.state(f.name) is PeerState.DOWN
            or f.resync
            or f.log is None
            or f.log.durable_upto < self._durable_upto
            for f in self._followers
        )
        if degraded and self._under_since is None:
            self._under_since = self._clock.now()
        elif not degraded:
            self._under_since = None

    @property
    def write_quorum(self) -> int:
        return self._write_quorum

    @property
    def primary_index(self) -> int:
        return self._primary_index

    def quorum_ok(self) -> bool:
        with self._lock:
            live = 1 + sum(
                1
                for f in self._followers
                if self._detector.state(f.name) is not PeerState.DOWN
                and not f.resync
                and f.log is not None
                and f.log.durable_upto >= self._quorum_upto
            )
            return live >= self._write_quorum

    def health(self) -> Dict[str, Any]:
        with self._lock:
            now = self._clock.now()
            self._refresh_health_locked()
            followers = {
                f.name: {
                    "state": self._detector.state(f.name).value,
                    "durable_upto": f.log.durable_upto if f.log is not None else 0,
                    "lag": self._durable_upto
                    - (f.log.durable_upto if f.log is not None else 0),
                    "resync_required": f.resync,
                }
                for f in self._followers
            }
            return {
                "primary_index": self._primary_index,
                "durable_upto": self._durable_upto,
                "quorum_upto": self._quorum_upto,
                "write_quorum": self._write_quorum,
                "followers": followers,
                "quorum_ok": self.quorum_ok(),
                "under_replicated": self._under_since is not None,
                "under_replicated_age": (
                    round(now - self._under_since, 6)
                    if self._under_since is not None
                    else None
                ),
                "counters": {
                    "shipped_batches": self.shipped_batches,
                    "shipped_records": self.shipped_records,
                    "catch_ups": self.catch_ups,
                    "full_resyncs": self.full_resyncs,
                    "quorum_failures": self.quorum_failures,
                    "promotions": self.promotions,
                },
            }
