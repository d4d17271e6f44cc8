"""Unit tests for the replicated persistence layer.

Quorum acks, degraded mode, catch-up, wipe recovery and deterministic
promotion for both :class:`ReplicatedStore` and :class:`ReplicatedWAL`.
Media failures are injected through :class:`ReplicaMedium` — the same
hook the chaos engine's ``replica_loss``/``disk_wipe`` faults drive.
"""

import pytest

from repro.persistence import (
    MemoryStore,
    ReplicatedStore,
    ReplicatedWAL,
    ReplicaMedium,
    ReplicationError,
    SegmentedFileStore,
    StoreError,
    WriteAheadLog,
)
from repro.persistence.replicated import META_KEY
from repro.util.clock import SimulatedClock


def make_media(n, prefix="disk"):
    return [ReplicaMedium(f"{prefix}-{i}", MemoryStore()) for i in range(n)]


def make_store(media, **kwargs):
    kwargs.setdefault("clock", SimulatedClock())
    return ReplicatedStore(media, **kwargs)


class TestReplicaMedium:
    def test_delegates_and_fails(self):
        medium = ReplicaMedium("d0", MemoryStore())
        medium.put("k", 1)
        assert medium.get("k") == 1
        medium.fail()
        with pytest.raises(ReplicationError):
            medium.get("k")
        with pytest.raises(ReplicationError):
            medium.put("k", 2)
        medium.heal()
        assert medium.get("k") == 1

    def test_wipe_replaces_contents(self):
        medium = ReplicaMedium("d0", MemoryStore())
        medium.put("k", 1)
        medium.wipe()
        assert not medium.contains("k")
        assert medium.wipes == 1

    def test_wipe_and_close_release_the_backing_file_handle(self, tmp_path):
        disks = [
            SegmentedFileStore(str(tmp_path / name)) for name in ("old", "new")
        ]
        medium = ReplicaMedium("d0", disks[0], fresh=lambda: disks[1])
        medium.put("k", 1)
        assert disks[0]._handle is not None
        medium.wipe()
        assert disks[0]._handle is None
        medium.put("k", 2)
        assert disks[1]._handle is not None
        medium.close()
        assert disks[1]._handle is None


class TestReplicatedStoreBasics:
    def test_roundtrip_and_full_replication(self):
        media = make_media(3)
        store = make_store(media)
        store.put("a", {"v": 1})
        store.put_many({"b": 2, "c": 3})
        assert store.get("a") == {"v": 1}
        assert set(store.keys()) == {"a", "b", "c"}
        assert len(store) == 3
        store.remove("b")
        assert not store.contains("b")
        # every replica holds the same user data
        for medium in media:
            assert set(medium.backing.keys()) == {"a", "c", META_KEY}

    def test_meta_key_is_hidden_and_reserved(self):
        store = make_store(make_media(3))
        store.put("a", 1)
        assert META_KEY not in store.keys()
        assert not store.contains(META_KEY)
        with pytest.raises(StoreError):
            store.put(META_KEY, {"version": 99})
        with pytest.raises(StoreError):
            store.get(META_KEY)  # hidden from get() like contains()/keys()
        assert store.get_or(META_KEY) is None
        with pytest.raises(StoreError):
            store.remove(META_KEY)

    def test_wraps_pre_existing_unversioned_store(self):
        # The legitimate migration path: a single-copy store that predates
        # replication is adopted as the seed and followers re-seed from
        # it -- an empty follower must never count as "in sync" with it.
        legacy = MemoryStore()
        legacy.put("a", 1)
        legacy.put("b", 2)
        media = [
            ReplicaMedium("disk-0", legacy),
            ReplicaMedium("disk-1", MemoryStore()),
            ReplicaMedium("disk-2", MemoryStore()),
        ]
        store = make_store(media)
        assert set(store.keys()) == {"a", "b"}
        for medium in media[1:]:
            assert medium.backing.get("a") == 1
        store.put("c", 3)
        media[0].wipe()
        store.note_wiped(0)  # losing the legacy disk loses nothing
        assert store.get("a") == 1
        assert store.get("c") == 3

    def test_unversioned_content_defers_to_versioned_replicas(self):
        media = make_media(2)
        store = make_store(media)
        store.put("a", 1)
        junk = MemoryStore()
        junk.put("zzz", 99)  # a swapped-in disk holding unrelated data
        rebooted = make_store(
            [media[0], media[1], ReplicaMedium("disk-2", junk)]
        )
        assert rebooted.get("a") == 1
        assert not rebooted.contains("zzz")
        assert set(junk.keys()) == {"a", META_KEY}  # re-seeded, junk gone

    def test_missing_key_still_raises_store_error(self):
        store = make_store(make_media(3))
        with pytest.raises(StoreError):
            store.get("ghost")
        with pytest.raises(StoreError):
            store.remove("ghost")

    def test_default_quorum_is_majority(self):
        assert make_store(make_media(3)).write_quorum == 2
        assert make_store(make_media(5)).write_quorum == 3

    def test_rejects_bad_quorum(self):
        with pytest.raises(ReplicationError):
            make_store(make_media(3), write_quorum=4)
        with pytest.raises(ReplicationError):
            make_store(make_media(3), write_quorum=0)
        with pytest.raises(ReplicationError):
            ReplicatedStore([])


class TestReplicatedStoreDegraded:
    def test_survives_minority_failure(self):
        media = make_media(3)
        clock = SimulatedClock()
        store = make_store(media, clock=clock)
        store.put("a", 1)
        media[2].fail()
        store.put("b", 2)  # 2/3 acks: still a quorum
        assert store.get("b") == 2
        health = store.health()
        assert health["quorum_ok"] is True
        assert health["under_replicated"] is True
        assert health["replicas"]["disk-2"]["state"] == "down"
        assert health["replicas"]["disk-2"]["lag"] >= 1
        clock.advance(1.0)
        assert store.health()["under_replicated_age"] >= 1.0

    def test_quorum_loss_refuses_ack(self):
        media = make_media(3)
        store = make_store(media)
        store.put("a", 1)
        media[1].fail()
        media[2].fail()
        with pytest.raises(ReplicationError):
            store.put("b", 2)
        assert store.quorum_failures == 1
        assert store.quorum_ok() is False
        # acked state is still readable from the primary
        assert store.get("a") == 1

    def test_reads_failover_to_followers(self):
        media = make_media(3)
        store = make_store(media)
        store.put("a", 1)
        media[0].fail()  # the read primary
        assert store.get("a") == 1  # served by a follower
        assert store.health()["quorum_ok"] is True

    def test_readmitted_follower_catches_up_via_journal(self):
        media = make_media(3)
        clock = SimulatedClock()
        store = make_store(media, clock=clock)
        store.put("a", 1)
        media[2].fail()
        store.put("b", 2)
        store.remove("a")
        media[2].heal()
        clock.advance(2.0)  # probe becomes due
        assert store.catch_up() == 1
        assert set(media[2].backing.keys()) == {"b", META_KEY}
        health = store.health()
        assert health["under_replicated"] is False
        assert health["replicas"]["disk-2"]["lag"] == 0

    def test_failed_quorum_write_rolls_back(self):
        media = make_media(3)
        clock = SimulatedClock()
        store = make_store(media, clock=clock)
        store.put("a", 1)
        media[1].fail()
        media[2].fail()
        with pytest.raises(ReplicationError):
            store.put_many({"a": 99, "b": 2})
        # The unacked write is rolled back: not observable through reads,
        # not retained on the minority, not in the version sequence.
        assert store.get("a") == 1
        assert not store.contains("b")
        assert media[0].backing.get("a") == 1
        assert not media[0].backing.contains("b")
        health = store.health()
        assert health["version"] == health["acked_version"] == 1
        # Once quorum returns the sequence continues cleanly and the
        # rolled-back write never resurfaces via catch-up replay.
        media[1].heal()
        media[2].heal()
        clock.advance(2.0)
        store.catch_up()
        store.put("c", 3)
        assert store.get("a") == 1
        assert store.get("c") == 3
        for medium in media:
            assert not medium.backing.contains("b")

    def test_failed_quorum_remove_rolls_back(self):
        media = make_media(3)
        store = make_store(media)
        store.put("a", 1)
        media[1].fail()
        media[2].fail()
        with pytest.raises(ReplicationError):
            store.remove("a")
        assert store.get("a") == 1
        assert media[0].backing.get("a") == 1

    def test_catch_up_refuses_to_replay_over_journal_gap(self):
        media = make_media(3)
        clock = SimulatedClock()
        store = make_store(media, clock=clock, write_quorum=1, journal_limit=2)
        store.put("k1", 1)
        media[1].fail()
        media[2].fail()
        for i in range(2, 7):
            store.put(f"k{i}", i)  # v2..v6; the journal retains only v5, v6
        # disk-2 rejoins holding just v1; disk-0 -- the sole copy of
        # v2..v4 -- dies.  (White-box detector nudges stand in for the
        # probe traffic that would produce the same states over time.)
        media[2].heal()
        store._detector.heartbeat("disk-2")
        media[0].fail()
        store._detector.failure("disk-0")
        media[1].wipe()
        store.note_wiped(1)
        clock.advance(2.0)
        store.catch_up()
        # Seeding disk-1 from disk-2 (v1) and replaying the journal tail
        # would silently skip v2..v4; the store must refuse and keep the
        # replica untrusted instead of reporting it in sync.
        assert store.health()["replicas"]["disk-1"]["resync_required"] is True
        with pytest.raises(ReplicationError):
            store.get("k2")  # acked state genuinely unreachable right now
        # The newest copy returns: everything heals, nothing was skipped.
        media[0].heal()
        clock.advance(2.0)
        store.catch_up()
        assert store.get("k2") == 2
        assert store.health()["replicas"]["disk-1"]["lag"] == 0

    def test_journal_overflow_falls_back_to_full_resync(self):
        media = make_media(3)
        clock = SimulatedClock()
        store = make_store(media, clock=clock, journal_limit=2)
        media[2].fail()
        for i in range(6):
            store.put(f"k{i}", i)
        media[2].heal()
        clock.advance(2.0)
        store.catch_up()
        assert store.full_resyncs >= 1
        assert set(media[2].backing.keys()) == {f"k{i}" for i in range(6)} | {META_KEY}


class TestReplicatedStorePromotion:
    def test_follower_wipe_recovers(self):
        media = make_media(3)
        clock = SimulatedClock()
        store = make_store(media, clock=clock)
        store.put("a", 1)
        media[2].wipe()
        store.note_wiped(2)
        clock.advance(2.0)
        store.catch_up()
        assert media[2].backing.get("a") == 1

    def test_primary_wipe_promotes_and_reseeds(self):
        media = make_media(3)
        store = make_store(media)
        store.put_many({"a": 1, "b": 2})
        assert store.primary_name == "disk-0"
        media[0].wipe()
        store.note_wiped(0)
        assert store.promotions == 1
        assert store.primary_name != "disk-0"
        # acked state survived and the wiped disk was re-seeded from it
        assert store.get("a") == 1
        assert media[0].backing.get("b") == 2
        store.put("c", 3)
        assert store.get("c") == 3

    def test_promotion_refuses_to_lose_acked_writes(self):
        media = make_media(2)
        store = make_store(media, write_quorum=2)
        store.put("a", 1)
        media[1].wipe()
        store.note_wiped(1)  # follower wipe: re-seeded from primary
        media[0].wipe()
        with pytest.raises(ReplicationError):
            store.note_wiped(0)  # nothing trustworthy left to promote

    def test_reboot_elects_newest_replica(self):
        media = make_media(3)
        store = make_store(media)
        store.put("a", 1)
        store.put("b", 2)
        media[0].wipe()  # primary disk dies between process lifetimes
        reopened = make_store(media)
        assert reopened.primary_name != "disk-0"
        assert reopened.get("a") == 1
        assert reopened.get("b") == 2
        # the wiped disk was re-seeded during construction
        assert media[0].backing.get("a") == 1


def make_wal(media, **kwargs):
    kwargs.setdefault("clock", SimulatedClock())
    kwargs.setdefault("window", 0.0)
    kwargs.setdefault("sleep", lambda _s: None)
    return ReplicatedWAL(media, **kwargs)


def lsns(log):
    return [record.lsn for record in log.records()]


class TestReplicatedWALShipping:
    def test_append_ships_to_all_followers(self):
        media = make_media(3)
        wal = make_wal(media)
        r1 = wal.append("op", x=1)
        r2 = wal.append("op", x=2)
        assert (r1.lsn, r2.lsn) == (1, 2)
        for medium in media[1:]:
            follower = WriteAheadLog(medium.backing)
            assert lsns(follower) == [1, 2]
            assert [r.payload["x"] for r in follower.records()] == [1, 2]
        assert wal.shipped_batches == 2

    def test_batched_force_ships_one_batch(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append_volatile("op", x=1)
        wal.append_volatile("op", x=2)
        wal.force()
        assert wal.shipped_batches == 1
        assert wal.shipped_records == 2
        follower = WriteAheadLog(media[1].backing)
        assert lsns(follower) == [1, 2]

    def test_minority_failure_still_acks(self):
        media = make_media(3)
        wal = make_wal(media)
        media[2].fail()
        record = wal.append("op", x=1)
        assert record.lsn == 1
        health = wal.health()
        assert health["quorum_ok"] is True
        assert health["under_replicated"] is True
        assert health["followers"]["disk-2"]["state"] == "down"

    def test_quorum_loss_raises_on_append(self):
        media = make_media(3)
        wal = make_wal(media)
        media[1].fail()
        media[2].fail()
        with pytest.raises(ReplicationError):
            wal.append("op", x=1)
        assert wal.quorum_failures == 1

    def test_readmitted_follower_catches_up(self):
        media = make_media(3)
        clock = SimulatedClock()
        wal = make_wal(media, clock=clock)
        wal.append("op", x=1)
        media[2].fail()
        wal.append("op", x=2)
        wal.append("op", x=3)
        media[2].heal()
        clock.advance(2.0)
        assert wal.catch_up() == 1
        follower = WriteAheadLog(media[2].backing)
        assert lsns(follower) == [1, 2, 3]
        assert wal.health()["under_replicated"] is False

    def test_truncation_outruns_follower_forces_resync(self):
        media = make_media(3)
        clock = SimulatedClock()
        wal = make_wal(media, clock=clock)
        wal.append("op", x=1)
        media[2].fail()
        wal.append("op", x=2)
        wal.append("op", x=3)
        wal.truncate(2)
        media[2].heal()
        clock.advance(2.0)
        wal.catch_up()
        assert wal.full_resyncs >= 1
        follower = WriteAheadLog(media[2].backing)
        assert lsns(follower) == lsns(wal) == [3]

    def test_truncate_propagates_to_followers(self):
        media = make_media(3)
        wal = make_wal(media)
        for i in range(4):
            wal.append("op", x=i)
        wal.truncate(2)
        follower = WriteAheadLog(media[1].backing)
        assert lsns(follower) == [3, 4]


class TestReplicatedWALPromotion:
    def test_promote_moves_primary_and_reseeds_old(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append("op", x=1)
        wal.append("op", x=2)
        media[0].wipe()
        wal.note_wiped(0)
        assert wal.promotions == 1
        assert wal.primary_index != 0
        assert lsns(wal) == [1, 2]
        record = wal.append("op", x=3)  # LSN sequence continues
        assert record.lsn == 3
        # the wiped disk rejoined as a follower and holds the history
        demoted = WriteAheadLog(media[0].backing)
        assert lsns(demoted) == [1, 2, 3]

    def test_promote_refuses_without_survivor(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append("op", x=1)
        media[1].fail()
        media[2].fail()
        with pytest.raises(ReplicationError):
            wal.promote()

    def test_unplanned_primary_loss_promotes_and_drops_unacked_tail(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append("op", x=1)
        media[0].fail()  # no runbook ran: the primary just died
        with pytest.raises(ReplicationError):
            wal.append("op", x=2)  # force cannot reach the primary
        # promote() no longer wedges on the stranded volatile tail: the
        # record was never acked anywhere, so it is dropped exactly as
        # the primary's crash dropped it, and the WAL serves again.
        assert wal.promote() == "disk-1"
        assert wal.primary_index == 1
        assert lsns(wal) == [1]
        record = wal.append("op", x=2)
        assert record.lsn == 2
        follower = WriteAheadLog(media[2].backing)
        assert lsns(follower) == [1, 2]

    def test_promote_drains_volatile_tail_through_healthy_primary(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append("op", x=1)
        wal.append_volatile("op", x=2)
        name = wal.promote()  # planned promotion: the tail is forced first
        assert name == "disk-1"
        assert lsns(wal) == [1, 2]
        assert [r.payload["x"] for r in wal.records()] == [1, 2]

    def test_failover_probe_promotes_on_dead_primary(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append("op", x=1)
        assert wal.failover_if_primary_down() is None  # healthy: no-op
        media[0].fail()
        assert wal.failover_if_primary_down() == "disk-1"
        assert wal.primary_index == 1
        assert wal.failover_if_primary_down() is None
        record = wal.append("op", x=2)  # degraded but serving
        assert record.lsn == 2

    def test_reopen_after_primary_wipe_recovers_from_followers(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append("op", x=1)
        wal.append("op", x=2)
        media[0].wipe()  # primary disk lost between process lifetimes
        reopened = wal.reopen()
        assert reopened.primary_index != 0
        assert lsns(reopened) == [1, 2]
        assert [r.payload["x"] for r in reopened.records()] == [1, 2]

    def test_reopen_elects_newest_follower(self):
        media = make_media(3)
        wal = make_wal(media)
        wal.append("op", x=1)
        media[2].fail()
        wal.append("op", x=2)  # disk-2 misses lsn 2
        media[2].heal()
        media[0].wipe()  # and the primary dies
        reopened = make_wal(media)
        # disk-1 (lsn 2) must win the election over disk-2 (lsn 1)
        assert reopened.primary_index == 1
        assert lsns(reopened) == [1, 2]
