"""Per-group wire frames: one changed property group costs one group.

Each by-value group of an :class:`ActivityContext` is its own interned
:class:`GroupSnapshot` frame, and a context rebuilt after a version bump
reuses the previous snapshot object of every group whose version token
did not move.  Under test, with exact counts: the sender re-encodes only
the changed group, the receiver's decode cache hits the unchanged group
frames, reuse never serves a stale snapshot (scoped child views, remote
proxies), both caches stay at the live snapshots under churn and keep
as many contexts as their bound when several activities share one ORB,
and the wire bytes do not depend on any cache setting.
"""

import struct

import pytest

from repro.config import OrbConfig
from repro.core import (
    ActivityManager,
    NestedVisibility,
    Propagation,
    PropertyGroup,
    PropertyGroupManager,
    received_context,
    snapshot_context,
)
from repro.core.context import GroupSnapshot, build_context
from repro.core.property_group import RemotePropertyGroup
from repro.orb import EncodeCache, Marshaller, MarshalStats, Orb
from repro.orb.core import Servant
from repro.orb.marshal import DECODE_CACHE_ENTRIES, DecodeCache, MarshalError

from tests.bridged import BridgedPair

GROUPS = 8
KEYS = 6


def group_manager(visibility=NestedVisibility.SHARED):
    groups = PropertyGroupManager()
    for g in range(GROUPS):
        groups.register_factory(
            f"pg{g}",
            lambda g=g: PropertyGroup(
                f"pg{g}",
                visibility=visibility,
                propagation=Propagation.VALUE,
                initial={f"k{i}": f"{g}:{i}:" + "x" * 24 for i in range(KEYS)},
            ),
        )
    return groups


class Echo(Servant):
    def __init__(self, orb):
        self.orb = orb

    def read(self, group, key):
        return received_context(self.orb).property_values[group][key]


def deployment(cache_entries=256):
    """A client activity calling an echo servant across an encoding hop."""
    pair = BridgedPair(OrbConfig(marshal_cache_entries=cache_entries))
    manager = ActivityManager(clock=pair.client.clock, property_groups=group_manager())
    manager.install(pair.client)
    ActivityManager(clock=pair.server.clock).install(pair.server)
    ref = pair.activate("server", Echo(pair.server))
    activity = manager.current.begin("job")
    return pair, ref, activity


class TestGroupSnapshot:
    def test_reads_like_the_dict_it_wraps_and_refuses_writes(self):
        snapshot = GroupSnapshot({"k": "v"})
        assert snapshot == {"k": "v"} and {"k": "v"} == snapshot
        assert dict(snapshot) == {"k": "v"} and list(snapshot) == ["k"]
        assert snapshot.get("missing", 1) == 1 and "k" in snapshot
        with pytest.raises(TypeError):
            snapshot["k"] = "changed"

    def test_is_its_own_frame_around_the_dict(self):
        frame = Marshaller().encode(GroupSnapshot({"k": "v"}))
        assert frame.endswith(Marshaller().encode({"k": "v"}))
        assert Marshaller().decode(frame) == {"k": "v"}

    def test_a_frame_whose_parts_are_not_a_map_is_a_marshal_error(self):
        marshaller = Marshaller()
        dict_parts = marshaller.encode({"k": "v"})
        frame = marshaller.encode(GroupSnapshot({"k": "v"}))
        header = frame[: -len(dict_parts)]
        list_parts = marshaller.encode(["abc"])  # dict(["abc"]): ValueError
        forged = (
            bytes([frame[0]])
            + struct.pack("<I", len(header) - 5 + len(list_parts))
            + header[5:]
            + list_parts
        )
        with pytest.raises(MarshalError, match="malformed .*GroupSnapshot parts"):
            marshaller.decode(forged)

    def test_a_context_that_fails_to_decode_caches_none_of_its_groups(self):
        activity = ActivityManager(property_groups=group_manager()).begin("job")
        stats = MarshalStats()
        marshaller = Marshaller(stats=stats, decode_cache=DecodeCache())
        good = Marshaller().encode(build_context(activity))
        bad = good.replace(b"activity_id", b"activity_iX")  # unknown field
        with pytest.raises(MarshalError, match="malformed .*ActivityContext parts"):
            marshaller.decode(bad)
        assert len(marshaller.decode_cache) == 0
        # The failure left this thread's decoder clean: the good context
        # and its groups are cached, and its repeat is one hit.
        stats.reset()
        assert marshaller.decode(good) is marshaller.decode(good)
        assert len(marshaller.decode_cache) == GROUPS + 1
        assert (stats.decode_misses, stats.decode_hits) == (GROUPS + 1, 1)


class TestSenderReencodesOnlyTheChangedGroup:
    def test_churning_one_group_encodes_that_group_and_splices_the_rest(self):
        activity = ActivityManager(property_groups=group_manager()).begin("job")
        stats = MarshalStats()
        marshaller = Marshaller(stats=stats, encode_cache=EncodeCache(256))
        first = build_context(activity)
        marshaller.encode(first)
        stats.reset()

        activity.get_property_group("pg3").set_property("k0", "changed")
        context, hit, stale = snapshot_context(activity)
        wire = marshaller.encode(context)

        assert (hit, stale) == (False, first)
        fresh = context.property_values
        for name, snapshot in first.property_values.items():
            assert (fresh[name] is snapshot) == (name != "pg3")
        frames = {
            name: len(Marshaller().encode(snapshot))
            for name, snapshot in fresh.items()
        }
        kept = sum(size for name, size in frames.items() if name != "pg3")
        envelope = len(wire) - sum(frames.values())
        assert (stats.cache_hits, stats.cache_misses) == (GROUPS - 1, 2)
        assert stats.bytes_saved == kept
        assert stats.bytes_encoded == frames["pg3"] + envelope

    def test_cache_off_reuses_nothing(self):
        activity = ActivityManager(property_groups=group_manager()).begin("job")
        first = snapshot_context(activity, cache=False)[0]
        second = snapshot_context(activity, cache=False)[0]
        for name, snapshot in first.property_values.items():
            assert second.property_values[name] is not snapshot
            assert second.property_values[name] == snapshot


class TestThroughTheOrb:
    def test_receiver_hits_every_unchanged_group_frame(self):
        pair, ref, activity = deployment()
        churned = activity.get_property_group("pg0")
        stats = pair.stats
        assert ref.invoke("read", "pg0", "k0") == "0:0:" + "x" * 24
        for call in range(50):
            churned.set_property("k0", f"v{call}")
            before = stats.snapshot()
            assert ref.invoke("read", "pg0", "k0") == f"v{call}"
            after = stats.snapshot()
            # Context + changed group miss; the other groups' frames hit
            # on both sides, call after call (never evicted).
            assert after["decode_hits"] - before["decode_hits"] == GROUPS - 1
            assert after["decode_misses"] - before["decode_misses"] == 2
            assert after["cache_hits"] - before["cache_hits"] == GROUPS - 1
            assert after["cache_misses"] - before["cache_misses"] == 2
        assert pair.server.marshaller.decode_cache.max_entries == DECODE_CACHE_ENTRIES == 16

    def test_caches_hold_only_the_live_snapshots_under_churn(self):
        pair, ref, activity = deployment()
        churned = activity.get_property_group("pg5")
        for call in range(1000):
            churned.set_property("k1", call)
            ref.invoke("read", "pg5", "k1")
        # The live context plus its group snapshots; every replaced one
        # was invalidated, not left for the LRU bound to push out.
        assert len(pair.client.marshaller.encode_cache) == GROUPS + 1
        # The receiver keeps its last 16 contexts and the group frames
        # they hold: the unchanged groups once, one churned frame each.
        held = DECODE_CACHE_ENTRIES + (GROUPS - 1) + DECODE_CACHE_ENTRIES
        assert len(pair.server.marshaller.decode_cache) == held

    def test_wire_bytes_do_not_depend_on_the_caches(self):
        def run(cache_entries):
            pair, ref, activity = deployment(cache_entries)
            wire = []
            deliver = pair.client.transport.deliver

            def recording(source, target, request_bytes, dispatch):
                wire.append(request_bytes)
                return deliver(source, target, request_bytes, dispatch)

            pair.client.transport.deliver = recording
            for call in range(6):
                if call % 2:
                    activity.get_property_group("pg2").set_property("k2", call)
                ref.invoke("read", "pg2", "k2")
            return wire

        wire = run(0)
        assert all(isinstance(request, bytes) for request in wire)
        assert wire == run(256)


class TestCachesAreBoundedInContexts:
    """Group frames ride with their context: N activities through one ORB
    keep as many contexts cached as when a context was a single frame."""

    def round_robin(self, count):
        pair = BridgedPair(OrbConfig(marshal_cache_entries=DECODE_CACHE_ENTRIES))
        manager = ActivityManager(clock=pair.client.clock, property_groups=group_manager())
        manager.install(pair.client)
        ActivityManager(clock=pair.server.clock).install(pair.server)
        ref = pair.activate("server", Echo(pair.server))
        activities = []
        for _ in range(count):
            activities.append(manager.current.begin("job"))
            manager.current.suspend()

        def call(activity):
            manager.current.resume(activity)
            try:
                return ref.invoke("read", "pg0", "k0")
            finally:
                manager.current.suspend()

        return pair.stats, activities, call

    @pytest.mark.parametrize("count", [3, 8, DECODE_CACHE_ENTRIES])
    def test_stable_activities_hit_their_context_on_both_sides(self, count):
        stats, activities, call = self.round_robin(count)
        for activity in activities:
            call(activity)
        before = stats.snapshot()
        for _ in range(3):
            for activity in activities:
                call(activity)
        after = stats.snapshot()
        # One context-frame hit per request on each side; nothing misses.
        assert after["cache_hits"] - before["cache_hits"] == 3 * count
        assert after["decode_hits"] - before["decode_hits"] == 3 * count
        assert after["cache_misses"] == before["cache_misses"]
        assert after["decode_misses"] == before["decode_misses"]

    @pytest.mark.parametrize("count", [3, DECODE_CACHE_ENTRIES])
    def test_churning_activities_keep_their_unchanged_group_frames(self, count):
        stats, activities, call = self.round_robin(count)
        for activity in activities:
            call(activity)
        for round_ in range(3):
            for index, activity in enumerate(activities):
                # Distinct per activity: equal frames would share a decode.
                value = f"{index}:{round_}"
                activity.get_property_group("pg0").set_property("k0", value)
                before = stats.snapshot()
                assert call(activity) == value
                after = stats.snapshot()
                for side in ("cache", "decode"):
                    assert after[f"{side}_hits"] - before[f"{side}_hits"] == GROUPS - 1
                    assert after[f"{side}_misses"] - before[f"{side}_misses"] == 2


class TestReuseNeverServesAStaleSnapshot:
    def test_scoped_child_view_rebuilds_when_its_parent_changes(self):
        manager = ActivityManager(
            property_groups=group_manager(NestedVisibility.SCOPED)
        )
        parent = manager.begin("parent")
        child = manager.begin("child", parent=parent)
        before = snapshot_context(child)[0]
        parent.get_property_group("pg1").set_property("region", "EU")
        after, hit, _ = snapshot_context(child)
        assert not hit
        assert after.property_values["pg1"] is not before.property_values["pg1"]
        assert after.property_values["pg1"]["region"] == "EU"
        assert after.property_values["pg2"] is before.property_values["pg2"]

    def test_remote_proxy_groups_never_reuse_a_snapshot(self):
        orb = Orb()
        manager = ActivityManager(clock=orb.clock, property_groups=group_manager())
        manager.install(orb)
        origin = PropertyGroup("shared", propagation=Propagation.REFERENCE)
        origin.set_property("k", "before")
        activity = manager.begin("job")
        activity.attach_property_group(
            RemotePropertyGroup("shared", orb.create_node("origin").activate(origin))
        )
        first = snapshot_context(activity)[0]
        origin.set_property("k", "after")
        second = snapshot_context(activity)[0]
        assert second.property_values["shared"]["k"] == "after"
        for name, snapshot in first.property_values.items():
            assert second.property_values[name] is not snapshot
