"""Invocation fast path: versioned snapshots, encode cache, marshal-once.

Three layers under test:

- :class:`~repro.orb.marshal.PayloadTemplate` — a filled template must be
  byte-identical to a full encode of the substituted tree;
- the interned :class:`~repro.orb.marshal.EncodeCache` — identity-stable
  contexts encode once, invalidation and the LRU bound hold;
- the context snapshot cache — unchanged activities reuse their wire
  context, while *any* property mutation or nesting change invalidates
  it (the stale-snapshot regression tests here fail if version-based
  invalidation is removed).
"""

import pytest

from repro.config import OrbConfig
from repro.core import (
    ActivityManager,
    BroadcastSignalSet,
    NestedVisibility,
    Outcome,
    Propagation,
    PropertyGroup,
    PropertyGroupManager,
    context_version,
    received_context,
    snapshot_context,
)
from repro.core.context import ActivityContext
from repro.core.property_group import RemotePropertyGroup
from repro.core.signals import Signal
from repro.orb import EncodeCache, Marshaller, MarshalStats, Orb, PayloadSlot
from repro.orb.core import Servant
from repro.orb.marshal import MarshalError
from repro.orb.reference import ObjectRef

from tests.bridged import BridgedPair


def fresh_context(n: int = 3) -> ActivityContext:
    return ActivityContext(
        activity_id=f"a{n}",
        activity_name="job",
        property_values={"env": {f"k{i}": f"v{i}" for i in range(n)}},
    )


class TestPayloadTemplate:
    def test_fill_is_byte_identical_to_full_encode(self):
        marshaller = Marshaller()
        signal = Signal("go", "set", application_specific_data={"x": [1, 2.5, None]})
        template = marshaller.prepare(
            [
                PayloadSlot("object_id"),
                "process_signal",
                [signal.with_delivery_id(PayloadSlot("delivery_id"))],
                {},
                PayloadSlot("contexts"),
            ]
        )
        for delivery_id, object_id in [("d-1", "obj-1"), ("d-2", "obj-2")]:
            contexts = {"CosActivity": fresh_context()}
            filled = template.fill(
                object_id=object_id, delivery_id=delivery_id, contexts=contexts
            )
            plain = marshaller.encode(
                [
                    object_id,
                    "process_signal",
                    [signal.with_delivery_id(delivery_id)],
                    {},
                    contexts,
                ]
            )
            assert filled == plain
            # The patched tree decodes to the per-send values.
            decoded = marshaller.decode(filled)
            assert decoded[0] == object_id
            assert decoded[2][0].delivery_id == delivery_id

    def test_fill_missing_slot_raises(self):
        marshaller = Marshaller()
        template = marshaller.prepare([PayloadSlot("a"), 1])
        with pytest.raises(MarshalError):
            template.fill()

    def test_slot_outside_template_rejected_by_encode(self):
        with pytest.raises(MarshalError):
            Marshaller().encode([PayloadSlot("a")])

    def test_fill_counts_saved_bytes(self):
        stats = MarshalStats()
        marshaller = Marshaller(stats=stats)
        template = marshaller.prepare(["static" * 100, PayloadSlot("x")])
        assert stats.templates_prepared == 1
        before = stats.bytes_saved
        template.fill(x=1)
        template.fill(x=2)
        assert stats.template_fills == 2
        assert stats.bytes_saved == before + 2 * template.static_bytes


class TestEncodeCache:
    def make(self, max_entries=8):
        stats = MarshalStats()
        cache = EncodeCache(max_entries)
        return Marshaller(stats=stats, encode_cache=cache), stats, cache

    def test_interned_context_encodes_once(self):
        marshaller, stats, cache = self.make()
        context = fresh_context()
        first = marshaller.encode(context)
        second = marshaller.encode(context)
        assert first == second
        # The context and its one group frame each encode once; the
        # repeat splices the context's bytes whole.
        assert stats.cache_misses == 2
        assert stats.cache_hits == 1
        assert stats.bytes_saved >= len(first)
        # A plain marshaller decodes the cached bytes identically.
        assert Marshaller().decode(first) == context

    def test_equal_but_distinct_instances_do_not_alias(self):
        marshaller, stats, _ = self.make()
        assert marshaller.encode(fresh_context()) == marshaller.encode(fresh_context())
        assert stats.cache_hits == 0  # identity-keyed, not equality-keyed

    def test_explicit_invalidation(self):
        marshaller, stats, cache = self.make()
        context = fresh_context()
        marshaller.encode(context)
        assert marshaller.invalidate_cached(context) is True
        assert marshaller.invalidate_cached(context) is False
        marshaller.encode(context)
        # Only the context re-encodes: its group's bytes survive.
        assert (stats.cache_misses, stats.cache_hits) == (3, 1)

    def test_hard_size_bound_evicts_lru(self):
        marshaller, _, cache = self.make(max_entries=4)
        contexts = [fresh_context(i) for i in range(10)]
        for context in contexts:
            marshaller.encode(context)
        # The bound counts contexts; each keeps its one group frame.
        assert len(cache) == 2 * 4
        # Oldest entries are gone; re-encoding them misses but works.
        assert cache.get(contexts[0]) is None
        assert cache.get(contexts[0].property_values["env"]) is None
        assert cache.get(contexts[-1]) is not None
        assert cache.get(contexts[-1].property_values["env"]) is not None

    def test_non_interned_values_not_cached(self):
        marshaller, stats, cache = self.make()
        signal = Signal("go", "set")
        marshaller.encode(signal)
        marshaller.encode(signal)
        assert len(cache) == 0
        assert stats.cache_hits == 0


class TestContextSnapshotCache:
    @pytest.fixture
    def deployment(self):
        orb = Orb()
        node = orb.create_node("server")
        groups = PropertyGroupManager()
        groups.register_factory(
            "env",
            lambda: PropertyGroup(
                "env", propagation=Propagation.VALUE, initial={"locale": "en"}
            ),
        )
        manager = ActivityManager(clock=orb.clock, property_groups=groups)
        manager.install(orb)
        return orb, node, manager

    def test_unchanged_activity_reuses_snapshot(self):
        pair = BridgedPair()
        groups = PropertyGroupManager()
        groups.register_factory(
            "env",
            lambda: PropertyGroup(
                "env", propagation=Propagation.VALUE, initial={"locale": "en"}
            ),
        )
        manager = ActivityManager(clock=pair.client.clock, property_groups=groups)
        manager.install(pair.client)
        ActivityManager(clock=pair.server.clock).install(pair.server)

        class Probe(Servant):
            def read_locale(self):
                return received_context(pair.server).property_values["env"]["locale"]

        ref = pair.activate("server", Probe())
        manager.current.begin("job")
        stats = pair.stats
        assert ref.invoke("read_locale") == "en"
        assert ref.invoke("read_locale") == "en"
        assert stats.context_misses == 1
        assert stats.context_hits == 1
        # The unchanged context's bytes were reused by the encode cache.
        assert stats.cache_hits >= 1
        manager.current.complete()

    def test_mutation_between_hops_carries_fresh_snapshot(self, deployment):
        """Stale-snapshot regression: if version-based invalidation is
        removed the second hop serves the cached 'en' bytes and fails."""
        orb, node, manager = deployment

        class Probe(Servant):
            def read_locale(self):
                return received_context(orb).property_values["env"]["locale"]

        ref = node.activate(Probe())
        activity = manager.current.begin("job")
        assert ref.invoke("read_locale") == "en"
        activity.get_property_group("env").set_property("locale", "fr")
        assert ref.invoke("read_locale") == "fr"
        stats = orb.transport.stats.marshal
        assert stats.context_misses == 2  # rebuild after the version bump
        manager.current.complete()

    def test_delete_and_update_from_also_invalidate(self, deployment):
        orb, node, manager = deployment

        class Probe(Servant):
            def read_keys(self):
                return sorted(received_context(orb).property_values["env"])

        ref = node.activate(Probe())
        activity = manager.current.begin("job")
        group = activity.get_property_group("env")
        assert ref.invoke("read_keys") == ["locale"]
        group.update_from({"tz": "UTC"})
        assert ref.invoke("read_keys") == ["locale", "tz"]
        group.delete_property("locale")
        assert ref.invoke("read_keys") == ["tz"]
        manager.current.complete()

    def test_nested_push_pop_changes_version_vector(self, deployment):
        """A scoped child overlay and the pop back to the parent must
        each produce the right snapshot — and a parent write made while
        the child is current invalidates the child's cached context."""
        orb, node, manager = deployment

        class Probe(Servant):
            def read_locale(self):
                return received_context(orb).property_values["env"]["locale"]

        ref = node.activate(Probe())
        groups = PropertyGroupManager()
        groups.register_factory(
            "env",
            lambda: PropertyGroup(
                "env",
                visibility=NestedVisibility.SCOPED,
                propagation=Propagation.VALUE,
                initial={"locale": "en"},
            ),
        )
        manager.property_groups = groups
        parent = manager.current.begin("parent")
        assert ref.invoke("read_locale") == "en"
        child = manager.begin("child", parent=parent)
        manager.current.resume(child)
        child.get_property_group("env").set_property("locale", "de")
        assert ref.invoke("read_locale") == "de"
        # Cached child snapshot must not survive a *parent* write either:
        # the scoped view's token folds in the parent version.
        assert ref.invoke("read_locale") == "de"
        parent.get_property_group("env").set_property("region", "EU")
        context = snapshot_context(child)[0]
        assert context.property_values["env"]["region"] == "EU"
        child.complete()
        manager.current.resume(parent)
        assert ref.invoke("read_locale") == "en"
        manager.current.complete()

    def test_remote_proxy_group_disables_caching(self):
        orb = Orb()
        manager = ActivityManager(clock=orb.clock)
        manager.install(orb)
        node = orb.create_node("origin")
        origin = PropertyGroup("shared", propagation=Propagation.REFERENCE)
        ref = node.activate(origin)
        activity = manager.begin("job")
        activity.attach_property_group(RemotePropertyGroup("shared", ref))
        assert context_version(activity) is None
        _, hit, _ = snapshot_context(activity)
        assert hit is False
        _, hit, _ = snapshot_context(activity)
        assert hit is False

    def test_attach_group_invalidates(self, deployment):
        orb, node, manager = deployment
        activity = manager.current.begin("job")
        first = snapshot_context(activity)[0]
        assert snapshot_context(activity)[0] is first
        activity.attach_property_group(
            PropertyGroup("extra", propagation=Propagation.VALUE, initial={"a": 1})
        )
        second, hit, stale = snapshot_context(activity)
        assert hit is False
        assert stale is first
        assert "extra" in second.property_values
        manager.current.complete()


class EchoAction(Servant):
    """Remote action recording each received signal's identity."""

    def __init__(self):
        self.seen = []

    def process_signal(self, signal):
        self.seen.append((signal.signal_name, signal.delivery_id))
        return Outcome.done(signal.delivery_id)


def run_broadcast(marshal_cache_entries: int, participants: int = 6):
    """One activity broadcasting to N actions across an encoding hop;
    returns the raw request bytes seen on the wire, the servants and the
    bridged pair."""
    pair = BridgedPair(OrbConfig(marshal_cache_entries=marshal_cache_entries))
    orb = pair.client
    groups = PropertyGroupManager()
    groups.register_factory(
        "env",
        lambda: PropertyGroup(
            "env",
            propagation=Propagation.VALUE,
            initial={f"k{i}": "x" * 32 for i in range(8)},
        ),
    )
    manager = ActivityManager(clock=orb.clock, property_groups=groups)
    manager.install(orb)

    wire = []
    original_deliver = orb.transport.deliver

    def recording_deliver(source, target, request_bytes, dispatch):
        wire.append(request_bytes)
        return original_deliver(source, target, request_bytes, dispatch)

    orb.transport.deliver = recording_deliver

    actions = [EchoAction() for _ in range(participants)]
    activity = manager.current.begin("fan-out")
    for action in actions:
        activity.add_action("repro.predefined.broadcast", pair.activate("server", action))
    activity.register_signal_set(BroadcastSignalSet("notify"))
    outcome = activity.signal("repro.predefined.broadcast")
    manager.current.complete()
    return wire, actions, outcome, pair


class TestMarshalOnceBroadcast:
    def test_wire_bytes_identical_fast_vs_slow(self):
        slow_wire, slow_actions, slow_outcome, _ = run_broadcast(0)
        fast_wire, fast_actions, fast_outcome, fast_pair = run_broadcast(256)
        assert all(isinstance(request, bytes) for request in slow_wire)
        assert fast_wire == slow_wire  # byte-identical requests, in order
        assert fast_outcome == slow_outcome
        assert [a.seen for a in fast_actions] == [a.seen for a in slow_actions]
        # Each action still got its own delivery id through the template.
        ids = [a.seen[0][1] for a in fast_actions]
        assert len(set(ids)) == len(ids)
        stats = fast_pair.stats
        assert stats.templates_prepared >= 1
        assert stats.template_fills == len(fast_actions)
        assert stats.bytes_saved > 0

    def test_fast_path_encodes_fewer_bytes(self):
        _, _, _, fast_pair = run_broadcast(256, participants=8)
        _, _, _, slow_pair = run_broadcast(0, participants=8)
        fast = fast_pair.stats
        slow = slow_pair.stats
        assert slow.bytes_encoded > 2 * fast.bytes_encoded
        # Same bytes crossed the wire either way.
        assert (
            fast_pair.client.transport.stats.bytes_sent
            == slow_pair.client.transport.stats.bytes_sent
        )

    def test_unbound_refs_fall_back_to_plain_path(self):
        """A template is only used for bound refs; an unbound ref keeps
        the historical error semantics (no crash at prepare time)."""
        orb = Orb()
        manager = ActivityManager(clock=orb.clock)
        manager.install(orb)
        activity = manager.begin("job")
        activity.add_action(
            "repro.predefined.broadcast",
            ObjectRef("nowhere", "missing"),  # never bound
        )
        activity.register_signal_set(BroadcastSignalSet("notify"))
        outcome = activity.signal("repro.predefined.broadcast")
        assert outcome.is_error
