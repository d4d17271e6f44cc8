"""DecodeCache: framed-context decode memoization on every dispatch.

An interned value (an :class:`ActivityContext`) is length-framed on the
wire, and a receiver with a :class:`DecodeCache` decodes an unchanged
frame once and hands the same instance to every later request.  Under
test: hits and misses, binding of decoded references to the decoding
ORB, the fixed size bound, and that sharing one decoded context cannot
leak one request's edits into the next (by-value delivery).
"""

import pytest

from repro.config import OrbConfig
from repro.core import ActivityManager, Propagation, PropertyGroup, PropertyGroupManager
from repro.core.context import ActivityContext, GroupSnapshot, build_context
from repro.orb import EncodeCache, Marshaller, MarshalStats, Orb
from repro.orb.marshal import DECODE_CACHE_ENTRIES, DecodeCache
from repro.orb.reference import ObjectRef


def cached_marshaller():
    stats = MarshalStats()
    marshaller = Marshaller(
        stats=stats, decode_cache=DecodeCache(), encode_cache=EncodeCache(16)
    )
    return marshaller, stats


def context(key_value="v", refs=None):
    return ActivityContext(
        "a1", "job", {"g": {"k": key_value}}, refs if refs is not None else {}
    )


class TestByValueDelivery:
    def test_decoded_context_is_read_only_and_never_edited_by_a_request(self):
        marshaller = Marshaller(
            decode_cache=DecodeCache(16), encode_cache=EncodeCache(16)
        )
        wire = marshaller.encode(["req", context()])
        first = marshaller.decode(wire)[1]
        with pytest.raises(TypeError):
            first.property_values["g"]["k"] = 999
        with pytest.raises(TypeError):
            first.property_values["h"] = {}
        with pytest.raises(TypeError):
            first.property_refs["g"] = ObjectRef("n", "o", "PropertyGroup")
        second = marshaller.decode(wire)[1]
        assert dict(second.property_values["g"]) == {"k": "v"}

    def test_read_only_maps_keep_the_wire_bytes(self):
        built = context()
        plain = Marshaller().encode(built)
        assert Marshaller().encode(Marshaller().decode(plain)) == plain
        # The maps still encode as dicts, and each group as its own frame
        # around the dict it wraps: same bytes as that plain tree.
        as_dicts = Marshaller().encode(
            {
                "activity_id": "a1",
                "activity_name": "job",
                "property_values": {"g": GroupSnapshot({"k": "v"})},
                "property_refs": {},
            }
        )
        assert plain.endswith(as_dicts)
        group = Marshaller().encode(GroupSnapshot({"k": "v"}))
        assert group.endswith(Marshaller().encode({"k": "v"}))
        assert group in plain

    def test_received_groups_are_writable_copies(self):
        marshaller, _ = cached_marshaller()
        wire = marshaller.encode(context())
        group = marshaller.decode(wire).received_groups()["g"]
        group.set_property("k", "changed")
        assert marshaller.decode(wire).property_values["g"]["k"] == "v"


class TestDecodeCache:
    def test_repeated_context_hits(self):
        marshaller, stats = cached_marshaller()
        shared = context()
        first = marshaller.decode(marshaller.encode(["req-1", shared]))[1]
        second = marshaller.decode(marshaller.encode(["req-2", shared]))[1]
        # The context frame and its one group frame miss once; the repeat
        # hits the context frame and never reaches the group inside it.
        assert (stats.decode_misses, stats.decode_hits) == (2, 1)
        assert second is first

    def test_version_bump_misses(self):
        groups = PropertyGroupManager()
        groups.register_factory(
            "env",
            lambda: PropertyGroup(
                "env", propagation=Propagation.VALUE, initial={"locale": "en"}
            ),
        )
        activity = ActivityManager(property_groups=groups).begin("job")
        marshaller, stats = cached_marshaller()
        before = marshaller.decode(marshaller.encode(build_context(activity)))
        assert marshaller.decode(marshaller.encode(build_context(activity))) is before
        activity.get_property_group("env").set_property("locale", "fr")
        after = marshaller.decode(marshaller.encode(build_context(activity)))
        # Context + group frame miss per version; the unchanged repeat
        # is one context-frame hit.
        assert (stats.decode_misses, stats.decode_hits) == (4, 1)
        assert after.property_values["env"]["locale"] == "fr"
        assert before.property_values["env"]["locale"] == "en"

    def test_decoded_refs_bind_to_the_decoding_orb(self):
        marshaller, stats = cached_marshaller()
        wire = marshaller.encode(
            context(refs={"g": ObjectRef("origin", "pg-1", "PropertyGroup")})
        )
        orb_a, orb_b = Orb(), Orb()
        via_a = marshaller.decode(wire, orb_a)
        via_b = marshaller.decode(wire, orb_b)
        assert via_a.property_refs["g"].orb is orb_a
        assert via_b.property_refs["g"].orb is orb_b
        # Each ORB's repeat hits its own entry, still bound to it.
        assert marshaller.decode(wire, orb_a) is via_a
        # Context + group frame miss once per ORB.
        assert (stats.decode_misses, stats.decode_hits) == (4, 1)

    def test_distinct_contexts_stay_within_the_constant_bound(self):
        marshaller, stats = cached_marshaller()
        for i in range(1000):
            marshaller.decode(marshaller.encode(context(key_value=i)))
        # The bound counts contexts; each keeps its one group frame.
        assert len(marshaller.decode_cache) == 2 * DECODE_CACHE_ENTRIES
        # Every context and every group frame is new.
        assert stats.decode_misses == 2000

    def test_orb_sizes_the_cache_by_the_constant(self):
        assert Orb().marshaller.decode_cache.max_entries == DECODE_CACHE_ENTRIES
        big = Orb(config=OrbConfig(marshal_cache_entries=4096))
        assert big.marshaller.decode_cache.max_entries == DECODE_CACHE_ENTRIES
        off = Orb(config=OrbConfig(marshal_cache_entries=0))
        assert off.marshaller.decode_cache is None
        assert off.marshaller.encode_cache is None
