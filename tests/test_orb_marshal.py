"""Unit tests for CDR-style marshalling."""

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum, IntEnum
from types import MappingProxyType

import pytest

from repro.core.context import ActivityContext
from repro.core.signals import Outcome, Signal
from repro.core.status import CompletionStatus
from repro.orb.marshal import (
    DecodeCache,
    MarshalError,
    Marshaller,
    PayloadSlot,
    ValueTypeRegistry,
    marshal_roundtrip,
)
from repro.orb.reference import ObjectRef


def roundtrip(value):
    marshaller = Marshaller()
    return marshaller.decode(marshaller.encode(value))


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**40, -(2**40), 0.0, 3.14, -2.5,
         "", "hello", "uniçode ✓", b"", b"bytes\x00\xff"],
    )
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_bool_not_confused_with_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True

    def test_float_precision(self):
        assert roundtrip(1 / 3) == 1 / 3


class TestContainers:
    def test_list(self):
        assert roundtrip([1, "a", None]) == [1, "a", None]

    def test_tuple_stays_tuple(self):
        assert roundtrip((1, 2)) == (1, 2)
        assert isinstance(roundtrip((1, 2)), tuple)

    def test_dict(self):
        value = {"a": 1, 2: "b", (1, 2): [3]}
        assert roundtrip(value) == value

    def test_set(self):
        assert roundtrip({1, 2, 3}) == {1, 2, 3}

    def test_nested(self):
        value = {"outer": [{"inner": (1, [2, {"deep": None}])}]}
        assert roundtrip(value) == value

    def test_empty_containers(self):
        assert roundtrip([]) == []
        assert roundtrip({}) == {}
        assert roundtrip(()) == ()


class TestValueTypes:
    def test_registered_dataclass_roundtrips(self):
        signal = Signal("prepare", "repro.2pc", {"k": 1})
        copy = roundtrip(signal)
        assert copy == signal
        assert copy is not signal

    def test_outcome_roundtrips(self):
        outcome = Outcome.error(data=[1, 2])
        assert roundtrip(outcome) == outcome

    def test_registered_enum_roundtrips(self):
        assert roundtrip(CompletionStatus.FAIL_ONLY) is CompletionStatus.FAIL_ONLY

    def test_unregistered_type_rejected(self):
        class Foo:
            pass

        with pytest.raises(MarshalError):
            Marshaller().encode(Foo())

    def test_unregistered_enum_rejected(self):
        class Colour(Enum):
            RED = 1

        with pytest.raises(MarshalError):
            Marshaller().encode(Colour.RED)

    def test_custom_registry_isolated(self):
        registry = ValueTypeRegistry()

        @registry.register_dataclass
        @dataclass(frozen=True)
        class Point:
            x: int
            y: int

        marshaller = Marshaller(registry)
        assert marshaller.decode(marshaller.encode(Point(1, 2))) == Point(1, 2)

    def test_register_dataclass_requires_dataclass(self):
        registry = ValueTypeRegistry()
        with pytest.raises(MarshalError):
            registry.register_dataclass(int)

    def test_by_value_semantics(self):
        original = {"items": [1, 2]}
        copy = marshal_roundtrip(original)
        copy["items"].append(3)
        assert original == {"items": [1, 2]}


class TestObjectRefs:
    def test_ref_roundtrips_identity(self):
        ref = ObjectRef("node-1", "obj-9", "Thing")
        copy = roundtrip(ref)
        assert copy == ref
        assert copy.interface == "Thing"
        assert not copy.is_bound

    def test_ref_rebinds_to_orb(self):
        from repro.orb import Orb

        orb = Orb()
        ref = ObjectRef("n", "o", "I")
        marshaller = Marshaller()
        copy = marshaller.decode(marshaller.encode(ref), orb)
        assert copy.is_bound
        assert copy.orb is orb

    def test_refs_inside_containers(self):
        ref = ObjectRef("n", "o", "I")
        copy = roundtrip({"service": ref, "others": [ref]})
        assert copy["service"] == ref
        assert copy["others"][0] == ref


class TestWireErrors:
    def test_truncated_message(self):
        data = Marshaller().encode("hello")
        with pytest.raises(MarshalError):
            Marshaller().decode(data[:3])

    def test_trailing_garbage(self):
        data = Marshaller().encode(1) + b"junk"
        with pytest.raises(MarshalError):
            Marshaller().decode(data)

    def test_unknown_tag(self):
        with pytest.raises(MarshalError):
            Marshaller().decode(b"\x99")

    def test_empty_message(self):
        with pytest.raises(MarshalError):
            Marshaller().decode(b"")


class TestCopy:
    """The collocated copy is what a decode of the encoding gives."""

    def test_containers_come_out_as_a_decode_builds_them(self):
        value = {
            "view": MappingProxyType({"k": [1]}),
            "frozen": frozenset({3, 1}),
            "tuple": (1, [2]),
            "big": 2**40,
        }
        copy = Marshaller().copy(value)
        assert copy == roundtrip(value)
        assert type(copy["view"]) is dict and type(copy["frozen"]) is set
        assert copy["view"]["k"] is not value["view"]["k"]
        assert copy["tuple"][1] is not value["tuple"][1]

    def test_builtin_subclasses_copy_as_the_builtin(self):
        class Level(IntEnum):
            HIGH = 2

        copy = Marshaller().copy([Level.HIGH, OrderedDict(a=1)])
        assert copy == roundtrip([Level.HIGH, OrderedDict(a=1)])
        assert type(copy[0]) is int and type(copy[1]) is dict

    def test_registered_values_are_rebuilt_and_enums_shared(self):
        signal = Signal("prepare", "repro.2pc", {"k": [1]})
        copy = Marshaller().copy([signal, CompletionStatus.FAIL_ONLY])
        assert copy[0] == signal and copy[0] is not signal
        assert copy[0].application_specific_data["k"] is not signal.application_specific_data["k"]
        assert copy[1] is CompletionStatus.FAIL_ONLY

    def test_refs_are_rebound_to_the_receiving_orb(self):
        from repro.orb import Orb

        orb = Orb()
        ref = ObjectRef("n", "o", "I")
        copy = Marshaller().copy(ref, orb)
        assert copy == ref and copy is not ref and copy.orb is orb
        assert not Marshaller().copy(ref).is_bound

    @pytest.mark.parametrize(
        "value", [2**63, -(2**63) - 1, PayloadSlot("hole"), object(), {"k": {object()}}]
    )
    def test_refuses_what_encode_refuses(self, value):
        with pytest.raises(MarshalError):
            Marshaller().encode(value)
        with pytest.raises(MarshalError):
            Marshaller().copy(value)

    def test_interned_values_are_copied_once_per_instance_and_orb(self):
        from repro.orb import Orb

        live = {"k": ["v"]}
        context = ActivityContext("a1", "job", {"g": live})
        cached = Marshaller(decode_cache=DecodeCache())
        first = cached.copy(context)
        assert first == context and first is not context
        assert first.property_values["g"] is not context.property_values["g"]
        assert first.property_values["g"]["k"] is not live["k"]
        assert cached.copy(context) is first
        assert cached.copy(context, Orb()) is not first
        # Without a decode cache every copy is fresh.
        assert Marshaller().copy(context) is not Marshaller().copy(context)
