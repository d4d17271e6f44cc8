"""Property-based tests: marshalling is a lossless involution, and the
collocated copy is what a decode of the encoding gives."""

from types import MappingProxyType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import ActivityContext, GroupSnapshot
from repro.core.signals import Outcome, Signal
from repro.core.status import CompletionStatus
from repro.orb.marshal import DecodeCache, Marshaller
from repro.orb.reference import ObjectRef

from tests.bridged import shape, wire_parts

# Wire-legal scalar values.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)

# Recursive wire-legal values (keys restricted to hashables).
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
        st.tuples(children, children),
    ),
    max_leaves=25,
)


def roundtrip(value):
    marshaller = Marshaller()
    return marshaller.decode(marshaller.encode(value))


class TestRoundtrip:
    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_values_roundtrip(self, value):
        assert roundtrip(value) == value

    @given(values)
    @settings(max_examples=50, deadline=None)
    def test_double_roundtrip_stable(self, value):
        once = roundtrip(value)
        twice = roundtrip(once)
        assert once == twice

    @given(st.text(max_size=20), st.text(max_size=20), values)
    @settings(max_examples=100, deadline=None)
    def test_signals_roundtrip(self, name, set_name, data):
        signal = Signal(name, set_name, data)
        assert roundtrip(signal) == signal

    @given(st.text(max_size=20), values, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_outcomes_roundtrip(self, name, data, is_error):
        outcome = Outcome(name=name, data=data, is_error=is_error)
        assert roundtrip(outcome) == outcome

    @given(st.text(min_size=1, max_size=10), st.text(min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_object_refs_roundtrip(self, node_id, object_id):
        ref = ObjectRef(node_id, object_id, "Iface")
        copy = roundtrip(ref)
        assert copy == ref
        assert copy.interface == "Iface"

    @given(st.lists(values, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_mutation_of_copy_never_aliases(self, items):
        original = {"items": list(items)}
        copy = roundtrip(original)
        copy["items"].append("sentinel")
        assert len(original["items"]) == len(items)

    @given(
        st.dictionaries(
            st.integers(min_value=-(2**63), max_value=2**63 - 1), scalars, max_size=8
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_dict_key_types_preserved(self, mapping):
        assert roundtrip(mapping) == mapping

    @given(st.integers(min_value=2**63, max_value=2**70))
    @settings(max_examples=20, deadline=None)
    def test_out_of_range_integers_raise_marshal_error(self, value):
        from repro.orb.marshal import MarshalError
        import pytest

        with pytest.raises(MarshalError):
            Marshaller().encode(value)

    @given(st.sets(st.integers(min_value=-1000, max_value=1000), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_sets_roundtrip(self, items):
        assert roundtrip(items) == items


# Everything a request may carry: registered values, enums, refs, read-only
# views, sets, and interned contexts whose groups wrap the caller's dicts.
rich_values = st.recursive(
    st.one_of(
        scalars,
        st.sampled_from(list(CompletionStatus)),
        st.builds(ObjectRef, st.text(max_size=5), st.text(max_size=5), st.just("I")),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=3).map(MappingProxyType),
        st.sets(st.integers(min_value=-50, max_value=50), max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
        st.builds(Signal, st.text(max_size=5), st.text(max_size=5), children),
        st.builds(Outcome, name=st.text(max_size=5), data=children),
        st.dictionaries(st.text(max_size=5), children, max_size=3).map(
            lambda values: ActivityContext("a1", "job", {"g": values})
        ),
    ),
    max_leaves=20,
)

def mutable_containers(value, found):
    """Append every mutable container reachable from ``value`` to ``found``."""
    if isinstance(value, (list, dict, set)) or type(value) is GroupSnapshot:
        found.append(value)
    for child in wire_parts(value):
        mutable_containers(child, found)
    return found


class TestCollocatedCopy:
    @given(
        st.one_of(
            st.builds(Signal, st.text(max_size=8), st.text(max_size=8), values,
                      st.one_of(st.none(), st.text(max_size=8))),
            st.builds(Outcome, name=st.text(max_size=8), data=values,
                      is_error=st.booleans()),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_record_copy_is_the_decode_of_the_encoding(self, value):
        copy = Marshaller().copy(value)
        decoded = roundtrip(value)
        assert type(copy) is type(decoded)
        assert copy == decoded
        shared = all(type(part) in (type(None), bool, float, str, bytes)
                     for part in value._astuple())
        assert (copy is value) == shared

    @given(rich_values)
    @settings(max_examples=200, deadline=None)
    def test_copy_is_the_decode_of_the_encoding(self, value):
        marshaller = Marshaller(decode_cache=DecodeCache())
        copy = marshaller.copy(value)
        assert shape(copy) == shape(Marshaller().decode(Marshaller().encode(value)))
        # Held alive together, so no id is reused between the two walks.
        original, copied = mutable_containers(value, []), mutable_containers(copy, [])
        assert not {id(c) for c in original} & {id(c) for c in copied}
