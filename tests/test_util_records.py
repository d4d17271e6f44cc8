"""Slotted record bases + allocation profiling hooks (PR 7 record layer)."""

import sys
import threading
import time

import pytest

from repro.core.context import ActivityContext
from repro.core.signals import Outcome, Signal
from repro.orb.marshal import GLOBAL_REGISTRY, Marshaller, marshal_roundtrip
from repro.ots.propagation import TransactionContext
from repro.util.profiling import (
    AllocationProbe,
    allocations_per_call,
    retained_blocks_per_object,
    trace_top,
)
from repro.util.records import FrozenRecord, SlottedRecord
from repro.wscf.coordination import CoordinationContext


class Point(SlottedRecord):
    __slots__ = ("x", "y")
    _fields = __slots__

    def __init__(self, x, y):
        self.x = x
        self.y = y


class Pinned(FrozenRecord):
    __slots__ = ("a", "b")
    _fields = __slots__

    def __init__(self, a, b=0):
        self._init(a=a, b=b)


class TestSlottedRecord:
    def test_no_instance_dict(self):
        assert not hasattr(Point(1, 2), "__dict__")
        assert not hasattr(Pinned(1), "__dict__")

    def test_value_equality_and_repr(self):
        assert Point(1, 2) == Point(1, 2)
        assert Point(1, 2) != Point(1, 3)
        assert Point(1, 2) != (1, 2)
        assert repr(Point(1, 2)) == "Point(x=1, y=2)"

    def test_frozen_refuses_assignment_and_deletion(self):
        record = Pinned(1, 2)
        with pytest.raises(AttributeError):
            record.a = 5
        with pytest.raises(AttributeError):
            del record.a

    def test_frozen_hashable(self):
        assert hash(Pinned(1, 2)) == hash(Pinned(1, 2))
        assert {Pinned(1, 2), Pinned(1, 2), Pinned(3)} == {Pinned(1, 2), Pinned(3)}


class TestConvertedWireRecords:
    """The converted value types keep their dataclass-era semantics."""

    def test_all_slotted(self):
        for cls, args in [
            (Signal, ("s", "ss")),
            (Outcome, ("n",)),
            (ActivityContext, ("a1", "root")),
            (TransactionContext, ("t1",)),
            (CoordinationContext, ("c1", "wscf:atomic-outcome")),
        ]:
            instance = cls(*args)
            assert not hasattr(instance, "__dict__"), cls

    def test_signal_semantics(self):
        signal = Signal("commit", "completion", data_payload := {"k": 1})
        assert signal.name == "commit"
        assert signal.delivery_id is None
        stamped = signal.with_delivery_id("d-1")
        assert stamped.delivery_id == "d-1"
        assert stamped.application_specific_data is data_payload
        assert signal != stamped
        assert signal.with_data(None).application_specific_data is None
        with pytest.raises(AttributeError):
            signal.signal_name = "other"
        assert str(signal) == "Signal(commit@completion)"

    def test_outcome_semantics(self):
        assert Outcome.done().is_done
        assert Outcome.error("boom").is_error
        assert not Outcome.unreachable().is_done
        assert Outcome("n", 1) == Outcome("n", 1)
        assert hash(Outcome.done()) == hash(Outcome.done())

    def test_registry_field_order_matches_dataclass_era(self):
        # register_slotted derives the wire parts from _fields: the
        # declaration order below IS the wire order of every release
        # since the types were dataclasses — a mismatch would silently
        # corrupt cross-version decoding.
        _, to_parts, _ = GLOBAL_REGISTRY.lookup_name(
            GLOBAL_REGISTRY.repository_id(Signal)
        )
        assert list(to_parts(Signal("s", "ss", 1, "d"))) == [
            "signal_name",
            "signal_set_name",
            "application_specific_data",
            "delivery_id",
        ]
        _, to_parts, _ = GLOBAL_REGISTRY.lookup_name(
            GLOBAL_REGISTRY.repository_id(ActivityContext)
        )
        assert list(to_parts(ActivityContext("a", "n"))) == [
            "activity_id",
            "activity_name",
            "property_values",
            "property_refs",
        ]

    # The struct encoding is the only codec left; its case keeps its id.
    @pytest.mark.parametrize("codec", ["struct"])
    def test_roundtrip_both_codecs(self, codec):
        marshaller = Marshaller()
        for value in [
            Signal("s", "ss", {"payload": [1, 2.5]}, "d-9"),
            Outcome.error(("why",)),
            ActivityContext("a1", "root", {"pg": {"k": "v"}}, {}),
            TransactionContext("tid-1"),
            CoordinationContext("c1", "wscf:atomic-outcome", "domA"),
        ]:
            # Struct tags live in 0x80-0x8F, disjoint from pre-struct data.
            assert 0x80 <= marshaller.encode(value)[0] <= 0x8F, codec
            assert marshal_roundtrip(value) == value


class TestAllocationProfiling:
    def test_probe_counts_blocks(self):
        with AllocationProbe() as probe:
            keep = [object() for _ in range(100)]
        assert probe.blocks >= 100
        del keep

    def test_probe_ignores_other_threads(self):
        """The block count is process-wide: a thread that keeps
        allocating must not leak into the window."""
        stop = threading.Event()

        def churn():
            size = 0
            while not stop.is_set():
                size = (size + 7) % 50
                junk = [object() for _ in range(size)]
                time.sleep(0)  # yields holding a list whose size varies
                del junk

        thread = threading.Thread(target=churn, daemon=True)
        thread.start()
        readings = []
        try:
            for _ in range(50):
                with AllocationProbe() as probe:
                    keep = [object() for _ in range(100)]
                    sum(range(300_000))  # hold the window open a few ms
                readings.append(probe.blocks)
                del keep
        finally:
            stop.set()
            thread.join()
        assert all(100 <= blocks < 120 for blocks in readings), readings

    def test_probe_restores_switch_interval(self):
        before = sys.getswitchinterval()
        with AllocationProbe():
            assert sys.getswitchinterval() > before
        assert sys.getswitchinterval() == before

    def test_probe_restores_gc(self):
        import gc

        assert gc.isenabled()
        with AllocationProbe():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_allocations_per_call_near_zero_for_noop(self):
        assert allocations_per_call(lambda: None, repeat=200) < 1.0

    def test_slotted_record_allocates_less_than_dict_record(self):
        # The record-layer claim, measured: a live slotted signal costs
        # strictly fewer allocator blocks than the same shape on
        # __dict__ storage (instance + dict vs instance alone).
        class DictSignal:
            def __init__(self, signal_name, signal_set_name, data, delivery_id):
                self.signal_name = signal_name
                self.signal_set_name = signal_set_name
                self.application_specific_data = data
                self.delivery_id = delivery_id

        slotted = retained_blocks_per_object(
            lambda: Signal("s", "ss", None, "d-1"), count=500
        )
        dict_backed = retained_blocks_per_object(
            lambda: DictSignal("s", "ss", None, "d-1"), count=500
        )
        assert slotted < dict_backed

    def test_trace_top_attributes_lines(self):
        rows = trace_top(lambda: [bytearray(1024) for _ in range(50)], limit=5)
        assert rows
        location, size, count = rows[0]
        assert ":" in location
        assert size > 0
