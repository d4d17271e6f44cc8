"""Ablation — PropertyGroup propagation: by value vs by reference (§3.3).

By-value groups snapshot into every outgoing request (bytes on the wire
scale with group size, downstream writes are invisible upstream);
by-reference groups ship one ObjectRef and pay a round-trip per
downstream property access (writes are visible upstream immediately).
The crossover is the artefact: small groups / chatty access favour
by-reference; large groups / rare access favour… actually the reverse —
this bench produces the actual table.

Calls cross an encoding hop (a client ORB and a server ORB joined by an
in-process inter-ORB bridge): a call collocated in one ORB carries values
and puts no bytes on any wire.
"""

import pytest

from repro.core import (
    ActivityManager,
    Propagation,
    PropertyGroup,
    received_context,
)
from repro.orb import Orb
from repro.orb.core import Servant

from tests.bridged import BridgedPair


def build(propagation, group_size):
    """The client's activity carries the group to a reader on the server;
    a by-reference group is exported from the client's ``origin`` node."""
    pair = BridgedPair()
    orb = pair.server
    origin = pair.client.create_node("origin")
    manager = ActivityManager(clock=pair.client.clock)
    manager.install(pair.client)
    ActivityManager(clock=orb.clock).install(orb)
    group = PropertyGroup(
        "ctx", propagation=propagation,
        initial={f"key-{i}": f"value-{i}" for i in range(group_size)},
    )
    if propagation is Propagation.REFERENCE:
        manager.export_property_group(group, origin)

    class Reader(Servant):
        def read_one(self):
            groups = received_context(orb).received_groups()
            return groups["ctx"].get_property("key-0")

        def noop(self):
            return True

    ref = pair.activate("server", Reader())
    activity = manager.current.begin("ablation")
    activity.attach_property_group(group)
    return pair.client, manager, ref, group


class TestPropagationAblation:
    def test_wire_cost_table(self, benchmark, emit):
        def scenario_run():
            rows = []
            for propagation in (Propagation.VALUE, Propagation.REFERENCE):
                for size in (1, 32, 256):
                    orb, manager, ref, group = build(propagation, size)
                    orb.transport.stats.reset()
                    for _ in range(5):
                        ref.invoke("noop")
                    rows.append(
                        (propagation.value, size,
                         orb.transport.stats.bytes_sent,
                         orb.transport.stats.requests_sent)
                    )
                    manager.current.complete()
            return rows

        rows = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        by_value = {size: bytes_ for prop, size, bytes_, _ in rows if prop == "by-value"}
        by_ref = {size: bytes_ for prop, size, bytes_, _ in rows if prop == "by-reference"}
        # Shape: by-value cost grows with group size; by-reference doesn't.
        assert by_value[256] > by_value[32] > by_value[1]
        assert by_ref[256] < by_value[256] / 4
        assert abs(by_ref[256] - by_ref[1]) < by_ref[1] * 0.5
        emit(
            "ablation_propagation",
            ["ablation — context bytes for 5 calls carrying a group:",
             "  propagation    size  bytes_on_wire  requests"]
            + [f"  {p:12s}  {s:5d}  {b:13d}  {r:8d}" for p, s, b, r in rows],
            data={
                "by_value_bytes_at_256": by_value[256],
                "by_reference_bytes_at_256": by_ref[256],
            },
        )

    def test_semantics_difference(self, benchmark, emit):
        """Downstream write visibility: the defining semantic difference."""

        def scenario_run():
            outcomes = {}
            for propagation in (Propagation.VALUE, Propagation.REFERENCE):
                orb = Orb()
                origin = orb.create_node("origin")
                server = orb.create_node("server")
                manager = ActivityManager(clock=orb.clock)
                manager.install(orb)
                group = PropertyGroup("ctx", propagation=propagation,
                                      initial={"k": "original"})
                if propagation is Propagation.REFERENCE:
                    manager.export_property_group(group, origin)

                class Writer(Servant):
                    def write(self):
                        groups = received_context(orb).received_groups()
                        groups["ctx"].set_property("k", "downstream")
                        return True

                ref = server.activate(Writer())
                activity = manager.current.begin()
                activity.attach_property_group(group)
                ref.invoke("write")
                outcomes[propagation.value] = group.get_property("k")
                manager.current.complete()
            return outcomes

        outcomes = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        assert outcomes["by-value"] == "original"
        assert outcomes["by-reference"] == "downstream"
        emit(
            "ablation_propagation",
            ["ablation — downstream write visibility:",
             f"  by-value     : origin sees {outcomes['by-value']!r}",
             f"  by-reference : origin sees {outcomes['by-reference']!r}"],
        )

    @pytest.mark.parametrize("propagation,size", [
        (Propagation.VALUE, 1),
        (Propagation.VALUE, 256),
        (Propagation.REFERENCE, 1),
        (Propagation.REFERENCE, 256),
    ])
    def test_bench_invocation_with_group(self, benchmark, propagation, size):
        orb, manager, ref, group = build(propagation, size)
        benchmark(lambda: ref.invoke("noop"))

    @pytest.mark.parametrize("propagation", [Propagation.VALUE, Propagation.REFERENCE])
    def test_bench_downstream_read(self, benchmark, propagation):
        """Reading one property downstream: snapshot hit vs round-trip."""
        orb, manager, ref, group = build(propagation, 32)
        benchmark(lambda: ref.invoke("read_one"))
