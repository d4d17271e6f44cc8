"""An encoding hop for tests that count bytes or marshal-cache hits.

A call whose target node lives in the calling ORB is collocated: it
carries values, not bytes, so it encodes and decodes nothing.  Tests of
the wire encoding and its caches therefore call across a
:class:`BridgedPair`: a client ORB and a server ORB joined by an
in-process :class:`~repro.orb.federation.InterOrbBridge`, whose requests
and replies are encoded by one ORB and decoded by the other.  Summing
both ORBs' marshal stats (:class:`SummedStats`) gives the counts one ORB
reported when it did both halves of the hop.  :func:`shape` compares
what each kind of hop delivers, type and value all the way down.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, List, Optional

from repro.config import OrbConfig
from repro.core.context import GroupSnapshot
from repro.orb import InterOrbBridge, Orb
from repro.orb.marshal import GLOBAL_REGISTRY
from repro.orb.reference import ObjectRef
from repro.util.clock import SimulatedClock

_CONTAINERS = (list, tuple, dict, set, frozenset, MappingProxyType)


def wire_parts(value: Any) -> List[Any]:
    """Children of ``value`` in the order the encoder walks them."""
    if isinstance(value, (dict, MappingProxyType)):
        return [item for pair in value.items() for item in pair]
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    name = GLOBAL_REGISTRY.lookup_type(type(value))
    if name is not None:
        return [GLOBAL_REGISTRY.lookup_name(name)[1](value)]
    return []


def shape(value: Any) -> Any:
    """``value``'s type and value, all the way down."""
    if isinstance(value, ObjectRef):
        return (ObjectRef, value.node_id, value.object_id, value.interface, value.is_bound)
    children = wire_parts(value)
    if children or isinstance(value, _CONTAINERS) or type(value) is GroupSnapshot:
        return (type(value), [shape(child) for child in children])
    return (type(value), value)


class SummedStats:
    """Both ORBs' :class:`~repro.orb.marshal.MarshalStats`, added up."""

    def __init__(self, *orbs: Orb) -> None:
        self._blocks = [orb.transport.stats.marshal for orb in orbs]

    def snapshot(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for block in self._blocks:
            for name, value in block.snapshot().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def __getattr__(self, name: str) -> int:
        return self.snapshot()[name]


class BridgedPair:
    """``client`` calls servants on ``server`` across an inter-ORB bridge."""

    def __init__(self, config: Optional[OrbConfig] = None) -> None:
        clock = SimulatedClock()
        self.client = Orb(clock=clock, config=config)
        self.server = Orb(clock=clock, config=config)
        self.bridge = InterOrbBridge(clock=clock)
        self.bridge.connect(self.client, "client")
        self.bridge.connect(self.server, "server")
        self.stats = SummedStats(self.client, self.server)

    def ref(self, server_ref: ObjectRef) -> ObjectRef:
        """``server_ref`` as the client invokes it."""
        return ObjectRef(
            server_ref.node_id, server_ref.object_id, server_ref.interface
        ).bind(self.client)

    def activate(self, node_id: str, servant: Any) -> ObjectRef:
        """Activate ``servant`` on the server's ``node_id`` (created on
        first use); returns the client's reference to it."""
        node = (
            self.server.node(node_id)
            if self.server.has_node(node_id)
            else self.server.create_node(node_id)
        )
        return self.ref(node.activate(servant))
