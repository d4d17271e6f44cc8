"""Inter-ORB federation: linking coordination domains.

The paper's activity service is explicitly *federated*: one activity tree
may span several coordination domains (separate ORBs, separate
administrative realms), and a parent coordinator talks to one interposed
subordinate per remote domain rather than to every leaf participant.
This module provides the distribution substrate for that topology:

- every :class:`~repro.orb.core.Orb` may carry a ``domain_id``;
- an :class:`InterOrbBridge` connects two or more ORBs and routes
  invocations whose target node lives in a *different* domain;
- each (domain, domain) pair gets its own :class:`DomainLink` with a
  dedicated :class:`~repro.orb.transport.Transport` — so fault plans
  (partitions!), latency injection and :class:`TransportStats` compose
  *per link*, and cross-domain wire bytes are directly measurable.

A routed invocation crosses three transports::

    caller node --[source orb transport]--> fed:<target-domain>   (gateway)
    domain:<a>  --[link transport]-------> domain:<b>             (the wire)
    fed:<source-domain> --[target orb transport]--> target node

Request bytes are produced once by the *source* ORB's marshaller (the
marshal-once templates of the invocation fast path compose unchanged)
and decoded by the *target* ORB's — ObjectRefs crossing the bridge are
re-bound to the receiving ORB, so a reference that travels A→B and is
later invoked in B routes back across the same bridge.

Each domain also has a *coordination node* (``fed:<d>``) on which it
activates its own interposed subordinates and well-known services; peers
reach them only by invoking them (see :mod:`repro.core.interposition`
and :mod:`repro.ots.interposition`).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import CommunicationError, ConfigurationError, ObjectNotExist
from repro.orb.core import Node, Orb
from repro.orb.membership import FailureDetector, FailureDetectorConfig, PeerState
from repro.orb.reference import ObjectRef
from repro.orb.transport import SimulatedTransport, Transport
from repro.util.clock import Clock
from repro.util.rng import SeededRng


def coordination_node_id(domain_id: str) -> str:
    """The well-known node id hosting a domain's interposed servants."""
    return f"fed:{domain_id}"


class DomainLink:
    """The wire between two domains: one transport, one fault plan.

    ``transport.fault_plan`` governs only this link; partitioning it
    (via :meth:`InterOrbBridge.partition`) severs *every* cross-domain
    invocation between the pair while intra-domain traffic continues —
    the classic federated-deployment failure mode.  Traffic counters are
    the transport's own :class:`~repro.orb.transport.TransportStats`
    (one source of truth; a partitioned request that never crossed is
    not counted as carried).
    """

    def __init__(self, domain_a: str, domain_b: str, transport: Transport) -> None:
        self.domain_a = domain_a
        self.domain_b = domain_b
        self.transport = transport

    @property
    def stats(self):
        return self.transport.stats

    def endpoint(self, domain_id: str) -> str:
        return f"domain:{domain_id}"

    def describe(self) -> Dict[str, Any]:
        return {
            "domains": sorted((self.domain_a, self.domain_b)),
            "requests": self.stats.requests_sent,
            "bytes_sent": self.stats.bytes_sent,
            "transport": self.transport.describe(),
        }


class InterOrbBridge:
    """Connects ORBs into a federation and routes between them.

    One bridge instance models the half-bridges of a federated CORBA
    deployment.  Connect each ORB with :meth:`connect`; from then on an
    invocation through any member ORB whose target node is unknown
    locally is resolved by domain and carried across the corresponding
    :class:`DomainLink`.

    The bridge needs a clock for per-link latency injection; it defaults
    to the first connected ORB's clock (federation tests and benches
    share one :class:`~repro.util.clock.SimulatedClock` across domains so
    cross-domain latency is simulated deterministically).
    """

    def __init__(self, clock: Optional[Clock] = None, rng: Optional[SeededRng] = None) -> None:
        self._clock = clock
        self._rng = rng if rng is not None else SeededRng(0)
        self._orbs: Dict[str, Orb] = {}
        # node id -> domain, for domains that disconnected (crashed) and
        # have not reconnected: still addressable, just unreachable.
        self._lost_nodes: Dict[str, str] = {}
        self._links: Dict[FrozenSet[str], DomainLink] = {}
        self._auto_domain = 0
        self._detector: Optional[FailureDetector] = None

    # -- membership ----------------------------------------------------------

    def connect(self, orb: Orb, domain_id: Optional[str] = None) -> str:
        """Join ``orb`` to the federation under ``domain_id``.

        An explicit ``domain_id`` argument must agree with any id the
        ORB already carries (a silent rename would orphan pre-minted
        ``fed:<d>`` references); with no argument the ORB's own id is
        used, and an ORB with neither gets one assigned (``domain-N``).
        Re-connecting the same ORB under its existing domain id is
        idempotent.
        """
        if domain_id is not None and orb.domain_id is not None and domain_id != orb.domain_id:
            raise ConfigurationError(
                f"orb already carries domain id {orb.domain_id!r};"
                f" refusing to rename it to {domain_id!r}"
            )
        if domain_id is None:
            domain_id = orb.domain_id
        if domain_id is None:
            domain_id = f"domain-{self._auto_domain}"
            self._auto_domain += 1
        existing = self._orbs.get(domain_id)
        if existing is not None:
            if existing is orb:
                return domain_id
            raise ConfigurationError(f"domain {domain_id!r} already connected")
        if orb.federation is not None and orb.federation is not self:
            raise ConfigurationError("orb already belongs to another federation")
        orb.domain_id = domain_id
        orb.federation = self
        self._orbs[domain_id] = orb
        self._lost_nodes = {n: d for n, d in self._lost_nodes.items() if d != domain_id}
        if self._clock is None:
            self._clock = orb.clock
        return domain_id

    def disconnect(self, domain_id: str) -> None:
        """Remove a domain (its process died); links and their stats
        survive so a replacement ORB reconnected under the same domain id
        — the restarted deployment — keeps the same wire."""
        orb = self._orbs.pop(domain_id, None)
        if orb is None:
            raise ConfigurationError(f"unknown domain {domain_id!r}")
        orb.federation = None
        self._lost_nodes.update(dict.fromkeys(orb._nodes, domain_id))

    def domains(self) -> Tuple[str, ...]:
        return tuple(sorted(self._orbs))

    def orb_for(self, domain_id: str) -> Orb:
        try:
            return self._orbs[domain_id]
        except KeyError:
            raise ConfigurationError(f"unknown domain {domain_id!r}") from None

    def domain_of_node(self, node_id: str) -> Optional[str]:
        """The domain owning ``node_id``, or None when no member has it.

        Node ids must be federation-unique — an :class:`ObjectRef`
        carries no domain id, so routing keys on the node name alone
        (``Orb.create_node`` refuses collisions for federated ORBs, and
        an ambiguity that slipped in anyway is refused here rather than
        silently routed to an arbitrary owner).
        """
        owners = [domain_id for domain_id, orb in self._orbs.items() if node_id in orb._nodes]
        if len(owners) > 1:
            raise ConfigurationError(
                f"node id {node_id!r} is owned by multiple domains"
                f" ({sorted(owners)}); federated node ids must be unique"
            )
        return owners[0] if owners else None

    def coordination_node(self, domain_id: str) -> Node:
        """Get-or-create the domain's well-known coordination node."""
        orb = self.orb_for(domain_id)
        node_id = coordination_node_id(domain_id)
        if node_id in orb._nodes:
            return orb.node(node_id)
        return orb.create_node(node_id)

    # -- links -----------------------------------------------------------------

    def link(self, domain_a: str, domain_b: str) -> DomainLink:
        """The (lazily created) link between two member domains."""
        if domain_a == domain_b:
            raise ConfigurationError("a domain does not link to itself")
        self.orb_for(domain_a)
        self.orb_for(domain_b)
        key = frozenset((domain_a, domain_b))
        existing = self._links.get(key)
        if existing is not None:
            return existing
        pair = tuple(sorted(key))
        transport = SimulatedTransport(
            self._clock, self._rng.fork(f"link:{pair[0]}:{pair[1]}")
        )
        created = DomainLink(pair[0], pair[1], transport)
        self._links[key] = created
        return created

    def links(self) -> List[DomainLink]:
        return [self._links[key] for key in sorted(self._links, key=sorted)]

    def set_link_latency(
        self, domain_a: str, domain_b: str, latency: float, jitter: float = 0.0
    ) -> None:
        plan = self.link(domain_a, domain_b).transport.fault_plan
        plan.latency = latency
        plan.jitter = jitter

    def partition(self, domain_a: str, domain_b: str) -> None:
        """Sever the link between two domains (both directions)."""
        link = self.link(domain_a, domain_b)
        link.transport.fault_plan.partition(link.endpoint(domain_a), link.endpoint(domain_b))

    def heal(self, domain_a: str, domain_b: str) -> None:
        link = self.link(domain_a, domain_b)
        link.transport.fault_plan.heal(link.endpoint(domain_a), link.endpoint(domain_b))

    def heal_all(self) -> None:
        for link in self._links.values():
            link.transport.fault_plan.heal_all()

    # -- link liveness (PR 8 membership layer) ---------------------------------

    def enable_failure_detection(
        self, config: Optional[FailureDetectorConfig] = None
    ) -> FailureDetector:
        """Turn on per-link liveness tracking (off by default — fault
        tests that *want* to block on partitions keep historical
        behaviour).  Every routed invocation feeds the detector: a
        delivered round heartbeats the link, a ``CommunicationError``
        counts against it.  A link marked DOWN fast-fails subsequent
        routes with a typed :class:`CommunicationError` instead of
        re-crossing a dead wire, except for one metered half-open probe
        per ``probe_interval``; the first probe that crosses re-admits
        the link.

        Because link heartbeats come only from routed traffic (there is
        no independent probe thread), the default config disables
        phi-silence latching: an idle-but-healthy link must not accrue
        phi into DOWN and spuriously fast-fail the next burst of
        requests.  Silence still reports SUSPECT; only explicit
        delivery failures (``failure_threshold``) quarantine a link.
        Pass an explicit config to override."""
        if self._clock is None:
            raise ConfigurationError(
                "connect an ORB (or pass a clock) before enabling failure"
                " detection"
            )
        if self._detector is None:
            if config is None:
                config = FailureDetectorConfig(phi_latches_down=False)
            self._detector = FailureDetector(self._clock, config)
        return self._detector

    @property
    def failure_detector(self) -> Optional[FailureDetector]:
        return self._detector

    def _link_key(self, domain_a: str, domain_b: str) -> str:
        pair = sorted((domain_a, domain_b))
        return f"link:{pair[0]}|{pair[1]}"

    def link_state(self, domain_a: str, domain_b: str) -> PeerState:
        if self._detector is None:
            return PeerState.ALIVE
        return self._detector.state(self._link_key(domain_a, domain_b))

    def link_states(self) -> Dict[str, str]:
        if self._detector is None:
            return {}
        return {peer: state.value for peer, state in self._detector.peers().items()}

    # -- traffic accounting ------------------------------------------------------

    def cross_domain_requests(self) -> int:
        """Total inter-domain requests carried, across every link."""
        return sum(link.stats.requests_sent for link in self._links.values())

    def cross_domain_bytes(self) -> int:
        """Bytes carried across every link (requests and replies)."""
        return sum(link.stats.bytes_sent for link in self._links.values())

    def reset_link_stats(self) -> None:
        for link in self._links.values():
            link.transport.stats.reset()

    # -- routing -------------------------------------------------------------------

    def route(
        self, source_orb: Orb, source_node: str, ref: ObjectRef, request_bytes: bytes
    ) -> bytes:
        """Carry one already-marshalled request into the owning domain.

        Called by :meth:`Orb.invoke` when ``ref.node_id`` is not local.
        The request crosses the source domain's transport (caller →
        gateway), the link transport (the measured inter-domain hop) and
        the target domain's transport (gateway → servant node); the
        reply retraces the same path.  Fault plans on all three apply.
        """
        source_domain = source_orb.domain_id
        if source_domain is None or source_domain not in self._orbs:
            raise ConfigurationError(f"orb {source_domain!r} is not connected to this federation")
        target_domain = self.domain_of_node(ref.node_id)
        if target_domain is None:
            lost_domain = self._lost_nodes.get(ref.node_id)
            if lost_domain is None:
                raise ObjectNotExist(f"node {ref.node_id!r} is not owned by any federated domain")
            # A domain the bridge knew and lost is an unreachable peer,
            # not a missing object: the caller retries later, and the
            # failure counts against the link like any dead wire.
            if self._detector is not None:
                self._detector.failure(self._link_key(source_domain, lost_domain))
            raise CommunicationError(
                f"domain {lost_domain!r} (node {ref.node_id!r}) is disconnected"
            )
        if target_domain == source_domain:
            # The node appeared locally after the ref was minted; deliver
            # in-domain as a plain invocation would have.
            return source_orb.transport.deliver(
                source_node,
                ref.node_id,
                request_bytes,
                lambda payload: source_orb._dispatch(ref.node_id, payload),
            )
        target_orb = self.orb_for(target_domain)
        link = self.link(source_domain, target_domain)
        detector = self._detector
        link_key = self._link_key(source_domain, target_domain)
        if detector is not None:
            detector.watch(link_key)
            if detector.is_down(link_key) and not detector.should_probe(link_key):
                # Quarantined route: a typed fast-fail instead of
                # blocking through a dead wire's faults again.  The
                # metered half-open probe (one per probe_interval) is
                # the only traffic allowed to re-test the link.
                raise CommunicationError(
                    f"link {source_domain}<->{target_domain} is DOWN"
                    f" (failure detector); failing fast"
                )

        def across_link(payload: bytes) -> bytes:
            return link.transport.deliver(
                link.endpoint(source_domain),
                link.endpoint(target_domain),
                payload,
                into_target,
            )

        def into_target(payload: bytes) -> bytes:
            return target_orb.transport.deliver(
                coordination_node_id(source_domain),
                ref.node_id,
                payload,
                lambda final: target_orb._dispatch(ref.node_id, final),
            )

        try:
            reply = source_orb.transport.deliver(
                source_node,
                coordination_node_id(target_domain),
                request_bytes,
                across_link,
            )
        except CommunicationError:
            if detector is not None:
                detector.failure(link_key)
            raise
        if detector is not None:
            detector.heartbeat(link_key)
        return reply

    def describe(self) -> Dict[str, Any]:
        return {
            "domains": list(self.domains()),
            "links": [link.describe() for link in self.links()],
            "link_states": self.link_states(),
        }
