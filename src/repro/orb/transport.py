"""The transport seam: how request/reply payloads move between nodes.

:class:`Transport` is the abstract seam every ORB invocation crosses: it
carries a request to a target node and returns the reply: marshalled
bytes, or for a target collocated in the calling ORB the request values
themselves (the ORB copies them per delivery; see :mod:`repro.orb.core`).
Two implementations exist:

- :class:`SimulatedTransport` (this module) — the in-process default.
  A :class:`FaultPlan` makes the network misbehave deterministically
  (seeded): messages may be dropped (raising ``CommunicationError``), may
  be *duplicated* (the servant executes twice — this is what motivates the
  spec's at-least-once / idempotent-Action requirement, §3.4 of the
  paper), and every hop may add latency drawn from a configurable model.
- :class:`~repro.orb.socket_transport.SocketTransport` — real TCP between
  OS processes (length-prefixed frames, per-peer connections, reconnect
  with backoff), used by the site daemon (:mod:`repro.orb.site`).

All statistics (messages, bytes, drops, duplicates, simulated latency) are
collected in :class:`TransportStats` for the benchmarks; both transports
fill the same counters so figures compare like with like.  Only byte
payloads add to ``bytes_sent``: a collocated call sends no bytes.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, FrozenSet, Optional, Set, Tuple

from repro.exceptions import CommunicationError
from repro.orb.marshal import MarshalStats
from repro.util.clock import Clock
from repro.util.rng import SeededRng


@dataclass
class FaultPlan:
    """Deterministic misbehaviour description for a transport.

    drop_probability
        Chance an individual message (request or reply) is lost.
    duplicate_probability
        Chance a *delivered* request is re-executed once more by the target
        (at-least-once delivery visible to the servant).
    latency
        Fixed seconds added per hop.
    jitter
        Extra uniform-random seconds in ``[0, jitter]`` per hop.
    partitioned
        Pairs of node ids that currently cannot talk (both directions).
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    latency: float = 0.0
    jitter: float = 0.0
    partitioned: Set[FrozenSet[str]] = field(default_factory=set)

    def partition(self, node_a: str, node_b: str) -> None:
        self.partitioned.add(frozenset((node_a, node_b)))

    def heal(self, node_a: str, node_b: str) -> None:
        self.partitioned.discard(frozenset((node_a, node_b)))

    def heal_all(self) -> None:
        self.partitioned.clear()

    def is_partitioned(self, node_a: str, node_b: str) -> bool:
        return frozenset((node_a, node_b)) in self.partitioned


class TransportStats:
    """Counters accumulated across the life of a transport.

    ``marshal`` is the invocation-fast-path block (encode cache
    hits/misses, bytes encoded vs reused, context snapshot hits): the
    owning ORB shares it with its marshaller, so one stats object tells
    the whole per-message cost story for the benchmarks.  A collocated
    call counts as a request and a reply but adds no bytes and does no
    marshal work: byte and cache counts describe the hops that encode.

    Slotted (PR 7): the counters are bumped on every deliver, and slot
    stores/loads are cheaper than instance-dict probes on that path.
    """

    __slots__ = (
        "requests_sent",
        "replies_sent",
        "requests_dropped",
        "replies_dropped",
        "duplicates_delivered",
        "duplicate_dispatch_failures",
        "bytes_sent",
        "simulated_latency_total",
        "reconnects",
        "quarantine_rejections",
        "marshal",
    )

    def __init__(self) -> None:
        self.marshal = MarshalStats()
        self.reset()

    def reset(self) -> None:
        self.requests_sent = 0
        self.replies_sent = 0
        self.requests_dropped = 0
        self.replies_dropped = 0
        self.duplicates_delivered = 0
        self.duplicate_dispatch_failures = 0
        self.bytes_sent = 0
        self.simulated_latency_total = 0.0
        self.reconnects = 0
        self.quarantine_rejections = 0
        self.marshal.reset()


class Transport(abc.ABC):
    """Abstract seam between the ORB's invocation path and the wire.

    Lifecycle contract (all implementations):

    ``start()``
        Bring up any background machinery (listener sockets, accept
        threads).  Idempotent.  The in-process transport needs none, so
        the default is a no-op; callers may rely on being able to call it
        unconditionally.
    ``connect_peer(peer_id, address)``
        Pre-register where a remote peer lives.  Transports that resolve
        targets implicitly (everything in one process) ignore it.
    ``deliver(source_node, target_node, request, dispatch)``
        Synchronous request/reply: carry ``request`` to the target and
        return the reply, raising ``CommunicationError`` on loss,
        partition, or an unreachable peer.  ``dispatch`` runs the
        server-side work when the target is served by this process.
        ``request`` is bytes, or the values of a collocated call (its
        target is in the calling ORB, so it never leaves the process);
        the reply has the same form.  Only bytes count in ``bytes_sent``,
        and a fault plan draws the same decisions for either form.
    ``close()``
        Release sockets/threads.  Idempotent; ``deliver`` after ``close``
        raises ``CommunicationError``.
    ``stats``
        A :class:`TransportStats` every implementation fills the same
        way, so benchmarks compare simulated and socket runs like for
        like.

    Capability flags let callers ask what a transport can do instead of
    reaching into implementation-only attributes:

    ``supports_fault_injection``
        Whether ``set_fault_plan``/``reliable`` exist and do anything.
    ``remote_capable``
        Whether targets may live in another OS process.
    """

    supports_fault_injection: ClassVar[bool] = False
    remote_capable: ClassVar[bool] = False

    stats: TransportStats

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bring up background machinery (no-op for in-process use)."""

    def close(self) -> None:
        """Release resources (no-op for in-process use)."""

    def connect_peer(self, peer_id: str, address: Tuple[str, int]) -> None:
        """Register the network address of ``peer_id`` (no-op in-process)."""

    # -- delivery ----------------------------------------------------------

    @abc.abstractmethod
    def deliver(
        self,
        source_node: str,
        target_node: str,
        request: Any,
        dispatch: Callable[[Any], Any],
    ) -> Any:
        """Carry one request to ``target_node`` and return the reply."""

    # -- introspection -----------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {"transport": type(self).__name__}


class SimulatedTransport(Transport):
    """In-process transport with deterministic fault injection.

    ``deliver`` is synchronous: it models a blocking two-way CORBA
    invocation.  The ``dispatch`` callable is supplied by the ORB and runs
    the server-side work for one request payload.
    """

    supports_fault_injection: ClassVar[bool] = True
    remote_capable: ClassVar[bool] = False

    def __init__(
        self,
        clock: Clock,
        rng: Optional[SeededRng] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.clock = clock
        self.rng = rng if rng is not None else SeededRng(0)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.stats = TransportStats()
        # Parallel broadcast executors may drive deliveries from worker
        # threads; the lock keeps the stats counters exact and the rng's
        # internal stream consistent.  Note: *which* delivery draws which
        # fault decision becomes schedule-dependent under concurrency —
        # seeded-trace determinism is only guaranteed for serial drivers.
        self._lock = threading.Lock()

    # -- latency -----------------------------------------------------------

    def _hop_delay(self) -> float:
        """Draw one hop's delay (callers hold the lock: rng draw)."""
        plan = self.fault_plan
        delay = plan.latency
        if plan.jitter > 0:
            delay += self.rng.uniform(0.0, plan.jitter)
        return delay

    def _advance(self, delay: float) -> None:
        """Sleep out ``delay``; never called holding the lock — a shared
        transport must not serialise concurrent hops on their latency."""
        if delay > 0:
            with self._lock:
                self.stats.simulated_latency_total += delay
            self.clock.sleep(delay)

    # -- delivery ----------------------------------------------------------

    def deliver(
        self,
        source_node: str,
        target_node: str,
        request: Any,
        dispatch: Callable[[Any], Any],
    ) -> Any:
        """Carry one request to ``target_node`` and return the reply.

        Raises :class:`CommunicationError` when the request or the reply is
        lost, or when a partition separates the endpoints.  A duplicated
        request executes the dispatch function again (the second reply is
        discarded), which is exactly how an at-least-once network looks to
        a servant.
        """
        plan = self.fault_plan
        if plan.is_partitioned(source_node, target_node):
            raise CommunicationError(
                f"network partition between {source_node} and {target_node}"
            )

        with self._lock:
            self.stats.requests_sent += 1
            self.stats.bytes_sent += len(request) if isinstance(request, bytes) else 0
            request_delay = self._hop_delay()
        self._advance(request_delay)
        with self._lock:
            request_dropped = self.rng.chance(plan.drop_probability)
            if request_dropped:
                self.stats.requests_dropped += 1
        if request_dropped:
            raise CommunicationError(
                f"request from {source_node} to {target_node} lost"
            )

        reply = dispatch(request)

        with self._lock:
            duplicated = self.rng.chance(plan.duplicate_probability)
            if duplicated:
                self.stats.duplicates_delivered += 1
        if duplicated:
            # The network re-delivered the request; the servant runs again.
            # The duplicate's reply is discarded by the runtime, so a
            # failure of the duplicate dispatch must not destroy the
            # original reply — the caller never learns of the duplicate.
            try:
                dispatch(request)
            except Exception:
                with self._lock:
                    self.stats.duplicate_dispatch_failures += 1

        with self._lock:
            self.stats.replies_sent += 1
            self.stats.bytes_sent += len(reply) if isinstance(reply, bytes) else 0
            reply_delay = self._hop_delay()
        self._advance(reply_delay)
        with self._lock:
            reply_dropped = self.rng.chance(plan.drop_probability)
            if reply_dropped:
                self.stats.replies_dropped += 1
        if reply_dropped:
            raise CommunicationError(
                f"reply from {target_node} to {source_node} lost"
            )
        return reply

    # -- configuration helpers ---------------------------------------------

    def set_fault_plan(self, plan: FaultPlan) -> None:
        self.fault_plan = plan

    def reliable(self) -> None:
        """Remove all injected faults (latency retained)."""
        self.fault_plan = FaultPlan(
            latency=self.fault_plan.latency, jitter=self.fault_plan.jitter
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "transport": type(self).__name__,
            "drop_probability": self.fault_plan.drop_probability,
            "duplicate_probability": self.fault_plan.duplicate_probability,
            "latency": self.fault_plan.latency,
            "jitter": self.fault_plan.jitter,
            "partitions": sorted(tuple(sorted(p)) for p in self.fault_plan.partitioned),
        }
