"""Site daemons: one ORB per OS process, federated over real sockets.

The in-process deployment model — many ORBs, one interpreter, an
:class:`~repro.orb.federation.InterOrbBridge` carrying bytes between
them — is exact but simulated.  This module is the *deployment* half of
the same design: a **site** is one process hosting one
:class:`~repro.orb.core.Orb`, the :class:`~repro.domain.Domain` a
chaos-world domain runs too, and a
:class:`~repro.orb.socket_transport.SocketTransport` listener.
Sites know each other from a static site list (``SiteConfig.peers``) and
speak the transport's framed protocol; federation and OTS coordinator
interposition run **unchanged** on top, because :class:`SiteFederation`
duck-types the bridge surface the interposition layer consumes
(``coordination_node`` / ``domain_of_node`` / ``route``).

Key identification decision: **site id == coordination domain id**.  A
node created on a site's ORB belongs to that site's domain; the
well-known coordination node is ``fed:<site>``; a subordinate's durable
recovery key (``fedsub-tx:<site>:<tid>``) therefore names the process to
replay into after any crash, with no extra mapping table.

Crash story (the paper's §fault-tolerance, now with real SIGKILL):

- every commit decision and every interposed-subordinate prepare is in
  the site's WAL, which lives in a
  :class:`~repro.persistence.object_store.SegmentedFileStore` under
  ``data_dir`` whenever a data directory is configured — regardless of
  how application cell state is stored;
- the serve loop runs the domain's housekeeping round every
  ``poll_interval``.  Its first rounds replay that WAL before ``ping``
  reports ready, retrying until every cross-site replay lands (a peer
  being down makes recovery *wait*, not fail);
- later rounds also poll ``resolve_in_doubt()``, so a subordinate left
  prepared by a superior that crashed *before logging its decision*
  learns the (presumed-abort) outcome from the superior's durable
  recovery servant instead of holding locks forever.
"""

from __future__ import annotations

import base64
import dataclasses
import importlib
import json
import os
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.config import ConfigValidationError, OrbConfig, ReplicationConfig
from repro.domain import Domain
from repro.exceptions import CommunicationError, ConfigurationError
from repro.orb.core import Node, Orb
from repro.orb.marshal import Marshaller
from repro.orb.membership import FailureDetector, FailureDetectorConfig, PeerState
from repro.orb.reference import ObjectRef
from repro.orb.socket_transport import SocketTransport
from repro.persistence.object_store import (
    MemoryStore,
    ObjectStore,
    SegmentedFileStore,
    StoreError,
)
from repro.persistence.replicated import (
    ReplicatedStore,
    ReplicatedWAL,
    ReplicaMedium,
    ReplicationError,
)
from repro.persistence.sqlite_store import SqliteStore
from repro.persistence.wal import WriteAheadLog
from repro.util.clock import WallClock
from repro.util.retry import RetryPolicy

_FED_PREFIX = "fed:"


@dataclass(frozen=True)
class SiteConfig:
    """Everything one site daemon needs, JSON-serialisable.

    ``site_id``
        This process's site *and* coordination-domain name.
    ``host`` / ``port``
        Listener address (port 0 asks the OS for a free port — useful
        for in-test runtimes, not for daemons that peers must find).
    ``peers``
        The static site list: ``{site_id: (host, port)}`` for every
        *other* site.  All sites ship the same list; each ignores its
        own entry.
    ``data_dir``
        Durable root.  The WAL always lives here
        (``<data_dir>/wal``, segmented store) when set; ``None`` keeps
        everything in memory (no crash recovery — tests only).
    ``cell_store``
        Backing for application :class:`TransactionalCell` state:
        ``"segmented"`` (``<data_dir>/cells``) or ``"memory"``.
    ``app``
        Optional ``"module:function"`` setup hook, called with the
        :class:`SiteRuntime` after the runtime is wired but before
        recovery, so it can create nodes, servants and cells (recovery
        needs the cells registered to replay into them).
    ``poll_interval``
        Seconds between serve-loop rounds (heartbeat probes and the
        domain's housekeeping round).  While a round keeps recording
        an error the wait backs off under ``retry`` instead of
        hammering a dead superior at a fixed cadence.
    ``heartbeat``
        Failure-detection knobs folded into
        :class:`~repro.orb.membership.FailureDetectorConfig`
        (``heartbeat_interval`` defaults to ``poll_interval``); set
        ``{"enabled": false}`` to run with the pre-PR-8 static-peers
        behaviour (no liveness, no quarantine).
    ``retry``
        Knobs folded into :class:`~repro.util.retry.RetryPolicy` for
        the transport's reconnect backoff and the serve loop's
        backoff.
    ``orphan_min_age``
        Seconds an adopted subordinate may sit unprepared with no word
        from its superior before the serve loop unilaterally rolls it
        back (presumed abort makes that safe at any age; the grace
        period just keeps slow-but-live transactions out of the sweep).
        Orphans happen when the superior dies — or is quarantined —
        between adopting a subordinate and driving its completion; the
        subordinate holds locks forever unless someone sweeps it.
    ``replication``
        Replica declarations folded into
        :class:`~repro.config.ReplicationConfig` (e.g.
        ``{"replicas": 3, "write_quorum": 2, "backend": "segmented"}``).
        With ``replicas > 1`` the site's WAL and cell store become a
        :class:`~repro.persistence.replicated.ReplicatedWAL` /
        :class:`~repro.persistence.replicated.ReplicatedStore` over
        per-replica media under ``<data_dir>/replica-<i>/`` — quorum
        acks, degraded serving and deterministic promotion, superseding
        the ``cell_store`` backend choice.  Empty (the default) keeps
        the single-copy layout.
    ``max_events``
        Ring-buffer bound (4096; ``None`` for none) on what a reader
        attached to the daemon's event log retains; unread, it keeps none.
    """

    site_id: str
    host: str = "127.0.0.1"
    port: int = 0
    peers: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    data_dir: Optional[str] = None
    cell_store: str = "memory"
    app: Optional[str] = None
    poll_interval: float = 0.2
    heartbeat: Dict[str, Any] = field(default_factory=dict)
    retry: Dict[str, Any] = field(default_factory=dict)
    orphan_min_age: float = 5.0
    replication: Dict[str, Any] = field(default_factory=dict)
    max_events: Optional[int] = 4096

    def __post_init__(self) -> None:
        if not self.site_id:
            raise ConfigValidationError("SiteConfig: site_id must be non-empty")
        if self.cell_store not in ("memory", "segmented"):
            raise ConfigValidationError(
                f"SiteConfig: cell_store must be 'memory' or 'segmented',"
                f" got {self.cell_store!r}"
            )
        if self.cell_store == "segmented" and self.data_dir is None:
            raise ConfigValidationError(
                "SiteConfig: cell_store='segmented' requires data_dir"
            )
        if self.poll_interval <= 0:
            raise ConfigValidationError(
                f"SiteConfig: poll_interval must be > 0, got {self.poll_interval!r}"
            )
        if self.orphan_min_age <= 0:
            raise ConfigValidationError(
                f"SiteConfig: orphan_min_age must be > 0,"
                f" got {self.orphan_min_age!r}"
            )
        if self.max_events is not None and (
            not isinstance(self.max_events, int) or self.max_events < 1
        ):
            raise ConfigValidationError(
                f"SiteConfig: max_events must be None or >= 1,"
                f" got {self.max_events!r}"
            )
        # Fail at config time, not at boot: all dict blocks must fold cleanly.
        self.detector_config()
        self.retry_policy()
        replication = self.replication_config()
        if (
            replication is not None
            and replication.backend != "memory"
            and self.data_dir is None
        ):
            raise ConfigValidationError(
                "SiteConfig: replication with a durable backend requires data_dir"
            )

    def heartbeat_enabled(self) -> bool:
        return bool(self.heartbeat.get("enabled", True))

    def detector_config(self) -> FailureDetectorConfig:
        kwargs = {k: v for k, v in self.heartbeat.items() if k != "enabled"}
        kwargs.setdefault("heartbeat_interval", self.poll_interval)
        try:
            return FailureDetectorConfig(**kwargs)
        except (TypeError, ConfigurationError) as exc:
            raise ConfigValidationError(f"SiteConfig: bad heartbeat block: {exc}")

    def retry_policy(self) -> RetryPolicy:
        try:
            return RetryPolicy(**self.retry)
        except (TypeError, ConfigurationError) as exc:
            raise ConfigValidationError(f"SiteConfig: bad retry block: {exc}")

    def replication_config(self) -> Optional[ReplicationConfig]:
        """The folded replication block, ``None`` when replication is off
        (no block, or a single-copy declaration)."""
        if not self.replication:
            return None
        try:
            folded = ReplicationConfig(**self.replication)
        except (TypeError, ConfigurationError) as exc:
            raise ConfigValidationError(f"SiteConfig: bad replication block: {exc}")
        return folded if folded.replicas > 1 else None

    def to_dict(self) -> Dict[str, Any]:
        raw = dataclasses.asdict(self)
        raw["peers"] = {site: list(addr) for site, addr in self.peers.items()}
        return raw

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "SiteConfig":
        unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigValidationError(
                f"SiteConfig: unknown key(s) {', '.join(map(repr, unknown))}"
            )
        data = dict(raw)
        peers = {
            site: (addr[0], int(addr[1]))
            for site, addr in dict(data.pop("peers", {})).items()
        }
        return cls(peers=peers, **data)

    @classmethod
    def from_file(cls, path: str) -> "SiteConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class SiteFederation:
    """The bridge surface, backed by a socket transport.

    Where :class:`~repro.orb.federation.InterOrbBridge` holds every
    domain's ORB in one process, a site federation holds exactly *one*
    (its own) and reaches the rest over the wire.  Consequently
    ``coordination_node`` is local-only — a site never manipulates
    another site's objects directly, it *invokes* them — and node
    location is answered locally when possible, otherwise by ``locate``
    control probes against the site list (positive answers cached on the
    transport's node-home map).
    """

    def __init__(self, transport: SocketTransport, orb: Orb) -> None:
        self.transport = transport
        self.orb = orb
        self.site_id = transport.site_id
        orb.domain_id = self.site_id
        orb.federation = self

    # -- local-only coordination node ----------------------------------------

    def coordination_node(self, domain_id: str) -> Node:
        if domain_id != self.site_id:
            raise ConfigurationError(
                f"site {self.site_id} cannot host coordination node for"
                f" foreign domain {domain_id!r}"
            )
        node_id = _FED_PREFIX + domain_id
        if self.orb.has_node(node_id):
            return self.orb.node(node_id)
        return self.orb.create_node(node_id)

    # -- node location ------------------------------------------------------

    def domain_of_node(self, node_id: str) -> Optional[str]:
        """Which site serves ``node_id`` (``None`` when nobody answers).

        Resolution order: this ORB's own nodes, the ``fed:<site>``
        naming convention, the cached node-home map, then one fail-fast
        ``locate`` probe per listed peer.  Unreachable peers are treated
        as "don't know" — a boot-time collision check must not wedge on
        a site that happens to be down — and only positive answers are
        cached.
        """
        if self.orb.has_node(node_id):
            return self.site_id
        if node_id.startswith(_FED_PREFIX):
            return node_id[len(_FED_PREFIX):]
        cached = self.transport.node_home(node_id)
        if cached is not None:
            return cached
        for peer_id in self.transport.peers():
            try:
                reply = self.transport.control(
                    peer_id, {"op": "locate", "node": node_id}, attempts=1
                )
            except CommunicationError:
                continue
            if reply.get("domain") is not None:
                self.transport.register_remote_node(node_id, peer_id)
                return reply["domain"]
        return None

    # -- routing -------------------------------------------------------------

    def route(
        self, source_orb: Orb, source_node: str, ref: ObjectRef, request_bytes: bytes
    ) -> bytes:
        """Carry one marshalled request to the site serving ``ref``."""
        domain = self.domain_of_node(ref.node_id)
        if domain is None or domain == self.site_id:
            raise CommunicationError(
                f"site {self.site_id} cannot locate node {ref.node_id!r}"
                f" among peers {list(self.transport.peers())}"
            )
        return self.transport.request(domain, source_node, ref.node_id, request_bytes)

    def describe(self) -> Dict[str, Any]:
        return {
            "site": self.site_id,
            "transport": self.transport.describe(),
        }


class SiteRuntime(Domain):
    """One site: a :class:`~repro.domain.Domain` behind a socket
    transport, with heartbeats, control ops and a serve loop.

    Construction wires everything and runs the app hook; :meth:`serve`
    (or :meth:`serve_in_background` for tests/clients embedding a site)
    starts the listener and the housekeeping loop.  The runtime is also
    the surface the app hook programs against: :attr:`orb`,
    :attr:`factory`, :attr:`current`, :meth:`cell`.
    """

    def __init__(self, config: SiteConfig) -> None:
        self.config = config
        self.clock = WallClock()
        self.transport = SocketTransport(
            config.site_id,
            bind=(config.host, config.port),
            retry_policy=config.retry_policy(),
        )
        # Membership: a phi failure detector fed by serve-loop heartbeat
        # probes.  DOWN quarantines the peer on the transport (fast-fail
        # typed errors instead of reconnect-backoff blocking); the first
        # successful half-open probe re-admits it.  Only a peer that has
        # answered once is quarantined: one that has not started
        # listening yet goes DOWN at boot, and requests to it must reach
        # it as soon as it is up, not after the next half-open probe.
        self._answered: Set[str] = set()
        self.failure_detector: Optional[FailureDetector] = (
            FailureDetector(
                self.clock,
                config.detector_config(),
                on_transition=self._on_peer_transition,
            )
            if config.heartbeat_enabled()
            else None
        )
        self.orb = Orb(
            clock=self.clock,
            transport=self.transport,
            config=OrbConfig(domain_id=config.site_id),
        )
        self.federation = SiteFederation(self.transport, self.orb)
        for peer_id, address in config.peers.items():
            if peer_id != config.site_id:
                self.transport.connect_peer(peer_id, address)
                if self.failure_detector is not None:
                    self.failure_detector.watch(peer_id)

        # The WAL is durable whenever the site has a data_dir at all:
        # commit decisions and subtx-prepared records must survive
        # SIGKILL even when application state is parameterised to memory
        # (the cells are then rebuilt by the app hook and recovered from
        # the WAL's replay, mirroring the in-process crash tests).
        # A replication block supersedes the single-copy layout: the WAL
        # and cell store become quorum-replicated over per-replica media
        # under <data_dir>/replica-<i>/, so losing one of those "disks"
        # degrades this domain instead of erasing it.
        replication = self.replication = config.replication_config()
        self.wal_media: List[ReplicaMedium] = []
        self.cell_media: List[ReplicaMedium] = []
        if config.data_dir is not None:
            os.makedirs(config.data_dir, exist_ok=True)
        if replication is not None:
            self.wal_media = self._replica_media(replication, "wal")
            self.cell_media = self._replica_media(replication, "cells")
            wal: WriteAheadLog = ReplicatedWAL(
                self.wal_media,
                window=0.0,
                write_quorum=replication.effective_quorum(),
                clock=self.clock,
            )
            cell_store: ObjectStore = ReplicatedStore(
                self.cell_media,
                write_quorum=replication.effective_quorum(),
                clock=self.clock,
                journal_limit=replication.journal_limit,
            )
        else:
            if config.data_dir is not None:
                wal_store: ObjectStore = SegmentedFileStore(
                    os.path.join(config.data_dir, "wal")
                )
            else:
                wal_store = MemoryStore()
            wal = WriteAheadLog(store=wal_store)
            if config.cell_store == "segmented":
                cell_store = SegmentedFileStore(
                    os.path.join(str(config.data_dir), "cells")
                )
            else:
                cell_store = MemoryStore()

        # Root tids key adoption maps and durable records on *other*
        # sites, so they must be unique across the fabric and across
        # this site's own restarts (a rebooted factory restarts its
        # counter): prefix with site id + per-boot nonce.
        tid_prefix = f"{config.site_id}.{uuid.uuid4().hex[:8]}:"
        self.boot(self.orb, wal, cell_store, tid_prefix=tid_prefix, max_events=config.max_events)
        self.transport.set_request_handler(self.orb.dispatch_request)
        self.transport.set_control_handler(self._control)

        self._stop = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None
        # Follower replicas this daemon hosts *for other domains*, keyed
        # by store name and served over the "replica" control op.
        self._hosted_replicas: Dict[str, ObjectStore] = {}

        if config.app:
            _resolve_app(config.app)(self)

    # -- replica media ---------------------------------------------------------

    def _replica_backend(
        self, backend: str, kind: str, index: int
    ) -> ObjectStore:
        if backend == "memory":
            return MemoryStore()
        root = os.path.join(str(self.config.data_dir), f"replica-{index}")
        if backend == "sqlite":
            return SqliteStore(os.path.join(root, f"{kind}.db"))
        return SegmentedFileStore(os.path.join(root, kind))

    def _replica_media(
        self, replication: ReplicationConfig, kind: str
    ) -> List[ReplicaMedium]:
        return [
            ReplicaMedium(
                f"{self.config.site_id}-{kind}-{index}",
                self._replica_backend(replication.backend, kind, index),
            )
            for index in range(replication.replicas)
        ]

    # -- control plane --------------------------------------------------------

    def _control(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "site": self.config.site_id, "recovered": self.recovered}
        if op == "locate":
            # Local-only answer: am *I* serving this node?  (The caller
            # sweeps the site list itself; answering from cached foreign
            # knowledge here could bounce stale locations around.)
            node_id = str(request.get("node"))
            domain: Optional[str] = None
            if self.orb.has_node(node_id):
                domain = self.config.site_id
            elif node_id == _FED_PREFIX + self.config.site_id:
                domain = self.config.site_id
            return {"site": self.config.site_id, "domain": domain}
        if op == "arm_kill":
            # The armed fail-point fires SIGKILL via Failpoints.on_fire
            # (installed by the daemon entry point): a *real* crash at
            # the exact protocol point the in-process tests simulate.
            self.factory.failpoints.arm(str(request.get("point")))
            return {"ok": True, "armed": self.factory.failpoints.armed()}
        if op == "disarm":
            # Chaos quiesce: clear any armed-but-unfired kill point so
            # the post-campaign audit doesn't trip it.
            self.factory.failpoints.clear()
            return {"ok": True}
        if op == "resolve":
            return {"outcomes": self.service.resolve_in_doubt()}
        if op == "replica":
            return self._replica_control(request)
        if op == "debug_dump":
            return self.debug_dump()
        if op == "membership":
            return self.membership()
        if op == "status":
            stats = self.transport.stats
            return {
                "site": self.config.site_id,
                "recovered": self.recovered,
                "recovery_error": self.recovery_error,
                "nodes": sorted(n.node_id for n in self.orb.nodes()),
                "stats": {
                    "requests_sent": stats.requests_sent,
                    "replies_sent": stats.replies_sent,
                    "requests_dropped": stats.requests_dropped,
                    "bytes_sent": stats.bytes_sent,
                },
            }
        if op == "shutdown":
            self._stop.set()
            return {"ok": True}
        raise ConfigurationError(f"unknown control op {op!r}")

    # -- hosted follower replicas ---------------------------------------------

    def _hosted_replica(self, name: str) -> ObjectStore:
        """Get-or-create a follower replica store this daemon hosts for
        a remote domain (durable under ``<data_dir>/hosted/<name>``)."""
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
        store = self._hosted_replicas.get(safe)
        if store is None:
            if self.config.data_dir is not None:
                store = SegmentedFileStore(
                    os.path.join(str(self.config.data_dir), "hosted", safe)
                )
            else:
                store = MemoryStore()
            self._hosted_replicas[safe] = store
        return store

    def _replica_control(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one hosted-replica operation.

        Values travel as base64-encoded marshalled bytes (the control
        plane is JSON) and are stored verbatim: the hosting daemon never
        decodes a foreign domain's state, it just keeps the bytes
        durable — see :class:`RemoteReplicaStore` for the client side.
        """
        store = self._hosted_replica(str(request.get("store", "replica")))
        action = request.get("action")
        if action == "put_many":
            items = dict(request.get("items", {}))
            store.put_many({str(uid): str(value) for uid, value in items.items()})
            return {"ok": True, "count": len(items)}
        if action == "get":
            uid = str(request.get("uid"))
            if not store.contains(uid):
                return {"missing": True}
            return {"value": store.get(uid)}
        if action == "remove":
            uid = str(request.get("uid"))
            if not store.contains(uid):
                return {"missing": True}
            store.remove(uid)
            return {"ok": True}
        if action == "contains":
            return {"contains": store.contains(str(request.get("uid")))}
        if action == "keys":
            return {"keys": list(store.keys())}
        raise ConfigurationError(f"unknown replica action {action!r}")

    # -- membership ----------------------------------------------------------

    def _on_peer_transition(self, peer_id: str, old: PeerState, new: PeerState) -> None:
        if new is PeerState.DOWN and peer_id in self._answered:
            self.transport.quarantine(peer_id, "failure detector marked DOWN")
        elif old is PeerState.DOWN:
            self.transport.readmit(peer_id)
        self.factory.event_log.record(
            "peer_transition", peer=peer_id, old=old.value, new=new.value
        )

    def _heartbeat_round(self) -> None:
        """Probe every peer once (DOWN peers only when their half-open
        probe is due) and feed the outcomes to the failure detector."""
        detector = self.failure_detector
        if detector is None:
            return
        for peer_id in self.transport.peers():
            if not detector.should_probe(peer_id):
                continue
            try:
                self.transport.control(
                    peer_id, {"op": "ping"}, attempts=1, probe=True
                )
            except CommunicationError:
                detector.failure(peer_id)
            else:
                self._answered.add(peer_id)
                detector.heartbeat(peer_id)

    def membership(self) -> Dict[str, Any]:
        if self.failure_detector is None:
            return {"enabled": False, "peers": {}}
        return {"enabled": True, "peers": self.failure_detector.describe()}

    # -- replication health ---------------------------------------------------

    def replication_health(self) -> Dict[str, Any]:
        """Per-replica lag, quorum status and under-replication age for
        both replicated layers — the surface the multiprocess chaos
        auditor gates convergence on."""
        if self.replication is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "replicas": self.replication.replicas,
            "write_quorum": self.replication.effective_quorum(),
            "backend": self.replication.backend,
            "wal": self.wal.health(),
            "cells": self.cell_store.health(),
        }

    # -- triage ---------------------------------------------------------------

    def debug_dump(self) -> Dict[str, Any]:
        """Everything chaos-run triage needs, without a debugger:
        membership/quarantine state and how long each in-doubt
        subordinate has been waiting on its superior."""
        stats = self.transport.stats
        return {
            "site": self.config.site_id,
            "recovered": self.recovered,
            "recovery_error": self.recovery_error,
            "membership": self.membership(),
            "replication": self.replication_health(),
            "quarantined": self.transport.quarantined(),
            "in_doubt_ages": self.service.in_doubt_ages(),
            "active_transactions": sorted(
                tx.tid for tx in self.factory.active_transactions()
            ),
            "stats": {
                "requests_sent": stats.requests_sent,
                "replies_sent": stats.replies_sent,
                "requests_dropped": stats.requests_dropped,
                "reconnects": stats.reconnects,
                "quarantine_rejections": stats.quarantine_rejections,
                "bytes_sent": stats.bytes_sent,
            },
        }

    # -- serving ----------------------------------------------------------------

    def serve(self) -> None:
        """Run the site until :meth:`stop` (or a ``shutdown`` control op).

        Boot sequence: listen, then run a heartbeat round and the
        domain's housekeeping round every ``poll_interval``; the first
        rounds replay the WAL until recovery succeeds (readiness —
        ``ping`` answers ``recovered=False`` meanwhile).  A round that
        keeps recording an error backs off under the site's
        :class:`RetryPolicy` (capped, jittered) instead of re-hitting a
        dead superior at a fixed cadence.
        """
        self.transport.start()
        # The serve loop's backoff reuses the policy's shape but anchors
        # the schedule at poll_interval (its base_delay is tuned for
        # socket re-dials, far too short for WAL-replay retries).
        policy = self.config.retry_policy()
        backoff = RetryPolicy(
            max_attempts=policy.max_attempts,
            base_delay=self.config.poll_interval,
            multiplier=policy.multiplier,
            max_delay=max(policy.max_delay, self.config.poll_interval),
            jitter=policy.jitter,
        )
        consecutive_failures = 0
        while not self._stop.is_set():
            self._heartbeat_round()
            try:
                self.housekeeping_round(self.config.orphan_min_age)
            except Exception as exc:  # a bug must not stop the loop unrecorded
                self.recovery_error = f"{type(exc).__name__}: {exc}"
            if self.recovery_error is None:
                consecutive_failures = 0
                wait = self.config.poll_interval
            else:
                consecutive_failures = min(consecutive_failures + 1, 16)
                wait = max(
                    self.config.poll_interval, backoff.delay(consecutive_failures)
                )
            self._stop.wait(wait)
        self.transport.close()
        self.close_stores()

    def close_stores(self) -> None:
        """Checkpoint, force the log's unforced tail (completion records),
        then release the file handles this site's stores keep open (WAL,
        cells, replica media, hosted follower replicas).  Idempotent."""
        try:
            self.factory.checkpoint()
            self.wal.force()
        finally:
            for store in (
                self.wal.store,
                self.cell_store,
                *self.wal_media,
                *self.cell_media,
                *self._hosted_replicas.values(),
            ):
                store.close()

    def serve_in_background(self) -> None:
        self._serve_thread = threading.Thread(
            target=self.serve, name=f"site-{self.config.site_id}", daemon=True
        )
        self._serve_thread.start()

    def wait_recovered(self, timeout: float = 10.0) -> bool:
        deadline = self.clock.now() + timeout
        while self.clock.now() < deadline:
            if self.recovered:
                return True
            self._stop.wait(0.02)
        return self.recovered

    def stop(self) -> None:
        self._stop.set()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self.close_stores()


class RemoteReplicaStore(ObjectStore):
    """A follower replica hosted by a *peer* site daemon.

    Implements the :class:`ObjectStore` interface over the fabric's
    ``replica`` control op, so a :class:`ReplicatedStore` /
    :class:`ReplicatedWAL` can place copies of a domain's state on other
    machines — the deployment shape where losing a whole site (not just
    a disk) leaves a quorum elsewhere.  Values are marshalled locally
    and shipped as base64 (the control plane is JSON); the hosting
    daemon stores the bytes without ever decoding them.

    Transport failures surface as
    :class:`~repro.persistence.replicated.ReplicationError`, which the
    replication layer treats as medium failure (retry, mark DOWN, serve
    degraded) — while a missing key stays a plain ``StoreError`` with
    its usual authoritative meaning.
    """

    def __init__(
        self,
        transport: SocketTransport,
        host_site: str,
        store_name: str,
        registry: Optional[Any] = None,
    ) -> None:
        self.name = f"{host_site}/{store_name}"
        self._transport = transport
        self._host = host_site
        self._store = store_name
        self._marshaller = Marshaller(registry)

    def _call(self, action: str, **extra: Any) -> Dict[str, Any]:
        request = {"op": "replica", "action": action, "store": self._store}
        request.update(extra)
        try:
            return self._transport.control(self._host, request, attempts=1)
        except CommunicationError as exc:
            raise ReplicationError(
                f"replica host {self._host!r} unreachable: {exc}"
            ) from exc

    def _encode(self, state: Any) -> str:
        return base64.b64encode(self._marshaller.encode(state)).decode("ascii")

    def _decode(self, value: str) -> Any:
        return self._marshaller.decode(base64.b64decode(value))

    def put(self, uid: str, state: Any) -> None:
        self.put_many([(uid, state)])

    def put_many(self, items: Any) -> None:
        batch = dict(items)
        if not batch:
            return
        encoded = {uid: self._encode(state) for uid, state in batch.items()}
        self._call("put_many", items=encoded)

    def get(self, uid: str) -> Any:
        reply = self._call("get", uid=uid)
        if reply.get("missing"):
            raise StoreError(f"no state stored under {uid!r}")
        return self._decode(reply["value"])

    def remove(self, uid: str) -> None:
        reply = self._call("remove", uid=uid)
        if reply.get("missing"):
            raise StoreError(f"no state stored under {uid!r}")

    def contains(self, uid: str) -> bool:
        return bool(self._call("contains", uid=uid)["contains"])

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._call("keys")["keys"])


class SiteClient:
    """A client-only endpoint on the site fabric (dials, never listens).

    Gives tests, benchmarks and tools a bound :class:`ObjectRef` surface
    over the socket transport without hosting any nodes: invocations on
    refs route through a :class:`SiteFederation` exactly as inter-site
    calls do.
    """

    def __init__(
        self,
        peers: Dict[str, Tuple[str, int]],
        client_id: str = "client",
    ) -> None:
        self.transport = SocketTransport(client_id, bind=None)
        self.orb = Orb(
            clock=WallClock(),
            transport=self.transport,
            config=OrbConfig(domain_id=client_id),
        )
        self.federation = SiteFederation(self.transport, self.orb)
        for peer_id, address in peers.items():
            self.transport.connect_peer(peer_id, address)
        self.transport.start()

    def ref(self, node_id: str, object_id: str, interface: str = "Object") -> ObjectRef:
        return ObjectRef(node_id, object_id, interface).bind(self.orb)

    def control(
        self, site_id: str, operation: Dict[str, Any], attempts: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.transport.control(site_id, operation, attempts=attempts)

    def wait_ready(
        self, site_id: str, timeout: float = 15.0, require_recovered: bool = True
    ) -> Dict[str, Any]:
        """Poll ``ping`` until the site answers (and has recovered)."""
        deadline = self.orb.clock.now() + timeout
        last: Optional[Dict[str, Any]] = None
        while self.orb.clock.now() < deadline:
            try:
                last = self.control(site_id, {"op": "ping"}, attempts=1)
            except CommunicationError:
                last = None
            else:
                if not require_recovered or last.get("recovered"):
                    return last
            threading.Event().wait(0.05)
        raise CommunicationError(
            f"site {site_id} not ready within {timeout}s (last ping: {last})"
        )

    def close(self) -> None:
        self.transport.close()


def _resolve_app(spec: str) -> Any:
    """``"module:function"`` → the callable (a :class:`SiteRuntime` hook)."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ConfigurationError(
            f"app spec {spec!r} must look like 'package.module:function'"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ConfigurationError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from None
