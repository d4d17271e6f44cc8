"""OTS coordinator interposition across ORB domains.

Intra-domain transaction propagation (:mod:`repro.ots.propagation`)
re-associates a request with its transaction through the shared factory
registry — "re-association replaces full OTS interposition".  Across an
:class:`~repro.orb.federation.InterOrbBridge` that shortcut does not
exist: the receiving domain's factory has never heard of the caller's
transaction.  This module supplies the real thing:

- the first transactional request entering a domain *adopts* the foreign
  transaction: a local **subordinate** transaction is created and an
  interposed :class:`SubordinateTransactionResource` registers **once**
  with the superior coordinator (via an exported
  :class:`ParentCoordinatorServant` reference riding the new
  ``CosTransactionsFederation`` service context);
- local resources enlist with the subordinate exactly as they would with
  any transaction, so a 2PC round from the superior costs one
  inter-domain ``prepare`` and one ``commit`` per *domain*, each fanned
  out locally with the domain's own ``parallel_participants``,
  marshal-once templates and ``group_commit_window``;
- the subordinate's prepared state is durably recorded in **its own
  domain's** write-ahead log (``subtx_prepared`` records), and
  :meth:`FederatedTransactionService.recover` re-adopts the interposition
  tree after a per-domain crash: held in-doubt state is protected from
  presumed abort, a :class:`RecoveredSubordinateResource` re-activates
  under the original object id, and the superior's completion replays
  downward through it;
- on the superior's side each registered subordinate also gets a
  recovery proxy in the parent domain's
  :class:`~repro.ots.recoverable.RecoverableRegistry`, so the parent's
  own crash recovery re-drives phase two across the bridge.

Everything is opt-in via :func:`install_federated_transaction_service`;
deployments without a bridge are untouched and their traces stay
byte-identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import (
    CommunicationError,
    ConfigurationError,
    ObjectNotExist,
    ReproError,
)
from repro.orb.core import Orb, Servant
from repro.orb.federation import coordination_node_id
from repro.orb.interceptors import (
    FEDERATED_TRANSACTION_CONTEXT_ID as _FEDERATED_CONTEXT_ID,
    ClientRequestInterceptor,
    RequestInfo,
    ServerRequestInterceptor,
)
from repro.orb.marshal import GLOBAL_REGISTRY
from repro.orb.reference import ObjectRef
from repro.ots.coordinator import Transaction
from repro.ots.current import TransactionCurrent
from repro.ots.exceptions import InvalidTransaction, TransactionRolledBack
from repro.ots.propagation import install_transaction_service
from repro.ots.recoverable import Recoverable, RecoverableRegistry
from repro.ots.recovery import SUBTX_PREPARED, RecoveryManager, RecoveryReport
from repro.ots.status import TransactionStatus, Vote
from repro.util.workers import ThreadAssociation

FEDERATED_TX_CONTEXT_ID = _FEDERATED_CONTEXT_ID
SERVICE_NAME = "ots_federation"
RECOVERY_SERVANT_ID = "fedrecovery"
# Retired root tids kept as tombstones so a straggler request for a
# resolved tree still declines adoption cheaply.  Bounded: a tombstone
# falling off the end degrades to a failed re-registration with the
# (terminal) superior — still a typed failure, never untransacted work.
RESOLVED_TOMBSTONE_LIMIT = 4096


def subordinate_resource_id(root_tid: str) -> str:
    """Object id of a domain's interposed resource for one root tid.

    Deterministic so a recovered subordinate re-activates where the
    superior's retained reference already points.
    """
    return f"fedres:{root_tid}"


def parent_export_id(tid: str) -> str:
    return f"fedtx:{tid}"


def subordinate_recovery_key(domain_id: str, root_tid: str) -> str:
    return f"fedsub-tx:{domain_id}:{root_tid}"


@GLOBAL_REGISTRY.register_dataclass
@dataclass(frozen=True)
class FederatedTransactionContext:
    """Service context a transactional request carries across a bridge."""

    tid: str
    root_domain: str
    coordinator_ref: ObjectRef


class ParentCoordinatorServant(Servant):
    """Wire facade of an exported (superior) transaction.

    Exposes exactly what a foreign subordinate needs: registration.  The
    raw :class:`~repro.ots.coordinator.Transaction` is never exported —
    its registration API returns live records that cannot cross the wire.
    """

    def __init__(self, service: "FederatedTransactionService", tx: Transaction) -> None:
        self._service = service
        self._tx = tx

    def register_subordinate(
        self, resource_ref: ObjectRef, recovery_key: str, domain_id: str
    ) -> bool:
        self._tx.register_resource(resource_ref, recovery_key=recovery_key)
        self._service.note_subordinate_proxy(recovery_key, resource_ref)
        self._service.factory.event_log.record(
            "fed_register_subordinate",
            tid=self._tx.tid,
            domain=domain_id,
            key=recovery_key,
        )
        return True

    def get_status(self) -> TransactionStatus:
        return self._tx.status


class FederationRecoveryServant(Servant):
    """Durable per-domain answerer for in-doubt status queries.

    A subordinate left holding prepared state polls this servant (at the
    well-known ``fed:<domain>/fedrecovery`` address) to learn the fate of
    a root transaction whose live export died with the superior's
    process.  Presumed abort done right: the answer comes from the
    superior's *durable* record, so "no live transaction and no logged
    commit decision" — and only that — means rolled back.
    """

    def __init__(self, service: "FederatedTransactionService") -> None:
        self._service = service

    def transaction_status(self, tid: str) -> TransactionStatus:
        try:
            return self._service.factory.get(tid).status
        except InvalidTransaction:
            pass
        if tid in self._service.factory.log_index().decided:
            return TransactionStatus.COMMITTED
        return TransactionStatus.ROLLED_BACK


class _SubordinateProxyRecoverable(Recoverable):
    """Parent-side recovery stand-in for one remote subordinate.

    Resolved through the parent domain's registry when the parent's
    recovery manager replays a logged commit decision: the replay is
    forwarded across the bridge to the (possibly itself recovered)
    subordinate resource.

    A replay may be a redelivery: the superior crashed with the
    completion record unforced, after the subordinate had finished the
    transaction and (across its own restart) retired the ``fedres:``
    servant.  A *live* domain answering ``ObjectNotExist`` for it holds
    nothing of the transaction any more — prepared state would have been
    re-exported under that id by its recovery — so that answer is the
    acknowledgement and nothing was applied.  A dead or partitioned
    domain raises a plain ``CommunicationError`` instead and the replay
    is retried.  (A subordinate asked in the instant between listening
    and finishing its own recovery is covered the other way round: it
    polls this domain's durable decision via ``resolve_in_doubt``.)
    """

    def __init__(self, key: str, resource_ref: ObjectRef) -> None:
        self.key = key
        self.resource_ref = resource_ref

    def _redeliver(self, operation: str, tid: str) -> bool:
        try:
            return bool(self.resource_ref.invoke(operation, tid))
        except ObjectNotExist:
            return False

    def recover_commit(self, tid: str) -> bool:
        return self._redeliver("recover_commit", tid)

    def recover_abort(self, tid: str) -> bool:
        return self._redeliver("recover_abort", tid)

    def list_in_doubt(self) -> List[str]:
        return []  # in-doubt state lives (durably) in the remote domain


class SubordinateTransactionResource(Servant):
    """The interposed per-domain participant, wrapping a live local tx.

    ``completion_lock`` serializes every protocol step that can change
    the transaction's fate — prepare, phase two, recovery replay, and
    the service's orphan sweep.  The sweep re-checks the status under
    this lock before rolling back, so a prepare that has already voted
    COMMIT to the superior can never be yanked back (that would let the
    superior commit a participant that aborted).
    """

    def __init__(
        self,
        service: "FederatedTransactionService",
        root_tid: str,
        tx: Transaction,
        root_domain: Optional[str] = None,
    ) -> None:
        self._service = service
        self.root_tid = root_tid
        self.root_domain = root_domain
        self.transaction = tx
        self._prepared_logged = False
        # RLock: commit_one_phase re-enters through prepare().
        self.completion_lock = threading.RLock()

    # -- Resource protocol (dispatched by the superior) -----------------------

    def prepare(self) -> Vote:
        with self.completion_lock:
            vote = self.transaction.prepare_interposed()
            if vote is Vote.COMMIT:
                # Durable in *this* domain: after a crash the subordinate is
                # recovered from this record and the superior's decision
                # replays downward.
                self._service.log_prepared(
                    self.root_tid, self.transaction, self.root_domain
                )
                self._prepared_logged = True
            return vote

    def commit(self) -> None:
        with self.completion_lock:
            self.transaction.commit_interposed()

    def rollback(self) -> None:
        with self.completion_lock:
            self.transaction.rollback_interposed()
            if self._prepared_logged:
                # Supersede the subtx_prepared record, or every later
                # recovery would resurrect this subordinate as held-in-doubt.
                self._service.log_resolved(self.transaction.tid)
                self._prepared_logged = False

    def commit_one_phase(self) -> None:
        with self.completion_lock:
            vote = self.prepare()
            if vote is Vote.ROLLBACK:
                raise TransactionRolledBack(f"subordinate {self.transaction.tid} voted rollback")
            if vote is Vote.COMMIT:
                self.transaction.commit_interposed()

    def forget(self) -> None:
        pass

    # -- recovery replay (idempotent) -------------------------------------------

    def recover_commit(self, root_tid: str) -> bool:
        with self.completion_lock:
            status = self.transaction.status
            if status is TransactionStatus.COMMITTED:
                return True
            if status in (TransactionStatus.PREPARED, TransactionStatus.COMMITTING):
                self.transaction.commit_interposed()
                return True
            return False

    def recover_abort(self, root_tid: str) -> bool:
        with self.completion_lock:
            if self.transaction.status.is_terminal:
                return self.transaction.status is TransactionStatus.ROLLED_BACK
            self.rollback()
            return True

    def get_status(self) -> TransactionStatus:
        return self.transaction.status


class RecoveredSubordinateResource(Servant):
    """A subordinate rebuilt from durable state after its domain crashed.

    The live transaction object is gone; what survives is the
    ``subtx_prepared`` WAL record: local tid, recovery keys and the local
    cells' intentions.  Phase two from the superior replays through the
    domain's recoverable registry.
    """

    def __init__(
        self,
        service: "FederatedTransactionService",
        root_tid: str,
        local_tid: str,
        recovery_keys: List[str],
        root_domain: Optional[str] = None,
    ) -> None:
        self._service = service
        self.root_tid = root_tid
        self.local_tid = local_tid
        self.recovery_keys = list(recovery_keys)
        self.root_domain = root_domain

    def prepare(self) -> Vote:
        # Already durably prepared before the crash; re-prepare is a
        # superior retrying phase one after a partial round.
        return Vote.COMMIT

    def commit(self) -> None:
        self._service.replay_commit(self.local_tid, self.recovery_keys)

    def rollback(self) -> None:
        self._service.replay_abort(self.local_tid, self.recovery_keys)

    def recover_commit(self, root_tid: str) -> bool:
        self._service.replay_commit(self.local_tid, self.recovery_keys)
        return True

    def recover_abort(self, root_tid: str) -> bool:
        self._service.replay_abort(self.local_tid, self.recovery_keys)
        return True

    def forget(self) -> None:
        pass

    def get_status(self) -> TransactionStatus:
        return TransactionStatus.PREPARED


class FederatedTransactionService:
    """Per-domain hub for cross-bridge transaction interposition.

    One instance per (factory, ORB, domain), playing both roles:

    - *superior*: exports local transactions on demand (the federated
      client interceptor attaches the context) and keeps a recovery
      proxy per registered subordinate;
    - *subordinate*: adopts foreign transactions on first contact,
      interposing one local transaction + resource per root tid.
    """

    def __init__(
        self,
        factory: Any,
        current: TransactionCurrent,
        orb: Orb,
        bridge: Any,
        registry: Optional[RecoverableRegistry] = None,
    ) -> None:
        # ``bridge`` is duck-typed: an in-process InterOrbBridge or a
        # multi-process SiteFederation — anything providing
        # coordination_node / domain_of_node / register_service / route.
        if orb.domain_id is None or orb.federation is not bridge:
            raise ConfigurationError(
                "connect the ORB to the bridge before installing the"
                " federated transaction service"
            )
        self.factory = factory
        self.current = current
        self.orb = orb
        self.bridge = bridge
        self.domain_id: str = orb.domain_id
        self.registry = registry if registry is not None else RecoverableRegistry()
        self._exports: Dict[str, FederatedTransactionContext] = {}
        self._adopted: Dict[str, SubordinateTransactionResource] = {}
        self._recovered: Dict[str, RecoveredSubordinateResource] = {}
        self._prepared_at: Dict[str, float] = {}
        self._adopted_at: Dict[str, float] = {}
        self._resolved: "OrderedDict[str, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.adoptions = 0
        bridge.register_service(self.domain_id, SERVICE_NAME, self)
        self._activate_recovery_servant()

    def _activate_recovery_servant(self) -> None:
        """Export this domain's durable status answerer at its well-known
        address (``fed:<domain>/fedrecovery``); idempotent."""
        node = self.bridge.coordination_node(self.domain_id)
        if not node.has_object(RECOVERY_SERVANT_ID):
            node.activate(
                FederationRecoveryServant(self),
                object_id=RECOVERY_SERVANT_ID,
                interface="FederationRecovery",
                durable=True,
            )

    # -- superior role ---------------------------------------------------------

    def context_for(self, tx: Transaction) -> FederatedTransactionContext:
        """The wire context exporting ``tx`` (coordination-node servant
        activated on first use; the frozen context is reused after)."""
        with self._lock:
            context = self._exports.get(tx.tid)
            if context is not None:
                return context
            node = self.bridge.coordination_node(self.domain_id)
            object_id = parent_export_id(tx.tid)
            if not node.has_object(object_id):
                node.activate(
                    ParentCoordinatorServant(self, tx),
                    object_id=object_id,
                    interface="ParentCoordinator",
                )
            context = FederatedTransactionContext(
                tid=tx.tid,
                root_domain=self.domain_id,
                coordinator_ref=node.ref_for(object_id),
            )
            self._exports[tx.tid] = context
            return context

    def note_subordinate_proxy(self, recovery_key: str, resource_ref: ObjectRef) -> None:
        self.registry.register(
            recovery_key, _SubordinateProxyRecoverable(recovery_key, resource_ref)
        )

    # -- subordinate role ---------------------------------------------------------

    def adopt(self, context: FederatedTransactionContext) -> Optional[Transaction]:
        """Interpose under a foreign transaction on first contact.

        Returns the local subordinate transaction to associate with the
        dispatch (None when the subordinate already completed — a late
        request after the tree resolved must not enlist new work).

        The whole adoption — lookup, local transaction, servant
        activation, registration with the superior — happens under the
        service lock: concurrent first contacts for the same root (a
        parallel fan-out's sibling requests) must converge on *one*
        subordinate, never register twice.  The registration call back
        to the superior does not re-enter this service, so holding the
        lock across it cannot deadlock.
        """
        with self._lock:
            if context.tid in self._resolved:
                # The subordinate tree already resolved and its
                # bookkeeping was retired; a straggler must not re-adopt.
                return None
            entry = self._adopted.get(context.tid)
            if entry is not None:
                tx = entry.transaction
                return None if tx.status.is_terminal else tx
            tx = self.factory.create(name=f"sub:{context.tid}")
            resource = SubordinateTransactionResource(
                self, context.tid, tx, root_domain=context.root_domain
            )
            node = self.bridge.coordination_node(self.domain_id)
            object_id = subordinate_resource_id(context.tid)
            if node.has_object(object_id):
                node.deactivate(object_id)
            node.activate(resource, object_id=object_id, interface="SubordinateResource")
            # One registration with the superior, ever, per (domain, root).
            # A failed registration (e.g. the link partitioned mid-adoption)
            # unwinds completely: the request that triggered adoption fails
            # and a retry starts from a clean slate.
            try:
                context.coordinator_ref.invoke(
                    "register_subordinate",
                    node.ref_for(object_id),
                    subordinate_recovery_key(self.domain_id, context.tid),
                    self.domain_id,
                )
            except BaseException:
                node.deactivate(object_id)
                tx.rollback()
                raise
            self._adopted[context.tid] = resource
            self._adopted_at[context.tid] = self.factory.clock.now()
            self.adoptions += 1
        self.factory.event_log.record(
            "fed_adopt",
            root=context.tid,
            root_domain=context.root_domain,
            domain=self.domain_id,
            local_tid=tx.tid,
        )
        return tx

    def subordinate_for(self, root_tid: str) -> Optional[SubordinateTransactionResource]:
        return self._adopted.get(root_tid)

    # -- durable prepared state -----------------------------------------------------

    def log_prepared(
        self, root_tid: str, tx: Transaction, root_domain: Optional[str] = None
    ) -> None:
        keys = [
            record.recovery_key
            for record in tx.resources
            if record.vote is Vote.COMMIT and record.recovery_key
        ]
        # root_domain rides along so a recovered subordinate knows whom
        # to ask about the outcome (resolve_in_doubt); a record without
        # one simply holds until the superior calls.  The intentions of
        # the local cells make this the subordinate's only durable write
        # of phase one.
        self.factory.wal.append(
            SUBTX_PREPARED,
            root=root_tid,
            tid=tx.tid,
            recovery_keys=keys,
            root_domain=root_domain,
            intentions=tx.intentions(),
        )
        # In-memory only (not replayed): ages answered by
        # in_doubt_ages() restart from the recovery pass after a crash,
        # which is exactly the duration triage cares about.
        self._prepared_at[root_tid] = self.factory.clock.now()

    def log_resolved(self, local_tid: str) -> None:
        """Mark a prepared subordinate resolved by rollback: once forced
        (with the next record, or by the housekeeping round) the
        completion record supersedes its ``subtx_prepared`` entry and the
        intentions it carries.  If a crash loses it first, recovery
        re-exports the subordinate as held in-doubt and the superior's
        presumed-abort answer resolves it again."""
        self.factory.log_completion(local_tid, rolled_back=True)

    # -- per-domain crash recovery ----------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Re-adopt this domain's interposition tree after a crash.

        Subordinate role: prepared-but-undecided subordinates are *held*
        (never presumed aborted — their outcome belongs to the superior)
        and re-exported under their original object ids so the
        superior's phase two (or its recovery manager's replay) lands on
        them; everything decided locally is finished by the ordinary
        recovery pass.

        Superior role: commit decisions logged here name remote
        subordinates by their durable recovery keys
        (``fedsub-tx:<domain>:<tid>``), which encode everything needed
        to rebuild the proxy a crash destroyed — the key's domain plus
        the deterministic ``fedres:`` object id — so the recovery pass
        below replays completion downward across the bridge without any
        re-registration from the remote side.
        """
        node = self.bridge.coordination_node(self.domain_id)
        if node.crashed:
            node.restart()
        self._activate_recovery_servant()  # restart dropped transient servants
        index = self.factory.log_index()
        decided, completed = index.decided, index.completed
        held: List[str] = []
        for root_tid, (local_tid, keys, root_domain) in sorted(index.prepared.items()):
            if local_tid in completed:
                continue
            if local_tid not in decided:
                held.append(local_tid)
            resource = RecoveredSubordinateResource(
                self, root_tid, local_tid, keys, root_domain=root_domain
            )
            object_id = subordinate_resource_id(root_tid)
            if node.has_object(object_id):
                node.deactivate(object_id)
            node.activate(resource, object_id=object_id, interface="SubordinateResource")
            self._recovered[root_tid] = resource
            self._prepared_at.setdefault(root_tid, self.factory.clock.now())
            self.factory.event_log.record(
                "fed_readopt",
                root=root_tid,
                domain=self.domain_id,
                local_tid=local_tid,
                held=local_tid not in decided,
            )
        # Look again (O(new records)) and snapshot: dispatch threads may
        # have logged since, and may extend the live index while the
        # recovery pass iterates.
        index = self.factory.log_index()
        decisions = dict(index.decided)
        self._rebuild_subordinate_proxies(decisions)
        return RecoveryManager(self.factory.wal, self.registry).resolve(
            decisions, set(index.completed), hold=held
        )

    def _rebuild_subordinate_proxies(self, decisions: Dict[str, List[str]]) -> None:
        for keys in decisions.values():
            for key in keys:
                if not key.startswith("fedsub-tx:"):
                    continue
                if self.registry.resolve(key) is not None:
                    continue
                _, domain_id, root_tid = key.split(":", 2)
                ref = ObjectRef(
                    coordination_node_id(domain_id),
                    subordinate_resource_id(root_tid),
                    "SubordinateResource",
                ).bind(self.orb)
                self.note_subordinate_proxy(key, ref)

    def in_doubt_ages(self) -> Dict[str, float]:
        """How long each currently-held in-doubt subordinate has been
        waiting on its superior, in seconds ({root_tid: age}).  Ages are
        measured from the prepare (or, after a crash, from the recovery
        pass that re-held the record) — the chaos triage signal for
        "this superior never came back"."""
        now = self.factory.clock.now()
        index = self.factory.log_index()
        decided, completed = index.decided, index.completed
        ages: Dict[str, float] = {}
        with self._lock:
            for root_tid, res in self._adopted.items():
                if res.transaction.status is TransactionStatus.PREPARED:
                    started = self._prepared_at.get(root_tid, now)
                    ages[root_tid] = max(0.0, now - started)
            for root_tid, res in self._recovered.items():
                if res.local_tid in decided or res.local_tid in completed:
                    continue
                started = self._prepared_at.get(root_tid, now)
                ages[root_tid] = max(0.0, now - started)
        return ages

    def _mark_resolved_locked(self, root_tid: str) -> None:
        """Retire one root's bookkeeping, leaving a bounded tombstone so
        :meth:`adopt` still declines stragglers for the resolved tree."""
        self._adopted.pop(root_tid, None)
        self._recovered.pop(root_tid, None)
        self._adopted_at.pop(root_tid, None)
        self._prepared_at.pop(root_tid, None)
        self._resolved[root_tid] = None
        self._resolved.move_to_end(root_tid)
        while len(self._resolved) > RESOLVED_TOMBSTONE_LIMIT:
            self._resolved.popitem(last=False)

    def retire_completed(self) -> int:
        """Drop bookkeeping for subordinates that reached a terminal state.

        A long-lived site daemon adopts one subordinate per cross-domain
        root transaction; without retirement ``_adopted``/``_adopted_at``
        /``_prepared_at`` grow forever and every
        :meth:`in_doubt_ages`/:meth:`sweep_orphans` round rescans the
        dead entries.  Recovered subordinates retire once their local
        decision is durably completed.  Runs at the top of every
        :meth:`sweep_orphans` round (the serve loop's housekeeping
        cadence); returns how many roots were retired.

        This round is also what forces the log's unforced tail — the
        ``tx_completed`` records no commit decision has carried to disk
        yet — so an idle domain does not sit on it indefinitely.
        """
        self.factory.wal.force()
        completed = self.factory.log_index().completed
        retired = 0
        with self._lock:
            for root_tid, res in list(self._adopted.items()):
                if res.transaction.status.is_terminal:
                    self._mark_resolved_locked(root_tid)
                    retired += 1
            for root_tid, res in list(self._recovered.items()):
                if res.local_tid in completed:
                    self._mark_resolved_locked(root_tid)
                    retired += 1
        return retired

    def sweep_orphans(self, min_age: float = 0.0) -> List[str]:
        """Presumed-abort sweep for adopted-but-never-prepared subordinates.

        A subordinate that enlisted work but never voted holds no durable
        stake in the outcome: the superior cannot commit without its
        prepared vote, so rolling it back unilaterally is always safe
        (the classic presumed-abort liberty of an unprepared
        participant).  Such orphans arise under faults when the
        superior's rollback broadcast is lost to a partition or the
        superior dies before completion — nothing ever arrives to finish
        the local transaction, it was never prepared so recovery ignores
        it, and without this sweep it would hold locks forever.

        Rolls back every adopted subordinate still in ``ACTIVE``/
        ``MARKED_ROLLBACK`` that has been adopted for at least
        ``min_age`` seconds; returns the swept root tids.  If the
        superior's phase one does arrive later, the terminal local
        transaction makes its prepare fail — the root aborts, which is
        consistent with what the sweep already decided.

        A subordinate in ``PREPARING`` is *not* swept: its prepare is in
        flight on a dispatch thread and may complete — COMMIT vote on
        the wire to the superior — before our rollback lands, after
        which aborting unilaterally would break 2PC atomicity.  The
        status is therefore re-checked under the resource's
        ``completion_lock``, atomically with
        :meth:`SubordinateTransactionResource.prepare`: whichever side
        wins the lock decides, and the loser sees a consistent fate
        (a swept transaction makes the late prepare fail; a completed
        prepare makes the sweep skip).
        """
        self.retire_completed()
        now = self.factory.clock.now()
        sweepable = (TransactionStatus.ACTIVE, TransactionStatus.MARKED_ROLLBACK)
        with self._lock:
            candidates = [
                (root_tid, res)
                for root_tid, res in self._adopted.items()
                if res.transaction.status in sweepable
                and now - self._adopted_at.get(root_tid, now) >= min_age
            ]
        swept: List[str] = []
        for root_tid, res in candidates:
            with res.completion_lock:
                # The snapshot above is advisory; only this re-check is
                # atomic with the prepare path.
                if res.transaction.status not in sweepable:
                    continue
                try:
                    res.transaction.rollback()
                except ReproError:  # pragma: no cover - already finishing
                    continue
            with self._lock:
                self._mark_resolved_locked(root_tid)
            swept.append(root_tid)
            self.factory.event_log.record(
                "fed_orphan_swept",
                root=root_tid,
                domain=self.domain_id,
                local_tid=res.transaction.tid,
            )
        return swept

    # -- subordinate-driven in-doubt resolution ----------------------------------------

    def _superior_status(self, root_domain: str, root_tid: str) -> TransactionStatus:
        """Ask the superior domain's durable recovery servant for an
        outcome.  Raises ``CommunicationError``/``ObjectNotExist`` while
        the superior is unreachable — callers keep holding."""
        ref = ObjectRef(
            coordination_node_id(root_domain),
            RECOVERY_SERVANT_ID,
            "FederationRecovery",
        ).bind(self.orb)
        return ref.invoke("transaction_status", root_tid)

    def resolve_in_doubt(self) -> Dict[str, str]:
        """One polling round over this domain's held in-doubt subordinates.

        Complements superior-driven completion (phase two or the
        superior's recovery replay): when the superior's process died and
        restarted, nothing replays downward for transactions it presumed
        aborted — it never heard of them deciding.  Each held subordinate
        therefore asks the superior's *durable* recovery servant and acts
        only on a definite answer:

        - ``COMMITTING``/``COMMITTED`` → replay commit locally;
        - ``ROLLING_BACK``/``ROLLED_BACK``/``NO_TRANSACTION`` → abort;
        - anything in flight (``ACTIVE``..``PREPARED``,
          ``MARKED_ROLLBACK``) or any communication failure → keep
          holding; the superior is alive (or will be) and will drive the
          outcome itself.

        Returns ``{root_tid: action}`` with actions ``committed``,
        ``aborted`` or ``held``.  Safe to call repeatedly; replay is
        idempotent and races with superior-driven completion are benign.
        """
        index = self.factory.log_index()
        decided, completed = index.decided, index.completed
        candidates: List[Tuple[str, Optional[str], str, List[str]]] = []
        with self._lock:
            for root_tid, res in self._adopted.items():
                if res.transaction.status is TransactionStatus.PREPARED:
                    keys = [
                        record.recovery_key
                        for record in res.transaction.resources
                        if record.vote is Vote.COMMIT and record.recovery_key
                    ]
                    candidates.append(
                        (root_tid, res.root_domain, res.transaction.tid, keys)
                    )
            for root_tid, res in self._recovered.items():
                if res.local_tid in decided or res.local_tid in completed:
                    continue
                candidates.append(
                    (root_tid, res.root_domain, res.local_tid, res.recovery_keys)
                )
        outcomes: Dict[str, str] = {}
        for root_tid, root_domain, local_tid, keys in candidates:
            if root_domain is None:
                outcomes[root_tid] = "held"  # pre-provenance record: hold forever
                continue
            try:
                status = self._superior_status(root_domain, root_tid)
            except (CommunicationError, ObjectNotExist):
                outcomes[root_tid] = "held"
                continue
            if status in (TransactionStatus.COMMITTING, TransactionStatus.COMMITTED):
                live = self._adopted.get(root_tid)
                if live is not None and live.transaction.tid == local_tid:
                    live.recover_commit(root_tid)
                else:
                    self.replay_commit(local_tid, keys)
                outcomes[root_tid] = "committed"
            elif status in (
                TransactionStatus.ROLLING_BACK,
                TransactionStatus.ROLLED_BACK,
                TransactionStatus.NO_TRANSACTION,
            ):
                live = self._adopted.get(root_tid)
                if live is not None and live.transaction.tid == local_tid:
                    live.recover_abort(root_tid)
                else:
                    self.replay_abort(local_tid, keys)
                outcomes[root_tid] = "aborted"
            else:
                outcomes[root_tid] = "held"
            if outcomes[root_tid] != "held":
                with self._lock:
                    entry = self._adopted.get(root_tid)
                    if entry is None or entry.transaction.status.is_terminal:
                        self._mark_resolved_locked(root_tid)
                self.factory.event_log.record(
                    "fed_resolve_in_doubt",
                    root=root_tid,
                    domain=self.domain_id,
                    action=outcomes[root_tid],
                )
        return outcomes

    # -- idempotent downward replay -----------------------------------------------------

    def replay_commit(self, local_tid: str, recovery_keys: List[str]) -> bool:
        """Commit a recovered subordinate from its logged intentions: one
        forced decision (unless logged already), one store write."""
        index = self.factory.log_index()
        if local_tid in index.completed:
            return True
        if local_tid not in index.decided:
            self.factory.log_commit_decision(local_tid, recovery_keys)
        with self.factory.sweep(local_tid) as sweep:
            for key in recovery_keys:
                recoverable = self.registry.resolve(key)
                if recoverable is not None:
                    recoverable.recover_commit(local_tid)
        sweep.land()
        self.factory.log_completion(local_tid)
        self.factory.event_log.record("fed_replay_commit", tid=local_tid)
        return True

    def replay_abort(self, local_tid: str, recovery_keys: List[str]) -> bool:
        completed = self.factory.log_index().completed
        for key in recovery_keys:
            recoverable = self.registry.resolve(key)
            if recoverable is not None:
                recoverable.recover_abort(local_tid)
        if local_tid not in completed:
            self.log_resolved(local_tid)
        self.factory.event_log.record("fed_replay_abort", tid=local_tid)
        return True


class FederatedTransactionClientInterceptor(ClientRequestInterceptor):
    """Attaches the federated context to requests leaving the domain."""

    name = "ots-federation-client"

    def __init__(self, service: FederatedTransactionService) -> None:
        self.service = service

    def send_request(self, info: RequestInfo) -> None:
        service = self.service
        tx = service.current.get_transaction()
        if tx is None or tx.status.is_terminal:
            return
        target_domain = service.bridge.domain_of_node(info.target_node)
        if target_domain is None or target_domain == service.domain_id:
            return
        # Interposition attaches at the local root: remote work always
        # joins the top of the local tree, which is what the superior's
        # two-phase completion drives.
        info.set_context(FEDERATED_TX_CONTEXT_ID, service.context_for(tx.top_level))


class FederatedTransactionServerInterceptor(ServerRequestInterceptor):
    """Adopts (or re-associates) a foreign transaction around dispatches."""

    name = "ots-federation-server"

    def __init__(self, service: FederatedTransactionService) -> None:
        self.service = service
        self._resumed = ThreadAssociation()

    def receive_request(self, info: RequestInfo) -> None:
        context = info.get_context(FEDERATED_TX_CONTEXT_ID)
        service = self.service
        if (
            isinstance(context, FederatedTransactionContext)
            and context.root_domain != service.domain_id
        ):
            # adopt() keys on the *root* tid in its own map — never on
            # this factory's registry, whose tids are domain-local and
            # may collide with a foreign root's.  The target servant —
            # this domain's own subordinate resource — is exempt: the
            # superior's phase-two/forget calls legitimately arrive
            # after (or while) the subordinate turns terminal.
            if info.target_object == subordinate_resource_id(context.tid):
                self._resumed.stack.append(False)
                return
            tx = service.adopt(context)
            if tx is None:
                # Stale association: the subordinate tree already
                # resolved.  Fail the dispatch exactly as the
                # intra-domain path does for a terminal transaction —
                # the work must not run untransacted.  (Raised before
                # this interceptor pushes its flag, mirroring how an
                # intra-domain resume failure unwinds.)
                raise InvalidTransaction(
                    f"transaction {context.tid} already completed in"
                    f" domain {service.domain_id}"
                )
            service.current.resume(tx)
            self._resumed.stack.append(True)
            return
        self._resumed.stack.append(False)

    def _detach(self) -> None:
        flags = self._resumed.stack
        if flags and flags.pop():
            self.service.current.suspend()

    def send_reply(self, info: RequestInfo) -> None:
        self._detach()

    def send_exception(self, info: RequestInfo) -> None:
        self._detach()


def install_federated_transaction_service(
    orb: Orb,
    current: TransactionCurrent,
    bridge: Any,
    registry: Optional[RecoverableRegistry] = None,
    install_base: bool = True,
) -> FederatedTransactionService:
    """Wire full OTS interposition into a federated ORB.

    Installs the ordinary intra-domain propagation interceptors (unless
    ``install_base=False`` because they are already present) plus the
    federated pair, and returns the domain's
    :class:`FederatedTransactionService`.
    """
    if install_base:
        install_transaction_service(orb, current)
    service = FederatedTransactionService(current.factory, current, orb, bridge, registry=registry)
    orb.interceptors.add_client(FederatedTransactionClientInterceptor(service))
    orb.interceptors.add_server(FederatedTransactionServerInterceptor(service))
    return service
