"""Coordinator interposition for federated activity trees.

In a federated deployment (§3.3 of the paper: activity contexts span
coordination domains) a parent coordinator should not talk to every leaf
action across domain boundaries.  Instead one *subordinate coordinator*
is interposed per remote domain: the parent registers the subordinate
**once** (per signal-set name), the subordinate relays each broadcast to
its local registrations through the one fan-out engine
(:mod:`repro.core.broadcast`), digests the local
outcomes in registration order and replies with a single collapsed
outcome.  A cross-domain broadcast then costs O(domains) inter-domain
sends instead of O(participants).

Pieces:

- :class:`SubordinateCoordinator` — the servant hosted on the remote
  domain's coordination node (``fed:<domain>``); its registrations are
  checkpointed in *that domain's own* store so a per-domain crash can be
  recovered with :func:`recover_subordinates`;
- :class:`ActivityInterpositionServant` — each domain's well-known
  endpoint (``fed:<domain>/fedactivity``): a parent *invokes* its
  ``register`` and the domain finds or creates its own subordinate
  (:func:`local_subordinate`), so no domain ever builds objects in
  another and the tree works between processes as well as over an
  in-process bridge;
- :class:`ActivityInterposer` — the parent-side router: plugged into an
  :class:`~repro.core.coordinator.ActivityCoordinator`, it intercepts
  ``add_action`` calls whose action lives in a foreign domain and
  redirects them through the interposition tree;
- :func:`digest_outcomes` — the default outcome-collapse rule (first
  error wins; unanimous names are preserved so vote-style protocols like
  the 2PC SignalSet keep working; mixed non-error names collapse to an
  error outcome, which vote-style sets treat as a rollback trigger).

An :class:`~repro.core.manager.ActivityManager` installed on a federated
ORB always interposes (:func:`install_interposition`); one that is not
registers every action directly, and so does the router for a domain
that answers it runs no activity service.  Actions in the manager's own
domain are always registered directly, so single-domain traces are the
same either way.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.broadcast import (
    SerialBroadcastExecutor,
    Transmission,
)
from repro.core.coordinator import ActionRecord
from repro.core.delivery import AtLeastOnceDelivery, DeliveryPolicy
from repro.core.exceptions import ActionError, RecoveryError
from repro.core.signals import Outcome, Signal
from repro.exceptions import CommunicationError, ObjectNotExist
from repro.orb.core import Servant
from repro.orb.federation import coordination_node_id
from repro.orb.reference import ObjectRef
from repro.util.events import EventLog
from repro.util.idgen import IdGenerator

SUBORDINATE_RECORD_PREFIX = "fed-sub:"
# Object id of each domain's interposition servant on its coordination
# node, beside the OTS's ``fedrecovery``.
INTERPOSITION_SERVANT_ID = "fedactivity"
# Find-or-create of a subordinate is atomic per process: two requests
# for one activity must converge on one servant.
_SUBORDINATE_LOCK = threading.Lock()


def subordinate_object_id(activity_id: str) -> str:
    """Deterministic object id of one activity's subordinate servant.

    Deterministic on purpose: after a per-domain crash the recovered
    subordinate re-activates under the same id, so the parent's retained
    ObjectRef remains valid without re-registration.
    """
    return f"fedsub:{activity_id}"


def subordinate_ref(domain_id: str, activity_id: str) -> ObjectRef:
    """Where ``domain_id`` keeps (or will keep) its subordinate for
    ``activity_id``: both ids are deterministic, so no lookup is needed."""
    object_id = subordinate_object_id(activity_id)
    return ObjectRef(coordination_node_id(domain_id), object_id, "SubordinateCoordinator")


def digest_outcomes(outcomes: List[Outcome]) -> Outcome:
    """Collapse a domain's local outcomes into one reply for the parent.

    Registration order is preserved by construction (the subordinate
    digests on its calling thread, like every executor).  Rules:

    1. no local registrations → ``Outcome.done()``;
    2. any error outcome → the *first* error, unchanged (the parent's
       SignalSet sees exactly what a directly registered action would
       have replied);
    3. unanimous outcome name → that name (data kept only when every
       response agrees on it) — vote-style sets see ``vote_commit``
       exactly as if one action had answered;
    4. mixed non-error names → an error outcome naming the disagreement;
       vote-style sets treat errors as rollback triggers, which is the
       conservative collapse of a split vote.
    """
    if not outcomes:
        return Outcome.done()
    for outcome in outcomes:
        if outcome.is_error:
            return outcome
    names = {outcome.name for outcome in outcomes}
    if len(names) == 1:
        data_values = {repr(outcome.data) for outcome in outcomes}
        first = outcomes[0]
        if len(data_values) == 1:
            return first
        return Outcome.of(first.name)
    return Outcome.error(data=f"subordinate outcomes diverged: {sorted(names)}")


class SubordinateCoordinator(Servant):
    """Interposed per-domain relay for one parent activity.

    Hosted on the remote domain's coordination node; the parent's
    coordinator holds a single reference to it per signal-set name.  The
    subordinate fans each received signal out to its local registrations
    through ``executor`` (the same pluggable seam coordinators use), so
    a domain with a thread-pool executor overlaps its local sends while
    the parent still pays one inter-domain hop.

    In-flight local sends are always drained before ``process_signal``
    returns (the executor contract) — a faulted local action can never
    leave a send racing the parent's next signal into this domain.
    """

    def __init__(
        self,
        activity_id: str,
        domain_id: str,
        executor: Optional[SerialBroadcastExecutor] = None,
        delivery: Optional[DeliveryPolicy] = None,
        event_log: Optional[EventLog] = None,
        store: Optional[Any] = None,
        manager: Optional[Any] = None,
    ) -> None:
        self.activity_id = activity_id
        self.domain_id = domain_id
        self.executor = executor if executor is not None else SerialBroadcastExecutor()
        self.delivery = delivery if delivery is not None else AtLeastOnceDelivery()
        self.event_log = event_log if event_log is not None else EventLog()
        self.store = store
        self.manager = manager
        self._ids = IdGenerator()
        self._actions: Dict[str, List[ActionRecord]] = {}
        self.signals_relayed = 0
        self.local_sends = 0

    # -- registration (dispatchable) -----------------------------------------

    def register(
        self,
        signal_set_name: str,
        action: Any,
        factory_name: Optional[str] = None,
        factory_config: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Enlist a local action for the named signal set; returns its id."""
        record = ActionRecord(
            action_id=self._ids.next(f"sub-{self.domain_id}-action"),
            signal_set_name=signal_set_name,
            action=action,
            factory_name=factory_name,
            factory_config=dict(factory_config) if factory_config else {},
        )
        self._actions.setdefault(signal_set_name, []).append(record)
        self.event_log.record(
            "sub_register",
            activity=self.activity_id,
            domain=self.domain_id,
            signal_set=signal_set_name,
            action=record.label,
        )
        if self.store is not None:
            self.checkpoint()
        return record.action_id

    def registrations_for(self, signal_set_name: str) -> List[ActionRecord]:
        return list(self._actions.get(signal_set_name, []))

    @property
    def registration_count(self) -> int:
        return sum(len(records) for records in self._actions.values())

    # -- relay (dispatchable) --------------------------------------------------

    def process_signal(self, signal: Signal) -> Outcome:
        """Relay one parent signal to every local registration and reply
        with the collapsed outcome."""
        records = self.registrations_for(signal.signal_set_name)
        self.signals_relayed += 1
        self.event_log.record(
            "sub_relay",
            activity=self.activity_id,
            domain=self.domain_id,
            signal_set=signal.signal_set_name,
            signal=signal.signal_name,
            actions=len(records),
        )
        outcomes: List[Outcome] = []

        def on_transmit(transmission: Transmission, stamped: Signal) -> None:
            self.event_log.record(
                "sub_transmit",
                activity=self.activity_id,
                domain=self.domain_id,
                signal_set=stamped.signal_set_name,
                signal=stamped.signal_name,
                action=transmission.label,
            )

        def digest(transmission: Transmission, stamped: Signal, outcome: Outcome) -> bool:
            outcomes.append(outcome)
            self.event_log.record(
                "sub_response",
                activity=self.activity_id,
                domain=self.domain_id,
                signal_set=stamped.signal_set_name,
                signal=stamped.signal_name,
                action=transmission.label,
                outcome=outcome.name,
                error=outcome.is_error,
            )
            return False  # local outcomes never abandon; the parent decides

        transmissions = [
            self._transmission(index, record, signal)
            for index, record in enumerate(records)
        ]
        self.local_sends += len(transmissions)
        self.executor.broadcast(transmissions, on_transmit if self.event_log.on else None, digest)
        return digest_outcomes(outcomes)

    def _transmission(self, index: int, record: ActionRecord, signal: Signal) -> Transmission:
        def stamp() -> Signal:
            # Local delivery ids are stamped per domain: the parent's id
            # names the one inter-domain transmission, this one names
            # each local relay (retries reuse it, as everywhere else).
            return signal.with_delivery_id(self._ids.next(f"{self.domain_id}-delivery"))

        def send(stamped: Signal) -> Outcome:
            return self.delivery.deliver(lambda s, r=record: self._invoke(r, s), stamped)

        return Transmission(index=index, label=record.label, stamp=stamp, send=send)

    def _invoke(self, record: ActionRecord, signal: Signal) -> Outcome:
        try:
            if isinstance(record.action, ObjectRef):
                result = record.action.invoke("process_signal", signal)
            else:
                result = record.action.process_signal(signal)
        except CommunicationError:
            raise
        except ActionError as exc:
            return Outcome.error(data=str(exc))
        except Exception as exc:  # noqa: BLE001 - action bugs stay local
            return Outcome.error(data=f"{type(exc).__name__}: {exc}")
        if not isinstance(result, Outcome):
            return Outcome.done(result)
        return result

    # -- durable registrations ----------------------------------------------------

    def _record_key(self) -> str:
        return SUBORDINATE_RECORD_PREFIX + self.activity_id

    def checkpoint(self) -> None:
        """Persist the recoverable registrations in this domain's store."""
        if self.store is None:
            raise RecoveryError("subordinate has no checkpoint store")
        durable = []
        for set_name in sorted(self._actions):
            for record in self._actions[set_name]:
                if record.factory_name is not None:
                    durable.append(
                        {
                            "signal_set": set_name,
                            "factory": record.factory_name,
                            "config": record.factory_config,
                        }
                    )
        self.store.put(
            self._record_key(),
            {
                "activity_id": self.activity_id,
                "domain": self.domain_id,
                "object_id": subordinate_object_id(self.activity_id),
                "registrations": durable,
            },
        )

    def forget(self) -> None:
        """The activity is over: drop the record, leave the node."""
        if self.store is not None and self.store.contains(self._record_key()):
            self.store.remove(self._record_key())
        node = _coordination_node(self.manager) if self.manager is not None else None
        if node is not None and node.has_object(subordinate_object_id(self.activity_id)):
            node.deactivate(subordinate_object_id(self.activity_id))


def _coordination_node(manager: Any) -> Any:
    orb = manager.orb
    return orb.federation.coordination_node(orb.domain_id)


def local_subordinate(manager: Any, activity_id: str) -> SubordinateCoordinator:
    """This domain's subordinate for ``activity_id``, found or created.

    Touches only ``manager`` and its own coordination node: a subordinate
    already active at the deterministic id (recovered, or created by an
    earlier registration) is adopted instead of duplicated; a new one
    runs on the manager's executor, delivery, event log and store.
    """
    node = _coordination_node(manager)
    object_id = subordinate_object_id(activity_id)
    with _SUBORDINATE_LOCK:
        if node.has_object(object_id):
            return node.servant(object_id)
        subordinate = SubordinateCoordinator(
            activity_id=activity_id,
            domain_id=manager.orb.domain_id,
            executor=manager.executor,
            delivery=manager.delivery,
            event_log=manager.event_log,
            store=manager.store,
            manager=manager,
        )
        node.activate(subordinate, object_id=object_id, interface="SubordinateCoordinator")
    return subordinate


def recover_subordinates(manager: Any) -> List[SubordinateCoordinator]:
    """Rebuild a domain's subordinate coordinators after a crash.

    Reads every ``fed-sub:`` record from the manager's store, replaces
    any subordinate still active under the record's object id with a
    fresh one, and re-creates its recoverable actions through the
    manager's registered action factories — so the parent coordinator's
    retained reference routes to the recovered subordinate and
    completion replays downward without re-registration.
    """
    store = manager.store
    node = _coordination_node(manager)
    recovered: List[SubordinateCoordinator] = []
    for key in sorted(store.keys()):
        if not key.startswith(SUBORDINATE_RECORD_PREFIX):
            continue
        record = store.get(key)
        if node.has_object(record["object_id"]):
            node.deactivate(record["object_id"])
        subordinate = local_subordinate(manager, record["activity_id"])
        for registration in record["registrations"]:
            action = manager.make_action(registration["factory"], registration["config"])
            subordinate.register(
                registration["signal_set"],
                action,
                factory_name=registration["factory"],
                factory_config=registration["config"],
            )
        recovered.append(subordinate)
    return recovered


class ActivityInterpositionServant(Servant):
    """A domain's interposition endpoint, at ``fed:<domain>/fedactivity``.

    A parent coordinator in another domain invokes :meth:`register` once
    per foreign action; this domain decides where the action goes — its
    own subordinate for the activity — so nothing outside the domain
    ever reaches into it.
    """

    def __init__(self, manager: Any) -> None:
        self._manager = manager

    def register(
        self,
        activity_id: str,
        signal_set_name: str,
        action: Any,
        factory_name: Optional[str] = None,
        factory_config: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Enlist ``action`` with this domain's subordinate for
        ``activity_id``; returns the local action id."""
        subordinate = local_subordinate(self._manager, activity_id)
        return subordinate.register(signal_set_name, action, factory_name, factory_config)


def install_interposition(manager: Any) -> "ActivityInterposer":
    """Serve ``manager``'s domain at ``fed:<domain>/fedactivity`` (the
    last manager installed on an ORB serves it) and return the router
    for the coordinators it creates."""
    node = _coordination_node(manager)
    if node.has_object(INTERPOSITION_SERVANT_ID):
        node.deactivate(INTERPOSITION_SERVANT_ID)
    node.activate(
        ActivityInterpositionServant(manager),
        object_id=INTERPOSITION_SERVANT_ID,
        interface="ActivityInterposition",
        durable=True,
    )
    return ActivityInterposer(manager.orb)


class ActivityInterposer:
    """Parent-side router: one interposed subordinate per remote domain.

    Plugged into every coordinator an installed, federated
    :class:`~repro.core.manager.ActivityManager` creates.  ``route``
    returns None for anything that is not a bound cross-domain
    ObjectRef — the coordinator then registers it directly, which is
    what keeps single-domain traces byte-identical.
    """

    def __init__(self, orb: Any) -> None:
        self.orb = orb
        # (activity_id, domain, signal_set) -> the parent-side record
        self._parent_records: Dict[Tuple[str, str, str], ActionRecord] = {}
        # Domains that answered they run no activity service.
        self._direct: Set[str] = set()
        self.interposed_registrations = 0

    def route(
        self,
        coordinator: Any,
        signal_set_name: str,
        action: Any,
        factory_name: Optional[str],
        factory_config: Optional[Dict[str, Any]],
    ) -> Optional[ActionRecord]:
        """Register ``action`` through the interposition tree when it
        lives in a foreign domain; None → caller registers directly."""
        if not isinstance(action, ObjectRef) or not action.is_bound:
            return None
        activity_id = coordinator.activity_id
        if action.object_id == subordinate_object_id(activity_id):
            # Already an interposed subordinate for this activity (e.g. a
            # WSCF registration service enlisted it on behalf of a whole
            # foreign domain): registering it through *another* subordinate
            # at the same object id would enlist the servant with itself.
            return None
        target_domain = self.orb.federation.domain_of_node(action.node_id)
        if target_domain in (None, self.orb.domain_id) or target_domain in self._direct:
            return None
        # Registration crosses domains once per action (broadcast-time
        # traffic is what interposition flattens to O(domains)); the
        # target domain builds its own subordinate.
        endpoint = ObjectRef(
            coordination_node_id(target_domain), INTERPOSITION_SERVANT_ID, "ActivityInterposition"
        ).bind(self.orb)
        try:
            endpoint.invoke(
                "register", activity_id, signal_set_name, action, factory_name, factory_config or {}
            )
        except ObjectNotExist:
            # The domain runs no activity service, so nothing there can
            # interpose: its actions are coordinated directly.
            self._direct.add(target_domain)
            return None
        self.interposed_registrations += 1
        key = (activity_id, target_domain, signal_set_name)
        record = self._parent_records.get(key)
        if record is None:
            sub_ref = subordinate_ref(target_domain, activity_id).bind(self.orb)
            record = coordinator.register_direct(signal_set_name, sub_ref)
            self._parent_records[key] = record
        return record

    def forget_record(self, record: ActionRecord) -> None:
        """A shared subordinate record was removed from its coordinator.

        Interposed registrations are per *domain*, not per action:
        removing the shared record unenlists the whole domain for that
        signal set.  Dropping the cache entry here means a later
        ``add_action`` re-enlists the (still registered) subordinate
        with the parent instead of silently returning the severed
        record.
        """
        for key, cached in list(self._parent_records.items()):
            if cached is record:
                del self._parent_records[key]
