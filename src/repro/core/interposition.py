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
- :class:`ActivityInterposer` — the parent-side router: plugged into an
  :class:`~repro.core.coordinator.ActivityCoordinator`, it intercepts
  ``add_action`` calls whose action lives in a foreign domain and
  redirects them through the interposition tree;
- :func:`digest_outcomes` — the default outcome-collapse rule (first
  error wins; unanimous names are preserved so vote-style protocols like
  the 2PC SignalSet keep working; mixed non-error names collapse to an
  error outcome, which vote-style sets treat as a rollback trigger).

Everything here is opt-in: ``ActivityManager(federation=bridge,
interposition=True)``.  With the knob off (the default) no code path in
this module runs and single-domain traces are byte-identical to the
historical ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.broadcast import (
    SerialBroadcastExecutor,
    Transmission,
)
from repro.core.coordinator import ActionRecord
from repro.core.delivery import AtLeastOnceDelivery, DeliveryPolicy
from repro.core.exceptions import ActionError, RecoveryError
from repro.core.signals import Outcome, Signal
from repro.exceptions import CommunicationError
from repro.orb.core import Servant
from repro.orb.federation import InterOrbBridge
from repro.orb.reference import ObjectRef
from repro.util.events import EventLog
from repro.util.idgen import IdGenerator

SUBORDINATE_RECORD_PREFIX = "fed-sub:"


def subordinate_object_id(activity_id: str) -> str:
    """Deterministic object id of one activity's subordinate servant.

    Deterministic on purpose: after a per-domain crash the recovered
    subordinate re-activates under the same id, so the parent's retained
    ObjectRef remains valid without re-registration.
    """
    return f"fedsub:{activity_id}"


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
        if self.store is not None and self.store.contains(self._record_key()):
            self.store.remove(self._record_key())


def recover_subordinates(
    store: Any,
    manager: Any,
    node: Any,
    domain_id: str,
    executor: Optional[SerialBroadcastExecutor] = None,
    delivery: Optional[DeliveryPolicy] = None,
) -> List[SubordinateCoordinator]:
    """Rebuild a domain's subordinate coordinators after a crash.

    Reads every ``fed-sub:`` record from the domain's own store,
    re-instantiates each subordinate, re-creates its recoverable actions
    through the manager's registered action factories, and re-activates
    the servant on ``node`` under its original object id — so the parent
    coordinator's retained reference routes to the recovered subordinate
    and completion replays downward without re-registration.
    """
    recovered: List[SubordinateCoordinator] = []
    for key in sorted(store.keys()):
        if not key.startswith(SUBORDINATE_RECORD_PREFIX):
            continue
        record = store.get(key)
        subordinate = SubordinateCoordinator(
            activity_id=record["activity_id"],
            domain_id=domain_id,
            executor=executor if executor is not None else getattr(manager, "executor", None),
            delivery=delivery,
            event_log=getattr(manager, "event_log", None),
            store=store,
            manager=manager,
        )
        for registration in record["registrations"]:
            action = manager.make_action(registration["factory"], registration["config"])
            subordinate.register(
                registration["signal_set"],
                action,
                factory_name=registration["factory"],
                factory_config=registration["config"],
            )
        if node.has_object(record["object_id"]):
            node.deactivate(record["object_id"])
        node.activate(
            subordinate,
            object_id=record["object_id"],
            interface="SubordinateCoordinator",
        )
        recovered.append(subordinate)
    return recovered


class ActivityInterposer:
    """Parent-side router: one interposed subordinate per remote domain.

    Plugged into every coordinator a federated
    :class:`~repro.core.manager.ActivityManager` creates.  ``route``
    returns None for anything that is not a bound cross-domain
    ObjectRef — the coordinator then registers it directly, exactly as
    before, which is what keeps single-domain traces byte-identical with
    interposition enabled.
    """

    def __init__(self, bridge: InterOrbBridge, manager: Any) -> None:
        self.bridge = bridge
        self.manager = manager
        # (activity_id, domain) -> parent-bound subordinate ref
        self._subordinates: Dict[Tuple[str, str], ObjectRef] = {}
        # local servant handles, for tests/introspection
        self._servants: Dict[Tuple[str, str], SubordinateCoordinator] = {}
        # (activity_id, domain, signal_set) -> the parent-side record
        self._parent_records: Dict[Tuple[str, str, str], ActionRecord] = {}
        self.interposed_registrations = 0

    def _local_domain(self) -> Optional[str]:
        orb = getattr(self.manager, "orb", None)
        return orb.domain_id if orb is not None else None

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
        if action.object_id == subordinate_object_id(coordinator.activity_id):
            # Already an interposed subordinate for this activity (e.g. a
            # WSCF registration service enlisted it on behalf of a whole
            # foreign domain): registering it through *another* subordinate
            # at the same object id would enlist the servant with itself.
            return None
        target_domain = self.bridge.domain_of_node(action.node_id)
        local_domain = self._local_domain()
        if target_domain is None or target_domain == local_domain:
            return None
        sub_ref = self._subordinate_ref(coordinator.activity_id, target_domain)
        # Registration crosses the bridge once per action (broadcast-time
        # traffic is what interposition flattens to O(domains)).
        sub_ref.invoke("register", signal_set_name, action, factory_name, factory_config or {})
        self.interposed_registrations += 1
        key = (coordinator.activity_id, target_domain, signal_set_name)
        record = self._parent_records.get(key)
        if record is None:
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

    def _subordinate_ref(self, activity_id: str, domain_id: str) -> ObjectRef:
        key = (activity_id, domain_id)
        existing = self._subordinates.get(key)
        if existing is not None:
            return existing
        node = self.bridge.coordination_node(domain_id)
        object_id = subordinate_object_id(activity_id)
        if node.has_object(object_id):
            # A recovered (or peer-created) subordinate already lives
            # there; adopt it instead of activating a duplicate.
            servant = node.servant(object_id)
        else:
            target_manager = self.bridge.service(domain_id, "activity_manager")
            servant = SubordinateCoordinator(
                activity_id=activity_id,
                domain_id=domain_id,
                executor=getattr(target_manager, "executor", None),
                delivery=getattr(target_manager, "delivery", None),
                event_log=getattr(target_manager, "event_log", None),
                store=getattr(target_manager, "store", None),
                manager=target_manager,
            )
            node.activate(servant, object_id=object_id, interface="SubordinateCoordinator")
        self._servants[key] = servant
        parent_orb = self.manager.orb
        ref = ObjectRef(node.node_id, object_id, "SubordinateCoordinator").bind(parent_orb)
        self._subordinates[key] = ref
        return ref

    def subordinate_for(self, activity_id: str, domain_id: str) -> Optional[SubordinateCoordinator]:
        return self._servants.get((activity_id, domain_id))
