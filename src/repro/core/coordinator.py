"""The activity coordinator (fig. 5).

One coordinator is associated with each activity.  Actions register
interest in SignalSets *by name* (§3.2.3 — the concrete signals a set will
produce may not be known in advance).  When the activity triggers a
SignalSet, the coordinator:

1. asks the set for a signal (``get_signal``);
2. transmits it to every action registered for that set, stamping a fresh
   ``delivery_id`` per logical transmission and pushing it through the
   configured delivery policy — *how* concurrently is the pluggable
   :class:`~repro.core.broadcast.BroadcastExecutor`'s choice;
3. reports each action's outcome back to the set (``set_response``),
   always from the coordinator's own thread and in registration order;
   a True reply abandons the current broadcast and fetches a new signal
   immediately;
4. repeats until the set is done, then collates via ``get_outcome``.

Every step is recorded in the event log; the figure-8/11/12 benches
compare these traces with the paper's sequence charts.  The default
(serial) executor records traces byte-identical to the pre-executor
coordinator; the thread-pool executor records the same deterministic
logical sequence while the physical sends overlap.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Optional, Tuple, Union

from repro.core.action import Action
from repro.core.broadcast import (
    BroadcastExecutor,
    SerialBroadcastExecutor,
    Transmission,
)
from repro.core.delivery import AtLeastOnceDelivery, DeliveryPolicy
from repro.core.exceptions import ActionError
from repro.core.signal_set import GuardedSignalSet, SignalSet
from repro.core.signals import Outcome, Signal
from repro.core.status import CompletionStatus
from repro.exceptions import CommunicationError
from repro.orb.marshal import MarshalError, PayloadSlot
from repro.orb.reference import ObjectRef
from repro.util.events import EventLog
from repro.util.idgen import IdGenerator
from repro.util.records import SlottedRecord

# Per-send hole in a broadcast's marshal-once template: the stamped
# delivery id is the only part of the signal that differs per action.
_DELIVERY_ID_SLOT = "delivery_id"

ActionLike = Union[Action, ObjectRef]


class ActionRecord(SlottedRecord):
    """One registration of an action with a signal-set name (slotted, PR 7)."""

    __slots__ = (
        "action_id",
        "signal_set_name",
        "action",
        "factory_name",
        "factory_config",
    )
    _fields: ClassVar[Tuple[str, ...]] = __slots__

    def __init__(
        self,
        action_id: str,
        signal_set_name: str,
        action: ActionLike,
        factory_name: Optional[str] = None,
        factory_config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.action_id = action_id
        self.signal_set_name = signal_set_name
        self.action = action
        # Durable-recovery metadata (optional): how to re-create this action.
        self.factory_name = factory_name
        self.factory_config = factory_config if factory_config is not None else {}

    @property
    def label(self) -> str:
        name = getattr(self.action, "name", None)
        if isinstance(self.action, ObjectRef):
            name = self.action.key()
        return name if name else self.action_id


class ActivityCoordinator:
    """Signal broadcast engine for one activity."""

    def __init__(
        self,
        activity_id: str,
        event_log: Optional[EventLog] = None,
        delivery: Optional[DeliveryPolicy] = None,
        executor: Optional[BroadcastExecutor] = None,
        action_timeout: Optional[float] = None,
        interposer: Optional[Any] = None,
    ) -> None:
        self.activity_id = activity_id
        self.event_log = event_log if event_log is not None else EventLog()
        self.delivery = delivery if delivery is not None else AtLeastOnceDelivery()
        self.executor = executor if executor is not None else SerialBroadcastExecutor()
        # Per-action outcome wait bound, enforced where the executor can
        # preempt (the thread-pool executor); None waits indefinitely.
        self.action_timeout = action_timeout
        # Federation: when set (ActivityManager(federation=...,
        # interposition=True)), cross-domain registrations are rerouted
        # through one interposed subordinate per remote domain.
        self.interposer = interposer
        self._ids = IdGenerator()
        self._actions: Dict[str, List[ActionRecord]] = {}

    # -- registration --------------------------------------------------------

    def add_action(
        self,
        signal_set_name: str,
        action: ActionLike,
        factory_name: Optional[str] = None,
        factory_config: Optional[Dict[str, Any]] = None,
    ) -> ActionRecord:
        """Register ``action`` for every signal the named set will produce.

        Under a federation interposer, an action living in a foreign
        domain is registered with that domain's subordinate coordinator
        instead; the returned record is then the (shared) parent-side
        registration of the subordinate itself.
        """
        if self.interposer is not None:
            routed = self.interposer.route(
                self, signal_set_name, action, factory_name, factory_config
            )
            if routed is not None:
                return routed
        return self.register_direct(
            signal_set_name,
            action,
            factory_name=factory_name,
            factory_config=factory_config,
        )

    def register_direct(
        self,
        signal_set_name: str,
        action: ActionLike,
        factory_name: Optional[str] = None,
        factory_config: Optional[Dict[str, Any]] = None,
    ) -> ActionRecord:
        """Register ``action`` with *this* coordinator, bypassing any
        interposition routing (used by the interposer itself to enlist
        a remote domain's subordinate)."""
        record = ActionRecord(
            action_id=self._ids.next("action"),
            signal_set_name=signal_set_name,
            action=action,
            factory_name=factory_name,
            factory_config=dict(factory_config) if factory_config else {},
        )
        self._actions.setdefault(signal_set_name, []).append(record)
        self.event_log.record(
            "add_action",
            activity=self.activity_id,
            signal_set=signal_set_name,
            action=record.label,
        )
        return record

    def remove_action(self, record: ActionRecord) -> None:
        records = self._actions.get(record.signal_set_name, [])
        if record in records:
            records.remove(record)
            if self.interposer is not None:
                # An interposed record is shared by every action of its
                # domain: removing it unenlists the whole domain, and
                # the interposer must drop its cache so a later
                # add_action re-enlists instead of returning the
                # severed record.
                self.interposer.forget_record(record)

    def remove_actions_for(self, signal_set_name: str) -> int:
        removed = len(self._actions.get(signal_set_name, []))
        self._actions.pop(signal_set_name, None)
        return removed

    def actions_for(self, signal_set_name: str) -> List[ActionRecord]:
        return list(self._actions.get(signal_set_name, []))

    @property
    def action_count(self) -> int:
        return sum(len(records) for records in self._actions.values())

    # -- broadcasting -----------------------------------------------------------

    def process_signal_set(
        self,
        signal_set: SignalSet,
        completion_status: Optional[CompletionStatus] = None,
    ) -> Outcome:
        """Drive a whole SignalSet to completion and return its outcome."""
        guard = (
            signal_set
            if isinstance(signal_set, GuardedSignalSet)
            else GuardedSignalSet(signal_set)
        )
        if completion_status is not None:
            guard.set_completion_status(completion_status)
        name = guard.signal_set_name
        log = self.event_log
        log.record("get_signal", activity=self.activity_id, signal_set=name)
        signal, last = guard.get_signal()
        while signal is not None:
            records = self.actions_for(name)
            prepared_map = self._prepare_broadcast(records, signal)
            transmissions = [
                self._transmission(index, record, signal, prepared_map)
                for index, record in enumerate(records)
            ]

            def on_transmit(transmission: Transmission, stamped: Signal) -> None:
                log.record(
                    "transmit",
                    activity=self.activity_id,
                    signal_set=name,
                    signal=stamped.signal_name,
                    action=transmission.label,
                )

            def digest(
                transmission: Transmission, stamped: Signal, outcome: Outcome
            ) -> bool:
                log.record(
                    "set_response",
                    activity=self.activity_id,
                    signal_set=name,
                    signal=stamped.signal_name,
                    action=transmission.label,
                    outcome=outcome.name,
                    error=outcome.is_error,
                )
                return guard.set_response(outcome)

            interrupted = self.executor.broadcast(
                transmissions, on_transmit, digest, timeout=self.action_timeout
            )
            if not interrupted and guard.finish_broadcast():
                break
            log.record("get_signal", activity=self.activity_id, signal_set=name)
            signal, last = guard.get_signal()
        outcome = guard.get_outcome()
        log.record(
            "get_outcome",
            activity=self.activity_id,
            signal_set=name,
            outcome=outcome.name,
            error=outcome.is_error,
        )
        return outcome

    def _prepare_broadcast(
        self, records: List[ActionRecord], signal: Signal
    ) -> Optional[Dict[int, Any]]:
        """Marshal-once: pre-encode this round's request per target ORB.

        All stamped transmissions of one broadcast differ only in their
        delivery id (and target object), so remote sends share one
        :class:`~repro.orb.core.PreparedInvocation` per ORB, built here
        on the calling thread — broadcast workers only read the map.
        Only targets that leave their ORB prime one: a collocated call
        carries values, not bytes, and ignores templates.  An
        ORB under the caches-off reference (:attr:`Orb.caches_enabled`)
        gets no template, and neither does a payload that cannot be
        marshalled (:class:`MarshalError`): those sends take the plain
        path and keep its error semantics; any other error propagates.
        """
        prepared: Dict[int, Any] = {}
        for record in records:
            action = record.action
            if not isinstance(action, ObjectRef) or not action.is_bound:
                continue
            orb = action.orb
            if orb.has_node(action.node_id):
                continue
            key = id(orb)
            if key in prepared:
                continue
            if not orb.caches_enabled:
                prepared[key] = None
                continue
            try:
                template_signal = signal.with_delivery_id(
                    PayloadSlot(_DELIVERY_ID_SLOT)
                )
                prepared[key] = orb.prepare_invocation(
                    "process_signal", (template_signal,)
                )
            except MarshalError:
                prepared[key] = None
        return prepared or None

    def _transmission(
        self,
        index: int,
        record: ActionRecord,
        signal: Signal,
        prepared_map: Optional[Dict[int, Any]] = None,
    ) -> Transmission:
        """Plan one logical transmission of ``signal`` to ``record``.

        Executors call ``stamp`` from the coordinator's thread in
        registration order, so ids are deterministic per executor.  The
        serial executor stamps lazily (an abandoned broadcast consumes no
        ids for its skipped tail — byte-identical to the historical
        loop); the pool executor stamps every transmission at submission,
        so after an abandonment the two executors' id *sequences* may
        diverge, while ids within one run stay unique and ordered.
        """

        def stamp() -> Signal:
            return signal.with_delivery_id(self._ids.next("delivery"))

        def send(stamped: Signal) -> Outcome:
            return self.delivery.deliver(
                lambda s, r=record: self._invoke(r, s, prepared_map), stamped
            )

        return Transmission(index=index, label=record.label, stamp=stamp, send=send)

    def _invoke(
        self,
        record: ActionRecord,
        signal: Signal,
        prepared_map: Optional[Dict[int, Any]] = None,
    ) -> Outcome:
        """One attempt at sending ``signal`` to one action.

        ActionError (and unexpected application failures) become error
        outcomes for the SignalSet to digest; CommunicationError escapes
        so the delivery policy can retry.  Remote sends reuse the
        broadcast's prepared request body when one was built (patching
        the stamped delivery id into the template) — the wire bytes are
        identical to a plain invoke.
        """
        try:
            if isinstance(record.action, ObjectRef):
                prepared = (
                    prepared_map.get(id(record.action.orb))
                    if prepared_map is not None and record.action.is_bound
                    else None
                )
                if prepared is not None:
                    result = record.action.orb.invoke(
                        record.action,
                        "process_signal",
                        (signal,),
                        {},
                        prepared=prepared,
                        slots={_DELIVERY_ID_SLOT: signal.delivery_id},
                    )
                else:
                    result = record.action.invoke("process_signal", signal)
            else:
                result = record.action.process_signal(signal)
        except CommunicationError:
            raise
        except ActionError as exc:
            return Outcome.error(data=str(exc))
        except Exception as exc:  # noqa: BLE001 - action bugs must not kill the protocol
            return Outcome.error(data=f"{type(exc).__name__}: {exc}")
        if not isinstance(result, Outcome):
            return Outcome.done(result)
        return result
