"""WSCF activation/registration services and protocol coordination.

The shape follows the HP submission the paper cites [21] (the lineage of
WS-Coordination): an *activation service* creates a
:class:`CoordinationContext` of a given coordination type; participants
*register* for a named protocol of that context through a *registration
service*; the coordinator terminates the context by driving the
protocol's SignalSet over the registered participants.

There is deliberately **no OTS underneath**: the atomic protocol here is
the :class:`~repro.models.twopc.TwoPhaseCommitSignalSet` running directly
on the Activity Service — transactions constructed on top of the
framework, per §5.2.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Tuple, Union

from repro.core.action import Action
from repro.core.activity import Activity
from repro.core.broadcast import SerialBroadcastExecutor
from repro.core.interposition import (
    SubordinateCoordinator,
    local_subordinate,
    subordinate_object_id,
    subordinate_ref,
)
from repro.core.manager import ActivityManager
from repro.core.signals import Outcome
from repro.core.status import CompletionStatus
from repro.exceptions import CommunicationError, ObjectNotExist, ReproError
from repro.models.btp import (
    COMPLETE_SET as BTP_COMPLETE_SET,
    PREPARE_SET as BTP_PREPARE_SET,
    BtpCompleteSignalSet,
    BtpPrepareSignalSet,
)
from repro.models.twopc import SET_NAME as TWOPC_SET
from repro.models.twopc import TwoPhaseCommitSignalSet
from repro.orb.core import Servant
from repro.orb.federation import coordination_node_id
from repro.orb.marshal import GLOBAL_REGISTRY
from repro.orb.reference import ObjectRef
from repro.util.records import FrozenRecord

PROTOCOL_ATOMIC = "wscf:atomic-outcome"
PROTOCOL_BUSINESS = "wscf:business-outcome"
# Object id of a domain's published registration service on its
# coordination node.
WSCF_SERVANT_ID = "wscf"
# Outcomes of terminated contexts kept for outcome_of(), oldest dropped first.
OUTCOME_TOMBSTONE_LIMIT = 1024
# The signal sets a participant joins, by coordination type.
PROTOCOL_SETS = {
    PROTOCOL_ATOMIC: [TWOPC_SET],
    PROTOCOL_BUSINESS: [BTP_PREPARE_SET, BTP_COMPLETE_SET],
}


class WscfError(ReproError):
    """Coordination framework misuse."""


@GLOBAL_REGISTRY.register_slotted
class CoordinationContext(FrozenRecord):
    """The token a coordinator hands to prospective participants.

    ``domain_id`` names the coordination domain that issued the context
    (None outside a federation): a participant in another domain can
    tell it is registering across an inter-ORB bridge — which is what
    lets a federated registration service interpose a local subordinate
    instead of enrolling every participant with the remote coordinator.
    """

    __slots__ = ("context_id", "coordination_type", "domain_id")
    _fields: ClassVar[Tuple[str, ...]] = __slots__

    def __init__(
        self,
        context_id: str,
        coordination_type: str,
        domain_id: Optional[str] = None,
    ) -> None:
        self._init(
            context_id=context_id,
            coordination_type=coordination_type,
            domain_id=domain_id,
        )


class WscfCoordinator:
    """Owns the activities and signal sets behind issued contexts.

    ``executor`` selects the broadcast engine used when a context is
    terminated (or prepared): the default drives registered participants
    serially; a :class:`~repro.core.broadcast.ThreadPoolBroadcastExecutor`
    contacts them concurrently, which is what makes an atomic-outcome
    context with many participants terminate in one hop latency instead
    of N.  When a ``manager`` is supplied it wins — its own executor
    configuration governs every activity it begins.  A terminated context
    is forgotten here and by each foreign subordinate enlisted in it.
    """

    def __init__(
        self,
        manager: Optional[ActivityManager] = None,
        executor: Optional[SerialBroadcastExecutor] = None,
        action_timeout: Optional[float] = None,
    ) -> None:
        if manager is None:
            manager = ActivityManager(
                executor=executor, action_timeout=action_timeout
            )
        self.manager = manager
        self._contexts: Dict[str, CoordinationContext] = {}
        self._activities: Dict[str, Activity] = {}
        self._terminated: Dict[str, Outcome] = {}
        self.interposed_registrations = 0
        self._published = False

    # -- federation ------------------------------------------------------------

    def _publish(self) -> None:
        """Serve this coordinator's registrations at ``fed:<domain>/wscf``.

        Idempotent and automatic: the first context issued on a federated
        manager publishes the coordinator, so a peer domain's
        registration service can enlist its subordinate with one call.
        """
        orb = self.manager.orb
        if self._published or orb is None or orb.federation is None:
            return
        node = orb.federation.coordination_node(orb.domain_id)
        if node.has_object(WSCF_SERVANT_ID):
            node.deactivate(WSCF_SERVANT_ID)
        node.activate(
            RegistrationService(self),
            object_id=WSCF_SERVANT_ID,
            interface="RegistrationService",
            durable=True,
        )
        self._published = True

    # -- activation ------------------------------------------------------------

    def create_context(self, coordination_type: str) -> CoordinationContext:
        if coordination_type not in (PROTOCOL_ATOMIC, PROTOCOL_BUSINESS):
            raise WscfError(f"unknown coordination type {coordination_type!r}")
        self._publish()
        activity = self.manager.begin(name=f"wscf:{coordination_type}")
        orb = self.manager.orb
        context = CoordinationContext(
            context_id=activity.activity_id,
            coordination_type=coordination_type,
            domain_id=orb.domain_id if orb is not None else None,
        )
        self._contexts[context.context_id] = context
        self._activities[context.context_id] = activity
        if coordination_type == PROTOCOL_ATOMIC:
            activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
        else:
            activity.register_signal_set(BtpPrepareSignalSet())
            activity.register_signal_set(BtpCompleteSignalSet(), completion=True)
        return context

    # -- registration -------------------------------------------------------------

    def register(
        self,
        context: Union[str, CoordinationContext],
        participant: Union[Action, ObjectRef],
        protocol: Optional[str] = None,
    ) -> None:
        """Enlist ``participant`` with the context's coordinator.

        ``context`` may be a bare context id (historical form, always
        local) or the full :class:`CoordinationContext` token.  When the
        token's ``domain_id`` names a *foreign* federation domain, the
        registration auto-interposes: the participant enlists with a
        local :class:`~repro.core.interposition.SubordinateCoordinator`
        and only the subordinate — once per context — registers with the
        issuing domain's coordinator, so broadcast traffic across the
        bridge stays O(1) per signal regardless of local participants.
        """
        if isinstance(context, CoordinationContext) and self._is_foreign(context):
            self._register_interposed(context, participant)
            return
        context_id = (
            context.context_id
            if isinstance(context, CoordinationContext)
            else context
        )
        activity = self._activity(context_id)
        for set_name in PROTOCOL_SETS[self._contexts[context_id].coordination_type]:
            activity.add_action(set_name, participant)

    def _is_foreign(self, context: CoordinationContext) -> bool:
        orb = self.manager.orb
        if context.domain_id is None or orb is None or orb.federation is None:
            return False
        return context.domain_id != orb.domain_id

    def _register_interposed(
        self,
        context: CoordinationContext,
        participant: Union[Action, ObjectRef],
    ) -> None:
        subordinate = self.subordinate_for(context.context_id)
        if subordinate is None:
            # The one registration that reaches the issuing domain: this
            # domain's subordinate, whose ref routes signals back here.
            orb = self.manager.orb
            sub_ref = subordinate_ref(orb.domain_id, context.context_id).bind(orb)
            issuing = ObjectRef(
                coordination_node_id(context.domain_id), WSCF_SERVANT_ID, "RegistrationService"
            ).bind(orb)
            try:
                issuing.invoke("register_participant", context.context_id, sub_ref)
            except ObjectNotExist:
                raise WscfError(
                    f"domain {context.domain_id!r} publishes no wscf coordinator"
                ) from None
            subordinate = local_subordinate(self.manager, context.context_id)
        for set_name in PROTOCOL_SETS[context.coordination_type]:
            subordinate.register(set_name, participant)
        self.interposed_registrations += 1

    def subordinate_for(self, context_id: str) -> Optional[SubordinateCoordinator]:
        """The local subordinate interposed for a foreign context: it
        lives on this domain's coordination node until that context's
        termination has it forget."""
        orb = self.manager.orb
        if orb is None or orb.federation is None:
            return None
        node = orb.federation.coordination_node(orb.domain_id)
        object_id = subordinate_object_id(context_id)
        return node.servant(object_id) if node.has_object(object_id) else None

    # -- termination -----------------------------------------------------------------

    def prepare(self, context_id: str) -> Outcome:
        """Business-outcome contexts: drive the explicit prepare phase."""
        context = self._contexts.get(context_id)
        if context is None or context.coordination_type != PROTOCOL_BUSINESS:
            raise WscfError("prepare applies to business-outcome contexts only")
        return self._activity(context_id).signal(BTP_PREPARE_SET)

    def terminate(self, context_id: str, success: bool = True) -> Outcome:
        activity = self._activity(context_id)
        status = CompletionStatus.SUCCESS if success else CompletionStatus.FAIL
        outcome = activity.complete(status)
        self._terminated[context_id] = outcome
        if len(self._terminated) > OUTCOME_TOMBSTONE_LIMIT:
            del self._terminated[next(iter(self._terminated))]
        del self._activities[context_id]
        # Each foreign subordinate sits in every set of the protocol: the
        # last set lists each once.
        last_set = PROTOCOL_SETS[self._contexts.pop(context_id).coordination_type][-1]
        for record in activity.coordinator.actions_for(last_set):
            if getattr(record.action, "object_id", None) == subordinate_object_id(context_id):
                try:
                    record.action.invoke("forget")
                except (CommunicationError, ObjectNotExist) as exc:  # the outcome stands
                    self.manager.event_log.record("wscf_forget_failed", error=str(exc))
        return outcome

    def outcome_of(self, context_id: str) -> Optional[Outcome]:
        return self._terminated.get(context_id)

    def _activity(self, context_id: str) -> Activity:
        try:
            return self._activities[context_id]
        except KeyError:
            raise WscfError(f"unknown or terminated context {context_id!r}") from None


class ActivationService(Servant):
    """Remote-invocable facade over :meth:`WscfCoordinator.create_context`."""

    def __init__(self, coordinator: WscfCoordinator) -> None:
        self._coordinator = coordinator

    def create_coordination_context(self, coordination_type: str) -> CoordinationContext:
        return self._coordinator.create_context(coordination_type)


class RegistrationService(Servant):
    """Remote-invocable facade over :meth:`WscfCoordinator.register`."""

    def __init__(self, coordinator: WscfCoordinator) -> None:
        self._coordinator = coordinator

    def register_participant(
        self, context_id: str, participant_ref: ObjectRef, protocol: str = ""
    ) -> bool:
        self._coordinator.register(context_id, participant_ref, protocol or None)
        return True
