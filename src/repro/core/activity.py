"""The Activity object (§3.1, §3.2).

An activity is a unit of (distributed) work that may or may not be
transactional.  It is created, made to run, and completed; its result is
an :class:`~repro.core.signals.Outcome`.  Activities nest, can be
suspended and resumed, carry :class:`PropertyGroup` instances, and own an
:class:`~repro.core.coordinator.ActivityCoordinator` through which
SignalSets drive registered Actions.

Completion-status discipline follows §3.2.1: SUCCESS ↔ FAIL may flip
arbitrarily, FAIL_ONLY latches.  Completing an activity whose children
are still active raises :class:`ActivityPending`.  A timed-out activity
latches to FAIL_ONLY.

Activity instances are valid servants: their public methods (``add_action``,
``set_completion_status``, ``signal_set_completed`` …) can be invoked
remotely on an exported reference, which is how one activity enlists with
another across nodes (as in the paper's workflow and BTP examples).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.coordinator import ActionRecord, ActivityCoordinator, ActionLike
from repro.core.exceptions import (
    ActivityCompleted,
    ActivityPending,
    CompletionStatusLatched,
    InvalidActivityState,
    NoSuchPropertyGroup,
    NoSuchSignalSet,
)
from repro.core.property_group import PropertyGroup
from repro.core.signal_set import SignalSet
from repro.core.signals import Outcome, Signal
from repro.core.status import ActivityStatus, CompletionStatus
from repro.util.events import EventLog


class Activity:
    """One activity: lifecycle + coordination surface.

    Create through :class:`~repro.core.manager.ActivityManager` (which
    wires clock, event log, delivery policy and property groups) rather
    than directly.
    """

    def __init__(
        self,
        activity_id: str,
        name: Optional[str] = None,
        parent: Optional["Activity"] = None,
        manager: Optional[Any] = None,
        event_log: Optional[EventLog] = None,
        delivery: Optional[Any] = None,
        timeout: float = 0.0,
        clock: Optional[Any] = None,
        executor: Optional[Any] = None,
        action_timeout: Optional[float] = None,
        interposer: Optional[Any] = None,
    ) -> None:
        self.activity_id = activity_id
        self.name = name if name is not None else activity_id
        self.parent = parent
        self.manager = manager
        self.children: List[Activity] = []
        self.status = ActivityStatus.ACTIVE
        self._completion_status = CompletionStatus.SUCCESS
        self.outcome: Optional[Outcome] = None
        self._clock = clock
        self.deadline: Optional[float] = (
            clock.now() + timeout if (clock is not None and timeout > 0) else None
        )
        self.event_log = event_log if event_log is not None else EventLog()
        self.coordinator = ActivityCoordinator(
            activity_id,
            event_log=self.event_log,
            delivery=delivery,
            executor=executor,
            action_timeout=action_timeout,
            interposer=interposer,
        )
        self._signal_sets: Dict[str, SignalSet] = {}
        self._completion_signal_set: Optional[str] = None
        self._used_signal_sets: List[SignalSet] = []
        self._property_groups: Dict[str, PropertyGroup] = {}
        # Invocation fast path: last (version vector, wire context) pair
        # built for this activity (see repro.core.context.snapshot_context).
        self._context_snapshot: Optional[Any] = None
        # Registry bookkeeping: position in the manager's begin order
        # (stable iteration under the sharded registry) and the armed
        # deadline timer, cancelled when the activity completes.
        self.begin_seq: int = 0
        self._expiry_timer: Optional[Any] = None
        if parent is not None:
            parent.children.append(self)

    # -- structure ---------------------------------------------------------

    @property
    def is_top_level(self) -> bool:
        return self.parent is None

    @property
    def depth(self) -> int:
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def root(self) -> "Activity":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def active_children(self) -> List["Activity"]:
        return [child for child in self.children if not child.status.is_terminal]

    # -- completion status (§3.2.1) --------------------------------------------

    def get_completion_status(self) -> CompletionStatus:
        return self._completion_status

    def set_completion_status(self, status: CompletionStatus) -> None:
        if not self._completion_status.may_become(status):
            raise CompletionStatusLatched(
                f"activity {self.activity_id} is FailOnly; cannot become {status.value}"
            )
        self._completion_status = status
        self.event_log.record(
            "completion_status", activity=self.activity_id, status=status.name
        )

    # -- lifecycle -----------------------------------------------------------------

    def _check_not_completed(self) -> None:
        if self.status.is_terminal:
            raise ActivityCompleted(f"activity {self.activity_id} already completed")

    def _check_timeout(self) -> None:
        if (
            self.deadline is not None
            and self._clock is not None
            and self._clock.now() > self.deadline
            and self._completion_status is not CompletionStatus.FAIL_ONLY
        ):
            # A timed-out activity can only fail.
            self._completion_status = CompletionStatus.FAIL_ONLY
            self.event_log.record("activity_timeout", activity=self.activity_id)

    def suspend(self) -> None:
        self._check_not_completed()
        if self.status is not ActivityStatus.ACTIVE:
            raise InvalidActivityState(
                f"cannot suspend activity in state {self.status.value}"
            )
        self.status = ActivityStatus.SUSPENDED
        self.event_log.record("activity_suspend", activity=self.activity_id)

    def resume(self) -> None:
        self._check_not_completed()
        if self.status is not ActivityStatus.SUSPENDED:
            raise InvalidActivityState(
                f"cannot resume activity in state {self.status.value}"
            )
        self.status = ActivityStatus.ACTIVE
        self.event_log.record("activity_resume", activity=self.activity_id)

    def complete(self, status: Optional[CompletionStatus] = None) -> Outcome:
        """Run the completion SignalSet and finish this activity.

        ``status`` (if given) is applied first, subject to FAIL_ONLY
        latching.  Active children must complete before their parent.
        """
        self._check_not_completed()
        if self.status is ActivityStatus.SUSPENDED:
            raise InvalidActivityState(
                f"activity {self.activity_id} is suspended; resume before completing"
            )
        self._check_timeout()
        if status is not None:
            self.set_completion_status(status)
        pending = self.active_children()
        if pending:
            raise ActivityPending(
                f"activity {self.activity_id} has {len(pending)} active children"
            )
        self.status = ActivityStatus.COMPLETING
        self.event_log.record(
            "activity_completing",
            activity=self.activity_id,
            completion_status=self._completion_status.name,
        )
        if self._completion_signal_set is not None:
            signal_set = self._signal_sets[self._completion_signal_set]
            outcome = self._process(signal_set)
        else:
            success = self._completion_status is CompletionStatus.SUCCESS
            outcome = Outcome.done() if success else Outcome.error("completed in failure")
        self.outcome = outcome
        self.status = ActivityStatus.COMPLETED
        self.event_log.record(
            "activity_completed",
            activity=self.activity_id,
            outcome=outcome.name,
            error=outcome.is_error,
        )
        if self.manager is not None:
            self.manager.on_activity_completed(self)
        return outcome

    # -- signal sets ---------------------------------------------------------------

    def register_signal_set(
        self,
        signal_set: SignalSet,
        completion: bool = False,
        factory_name: Optional[str] = None,
    ) -> None:
        """Attach a SignalSet instance (optionally as the completion set).

        ``factory_name`` marks the set recoverable: after a crash the
        recovery manager re-instantiates it via the manager's registered
        signal-set factory of that name.
        """
        self._check_not_completed()
        name = signal_set.signal_set_name
        if any(used is signal_set for used in self._used_signal_sets):
            raise NoSuchSignalSet(
                f"signal set instance {name!r} already ran for activity "
                f"{self.activity_id}; sets are not reusable (fig. 7) — "
                "register a fresh instance"
            )
        self._signal_sets[name] = signal_set
        if factory_name is not None:
            setattr(signal_set, "_factory_name", factory_name)
        if completion:
            self._completion_signal_set = name
        self.event_log.record(
            "register_signal_set",
            activity=self.activity_id,
            signal_set=name,
            completion=completion,
        )

    def signal_set(self, name: str) -> SignalSet:
        try:
            return self._signal_sets[name]
        except KeyError:
            raise NoSuchSignalSet(
                f"activity {self.activity_id} has no signal set {name!r}"
            ) from None

    def signal_set_names(self) -> List[str]:
        return sorted(self._signal_sets)

    @property
    def completion_signal_set_name(self) -> Optional[str]:
        return self._completion_signal_set

    def signal(self, signal_set_name: str) -> Outcome:
        """Trigger a registered SignalSet now (signals may be sent at
        arbitrary points during the activity's lifetime, §3.1)."""
        self._check_not_completed()
        signal_set = self.signal_set(signal_set_name)
        return self._process(signal_set)

    def _process(self, signal_set: SignalSet) -> Outcome:
        outcome = self.coordinator.process_signal_set(
            signal_set, completion_status=self._completion_status
        )
        name = signal_set.signal_set_name
        self._signal_sets.pop(name, None)
        self._used_signal_sets.append(signal_set)
        if self._completion_signal_set == name:
            self._completion_signal_set = None
        return outcome

    # -- actions ----------------------------------------------------------------------

    def add_action(
        self,
        signal_set_name: str,
        action: ActionLike,
        factory_name: Optional[str] = None,
        factory_config: Optional[Dict[str, Any]] = None,
    ) -> ActionRecord:
        """Register ``action`` with this activity's coordinator for the
        named SignalSet (local object or remote ObjectRef)."""
        self._check_not_completed()
        return self.coordinator.add_action(
            signal_set_name,
            action,
            factory_name=factory_name,
            factory_config=factory_config,
        )

    def enlist(self, signal_set_name: str, action: ActionLike) -> str:
        """Remote-friendly :meth:`add_action`: returns the action id only
        (an ActionRecord holds live objects and cannot cross the wire)."""
        return self.add_action(signal_set_name, action).action_id

    def remove_action(self, record: ActionRecord) -> None:
        self.coordinator.remove_action(record)

    # -- property groups ------------------------------------------------------------------

    def attach_property_group(self, group: PropertyGroup) -> None:
        self._property_groups[group.name] = group

    def get_property_group(self, name: str) -> PropertyGroup:
        try:
            return self._property_groups[name]
        except KeyError:
            raise NoSuchPropertyGroup(
                f"activity {self.activity_id} has no property group {name!r}"
            ) from None

    def property_group_names(self) -> List[str]:
        return sorted(self._property_groups)

    def property_groups(self) -> List[PropertyGroup]:
        return [self._property_groups[name] for name in sorted(self._property_groups)]

    # -- introspection (dispatchable) ----------------------------------------------------

    def get_status(self) -> ActivityStatus:
        return self.status

    def get_activity_id(self) -> str:
        return self.activity_id

    def get_activity_name(self) -> str:
        return self.name

    def get_outcome(self) -> Optional[Outcome]:
        return self.outcome

    def __repr__(self) -> str:
        return (
            f"Activity({self.activity_id}, {self.status.name}, "
            f"{self._completion_status.name})"
        )
