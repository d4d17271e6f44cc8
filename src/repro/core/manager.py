"""The ActivityManager: system-facing entry point of the Activity Service.

Fig. 13 of the paper splits the service's API into ``ActivityManager``
(used by high-level services to configure coordination: plug in
SignalSets, register recoverable Action factories) and ``UserActivity``
(application-facing demarcation).  This class is the former; it also owns
the registry of live activities, the property-group factories, timeout
policing, ORB installation (context-propagation interceptors) and the
checkpoint store used for activity-structure recovery (§3.4).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.config import RuntimeConfig
from repro.core.action import Action
from repro.core.activity import Activity
from repro.core.broadcast import SerialBroadcastExecutor
from repro.core.current import ActivityCurrent
from repro.core.delivery import AtLeastOnceDelivery, DeliveryPolicy
from repro.core.exceptions import ActivityServiceError, RecoveryError
from repro.core.interposition import ActivityInterposer, install_interposition
from repro.core.property_group import PropertyGroupManager
from repro.core.signal_set import SignalSet
from repro.core.status import CompletionStatus
from repro.orb.core import Node, Orb
from repro.orb.reference import ObjectRef
from repro.persistence.object_store import ObjectStore
from repro.util.admission import AdmissionGate, build_gate
from repro.util.clock import Clock, SimulatedClock, TimerQueue
from repro.util.events import EventLog
from repro.util.idgen import IdGenerator
from repro.util.sharding import StripedMap

SignalSetFactory = Callable[..., SignalSet]
ActionFactory = Callable[[Dict[str, Any]], Action]


class ActivityManager:
    """Creates, tracks, recovers and distributes activities.

    Tuning lives in :class:`~repro.config.RuntimeConfig` (see its
    docstring for the knobs and defaults).

    Control-plane scaling:

    - ``registry_shards`` stripes the live-activity registry into
      independently locked segments, so concurrent ``begin`` /
      ``complete`` / ``get`` from broadcast worker threads don't
      serialise on one dict;
    - every timed activity arms one timer on the manager's private
      :class:`~repro.util.clock.TimerQueue` (cancelled when the activity
      completes), and :meth:`expire_timeouts` fires only the timers
      strictly past their deadline, so a sweep costs O(expiring), not
      O(live).  Activities expire only when polled, never during a clock
      advance.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        event_log: Optional[EventLog] = None,
        delivery: Optional[DeliveryPolicy] = None,
        store: Optional[ObjectStore] = None,
        property_groups: Optional[PropertyGroupManager] = None,
        executor: Optional[SerialBroadcastExecutor] = None,
        action_timeout: Optional[float] = None,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.config = config = config if config is not None else RuntimeConfig()
        self.clock = clock if clock is not None else SimulatedClock()
        self.event_log = (
            event_log
            if event_log is not None
            else EventLog(self.clock, max_events=config.max_events)
        )
        # Admission control (PR 10): None unless max_live is configured,
        # so the default begin path is exactly the pre-gate code.
        self.admission: Optional[AdmissionGate] = build_gate(
            config, name="ActivityManager"
        )
        self.delivery = delivery if delivery is not None else AtLeastOnceDelivery()
        # Broadcast executor shared by every activity this manager begins
        # (None → each coordinator defaults to the serial executor).
        self.executor = executor
        self.action_timeout = action_timeout
        self.store = store
        self.property_groups = (
            property_groups if property_groups is not None else PropertyGroupManager()
        )
        self.current = ActivityCurrent(self)
        self.ids = IdGenerator()
        self.orb: Optional[Orb] = None
        self._activities = StripedMap(shards=config.registry_shards)
        self._signal_set_factories: Dict[str, SignalSetFactory] = {}
        self._action_factories: Dict[str, ActionFactory] = {}
        self.begun = 0
        self.completed = 0
        self._counter_lock = threading.Lock()
        self._begin_order = itertools.count()
        self._deadlines = TimerQueue()
        # Set by install() on a federated ORB: every coordinator this
        # manager creates then reroutes cross-domain action registrations
        # through one interposed subordinate per domain.
        self.interposer: Optional[ActivityInterposer] = None

    # -- creation ------------------------------------------------------------

    def begin(
        self,
        name: Optional[str] = None,
        parent: Optional[Activity] = None,
        timeout: float = 0.0,
        executor: Optional[SerialBroadcastExecutor] = None,
    ) -> Activity:
        """Create (and start) a new activity.

        ``executor`` overrides the manager-wide broadcast executor for
        this one activity (models like sagas route their compensation
        fan-out through a dedicated executor this way).

        With admission control configured (``RuntimeConfig.max_live``),
        a begin past the live-population cap raises
        :class:`~repro.exceptions.AdmissionRejected` before any state is
        created; the slot is returned when the activity completes.
        """
        admitted = False
        if self.admission is not None:
            self.admission.admit()
            admitted = True
        try:
            activity_id = self.ids.next("activity")
            activity = Activity(
                activity_id=activity_id,
                name=name,
                parent=parent,
                manager=self,
                event_log=self.event_log,
                delivery=self.delivery,
                timeout=timeout,
                clock=self.clock,
                executor=executor if executor is not None else self.executor,
                action_timeout=self.action_timeout,
                interposer=self.interposer,
            )
            self._attach_property_groups(activity, parent)
            activity.begin_seq = next(self._begin_order)
            self._activities.put(activity_id, activity)
        except BaseException:
            if admitted:
                self.admission.release()
            raise
        activity._admitted = admitted
        with self._counter_lock:
            self.begun += 1
        self._arm_expiry_timer(activity)
        self.event_log.record(
            "activity_begin",
            activity=activity_id,
            name=activity.name,
            parent=parent.activity_id if parent is not None else None,
        )
        return activity

    def _arm_expiry_timer(self, activity: Activity) -> None:
        if activity.deadline is not None:
            activity._expiry_timer = self._deadlines.call_at(
                activity.deadline, payload=activity.activity_id
            )

    def _attach_property_groups(
        self, activity: Activity, parent: Optional[Activity]
    ) -> None:
        if parent is not None:
            for group in parent.property_groups():
                activity.attach_property_group(group.child_view())
        else:
            for group in self.property_groups.create_all().values():
                activity.attach_property_group(group)

    # -- registry ----------------------------------------------------------------

    def get(self, activity_id: str) -> Activity:
        activity = self._activities.get(activity_id)
        if activity is None:
            raise ActivityServiceError(f"unknown activity {activity_id!r}")
        return activity

    def knows(self, activity_id: str) -> bool:
        return activity_id in self._activities

    def active_activities(self) -> List[Activity]:
        """Live activities in begin order (stable across shard layouts)."""
        active = [
            activity
            for activity in self._activities.values()
            if not activity.status.is_terminal
        ]
        active.sort(key=lambda activity: activity.begin_seq)
        return active

    def on_activity_completed(self, activity: Activity) -> None:
        with self._counter_lock:
            self.completed += 1
        if getattr(activity, "_admitted", False):
            # Release exactly once even if completion is re-reported;
            # adopted/recovered activities never set the flag.
            activity._admitted = False
            if self.admission is not None:
                self.admission.release()
        handle = activity._expiry_timer
        if handle is not None:
            handle.cancel()
            activity._expiry_timer = None
        if self.store is not None:
            self.checkpoint(activity)
        if activity.parent is None:
            # A completed tree is never resumed or signalled again: drop
            # it and every descendant, so the registry holds live work
            # and its coordinators, records and outcomes can be freed.
            pending = [activity]
            while pending:
                done = pending.pop()
                self._activities.pop(done.activity_id)
                pending.extend(done.children)

    # -- timeouts ------------------------------------------------------------------

    def expire_timeouts(self) -> List[str]:
        """Latch FAIL_ONLY onto every active activity past its deadline.

        Only timers strictly past their deadline fire (``now >
        deadline``: an activity whose deadline is exactly now waits for
        the next sweep).  Due activities are latched in begin order, so
        the events and the returned ids do not depend on deadline order
        or shard layout; one already latched to FAIL_ONLY is not
        reported.
        """
        due = []
        for timer in self._deadlines.fire_due(self.clock.now(), strict=True):
            activity = self._activities.get(timer.payload)
            if activity is not None:
                due.append(activity)
        due.sort(key=lambda activity: activity.begin_seq)
        expired = []
        for activity in due:
            if (
                not activity.status.is_terminal
                and activity.get_completion_status() is not CompletionStatus.FAIL_ONLY
            ):
                activity.set_completion_status(CompletionStatus.FAIL_ONLY)
                expired.append(activity.activity_id)
        return expired

    # -- distribution -----------------------------------------------------------------

    def install(self, orb: Orb) -> None:
        """Wire activity-context propagation into an ORB.

        On a federated ORB the manager also interposes: it serves its
        domain's interposition endpoint and routes foreign actions
        through one subordinate per domain.
        """
        from repro.core import exceptions as core_exceptions
        from repro.core.context import ActivityClientInterceptor, ActivityServerInterceptor

        self.orb = orb
        if orb.federation is not None:
            self.interposer = install_interposition(self)
        orb.interceptors.add_client(ActivityClientInterceptor(self.current, orb=orb))
        orb.interceptors.add_server(ActivityServerInterceptor(orb, self))
        for name in (
            "ActionError",
            "SignalSetActive",
            "SignalSetInactive",
            "InvalidActivityState",
            "ActivityPending",
            "ActivityCompleted",
            "NoActivity",
            "CompletionStatusLatched",
            "NoSuchSignalSet",
            "NoSuchPropertyGroup",
            "PropertyGroupError",
            "ActivityServiceError",
        ):
            orb.register_exception(getattr(core_exceptions, name))

    def export(self, activity: Activity, node: Node) -> ObjectRef:
        """Activate an activity as a servant so peers can enlist remotely."""
        return node.activate(
            activity, object_id=f"activity:{activity.activity_id}", durable=True
        )

    def export_property_group(self, group: Any, node: Node) -> ObjectRef:
        """Activate a property group for by-reference propagation."""
        ref = node.activate(group, object_id=f"pg:{group.name}:{id(group):x}")
        setattr(group, "exported_ref", ref)
        return ref

    # -- recovery plumbing (used by core.recovery) ---------------------------------------

    def register_signal_set_factory(self, name: str, factory: SignalSetFactory) -> None:
        self._signal_set_factories[name] = factory

    def register_action_factory(self, name: str, factory: ActionFactory) -> None:
        self._action_factories[name] = factory

    def make_signal_set(self, factory_name: str) -> SignalSet:
        try:
            factory = self._signal_set_factories[factory_name]
        except KeyError:
            raise RecoveryError(f"no signal-set factory {factory_name!r}") from None
        return factory()

    def make_action(self, factory_name: str, config: Dict[str, Any]) -> Action:
        try:
            factory = self._action_factories[factory_name]
        except KeyError:
            raise RecoveryError(f"no action factory {factory_name!r}") from None
        return factory(config)

    def checkpoint(self, activity: Activity) -> None:
        from repro.core.recovery import ActivityRecoveryService

        if self.store is None:
            raise RecoveryError("manager has no checkpoint store")
        ActivityRecoveryService(self, self.store).checkpoint(activity)

    def recover(self) -> List[str]:
        """Rebuild the activity structure from the checkpoint store.

        Returns the ids of recovered activities that are still in flight
        (application logic must drive them to completion, §3.4).
        """
        from repro.core.recovery import ActivityRecoveryService

        if self.store is None:
            raise RecoveryError("manager has no checkpoint store")
        return ActivityRecoveryService(self, self.store).recover()

    def adopt(self, activity: Activity) -> None:
        """Install a recovered activity into the registry (recovery only)."""
        activity.begin_seq = next(self._begin_order)
        self._activities.put(activity.activity_id, activity)
        if not activity.status.is_terminal:
            self._arm_expiry_timer(activity)
