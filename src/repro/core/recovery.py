"""Activity-structure recovery (§3.4).

The paper's recovery requirements: *rebinding of the activity structure*
(references valid again after failure), *recover actions and signal sets*,
with the application's logic driving in-flight activities to consistency.

The division of labour here:

- the service checkpoints, per activity, everything it owns: identity,
  parentage, lifecycle state, completion status, the names of registered
  SignalSets and the factory names + configs of durable Actions;
- applications register *factories* for their signal sets and actions
  with the :class:`~repro.core.manager.ActivityManager`;
- ``recover()`` rebuilds the activity tree in parent-first order,
  re-instantiates signal sets and actions through those factories, and
  reports which activities are still in flight — the application then
  drives them (e.g. re-runs completion) exactly as it would at runtime.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.activity import Activity
from repro.core.exceptions import RecoveryError
from repro.core.status import ActivityStatus, CompletionStatus
from repro.persistence.object_store import ObjectStore

_RECORD_PREFIX = "activity-record:"


class ActivityRecoveryService:
    """Checkpoints and recovers the activity structure for one manager."""

    def __init__(self, manager: Any, store: ObjectStore) -> None:
        self.manager = manager
        self.store = store

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self, activity: Activity) -> None:
        """Persist one activity's structure record."""
        self.store.put(
            _RECORD_PREFIX + activity.activity_id, self._structure_record(activity)
        )

    def _structure_record(self, activity: Activity) -> Dict[str, Any]:
        """Build the durable structure record for one activity."""
        durable_actions = []
        coordinator = activity.coordinator
        for set_name in list(coordinator._actions):
            for record in coordinator.actions_for(set_name):
                if record.factory_name is not None:
                    durable_actions.append(
                        {
                            "signal_set": set_name,
                            "factory": record.factory_name,
                            "config": record.factory_config,
                        }
                    )
        durable_sets = []
        for set_name in activity.signal_set_names():
            signal_set = activity.signal_set(set_name)
            factory_name = getattr(signal_set, "_factory_name", None)
            if factory_name is not None:
                durable_sets.append(
                    {
                        "factory": factory_name,
                        "completion": activity.completion_signal_set_name == set_name,
                    }
                )
        return {
            "id": activity.activity_id,
            "name": activity.name,
            "parent": activity.parent.activity_id if activity.parent else None,
            "status": activity.status,
            "completion_status": activity.get_completion_status(),
            "signal_sets": durable_sets,
            "actions": durable_actions,
            # Deadlines survive recovery: a timed activity that crashes
            # mid-flight is still policed after restart (the manager
            # re-arms its deadline timer on adopt).
            "deadline": activity.deadline,
        }

    def checkpoint_tree(self, root: Activity) -> int:
        """Checkpoint ``root`` and every descendant in one batched store
        write (one flush however deep the tree); return count."""
        batch: Dict[str, Dict[str, Any]] = {}
        stack = [root]
        while stack:
            activity = stack.pop()
            batch[_RECORD_PREFIX + activity.activity_id] = self._structure_record(
                activity
            )
            stack.extend(activity.children)
        self.store.put_many(batch)
        return len(batch)

    def forget(self, activity_id: str) -> None:
        key = _RECORD_PREFIX + activity_id
        if self.store.contains(key):
            self.store.remove(key)

    # -- recovery ----------------------------------------------------------------

    def recover(self) -> List[str]:
        """Rebuild all checkpointed activities; return in-flight ids."""
        records: Dict[str, Dict[str, Any]] = {}
        for key in self.store.keys():
            if key.startswith(_RECORD_PREFIX):
                record = self.store.get(key)
                records[record["id"]] = record

        in_flight: List[str] = []
        built: Dict[str, Activity] = {}

        def build(activity_id: str) -> Activity:
            if activity_id in built:
                return built[activity_id]
            if self.manager.knows(activity_id):
                activity = self.manager.get(activity_id)
                built[activity_id] = activity
                return activity
            record = records.get(activity_id)
            if record is None:
                raise RecoveryError(
                    f"activity {activity_id!r} referenced but not checkpointed"
                )
            parent = build(record["parent"]) if record["parent"] else None
            activity = Activity(
                activity_id=record["id"],
                name=record["name"],
                parent=parent,
                manager=self.manager,
                event_log=self.manager.event_log,
                delivery=self.manager.delivery,
                clock=self.manager.clock,
                executor=self.manager.executor,
                action_timeout=self.manager.action_timeout,
                interposer=getattr(self.manager, "interposer", None),
            )
            activity.status = record["status"]
            if record["status"] is ActivityStatus.COMPLETING:
                # In-flight completion must be re-driven by the application.
                activity.status = ActivityStatus.ACTIVE
            # Pre-deadline checkpoints lack the key; .get keeps them readable.
            activity.deadline = record.get("deadline")
            if record["completion_status"] is not CompletionStatus.SUCCESS:
                activity.set_completion_status(record["completion_status"])
            for set_record in record["signal_sets"]:
                signal_set = self.manager.make_signal_set(set_record["factory"])
                activity.register_signal_set(
                    signal_set,
                    completion=set_record["completion"],
                    factory_name=set_record["factory"],
                )
            for action_record in record["actions"]:
                action = self.manager.make_action(
                    action_record["factory"], action_record["config"]
                )
                activity.add_action(
                    action_record["signal_set"],
                    action,
                    factory_name=action_record["factory"],
                    factory_config=action_record["config"],
                )
            self.manager.adopt(activity)
            built[activity_id] = activity
            if not activity.status.is_terminal:
                in_flight.append(activity_id)
            return activity

        for activity_id in sorted(records):
            build(activity_id)
        return sorted(in_flight)
