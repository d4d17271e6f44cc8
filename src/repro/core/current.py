"""Implicit activity association: the Activity Service ``Current``.

Maintains the stack of activities associated with the calling thread;
each thread has its own (a :class:`~repro.util.workers.ThreadAssociation`),
so concurrent callers never complete each other's activities.  ``begin``
nests: a new activity's parent is the currently associated one.
``suspend``/``resume`` detach and re-attach, as required for
long-running activities (§3.1: "Activities can run over long periods of
time and can thus be suspended and then resumed later").
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.activity import Activity
from repro.core.exceptions import InvalidActivityState, NoActivity
from repro.core.signals import Outcome
from repro.core.status import ActivityStatus, CompletionStatus
from repro.util.workers import ThreadAssociation


class ActivityCurrent:
    """Implicit activity context, associated per thread."""

    def __init__(self, manager: Any) -> None:
        self.manager = manager
        self._association = ThreadAssociation()

    @property
    def _stack(self) -> List[Activity]:  # the calling thread's
        return self._association.stack

    # -- demarcation ---------------------------------------------------------

    def begin(
        self,
        name: Optional[str] = None,
        timeout: float = 0.0,
        executor: Optional[Any] = None,
    ) -> Activity:
        """Begin a new activity nested in the current one (if any).

        ``executor`` overrides the manager-wide broadcast executor for
        this one activity, as on :meth:`ActivityManager.begin`.
        """
        parent = self._stack[-1] if self._stack else None
        activity = self.manager.begin(
            name=name, parent=parent, timeout=timeout, executor=executor
        )
        self._stack.append(activity)
        return activity

    def complete(self, status: Optional[CompletionStatus] = None) -> Outcome:
        """Complete the current activity and pop the association."""
        activity = self._require_current()
        try:
            return activity.complete(status)
        finally:
            if self._stack and self._stack[-1] is activity:
                self._stack.pop()

    def complete_with_status(self, status: CompletionStatus) -> Outcome:
        return self.complete(status)

    # -- completion status ------------------------------------------------------

    def set_completion_status(self, status: CompletionStatus) -> None:
        self._require_current().set_completion_status(status)

    def get_completion_status(self) -> CompletionStatus:
        return self._require_current().get_completion_status()

    def get_status(self) -> Optional[ActivityStatus]:
        activity = self.current_activity()
        return activity.status if activity is not None else None

    # -- association ---------------------------------------------------------------

    def current_activity(self) -> Optional[Activity]:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def suspend(self) -> Optional[Activity]:
        """Detach and return the whole current activity (None if none).

        Only the *association* is suspended; the activity object keeps
        running state.  Use ``Activity.suspend`` to pause the activity
        itself.
        """
        if not self._stack:
            return None
        return self._stack.pop()

    def resume(self, activity: Optional[Activity]) -> None:
        if activity is None:
            return
        if not isinstance(activity, Activity):
            raise InvalidActivityState(f"cannot resume {activity!r}")
        if activity.status.is_terminal:
            raise InvalidActivityState(
                f"cannot resume completed activity {activity.activity_id}"
            )
        self._stack.append(activity)

    def _require_current(self) -> Activity:
        if not self._stack:
            raise NoActivity("no activity associated with this thread")
        return self._stack[-1]
