"""Edge coverage: remote enlistment helper, lifecycle traces, misc APIs."""

import pytest

from repro.core import (
    ActionError,
    ActivityManager,
    BroadcastSignalSet,
    CompletionStatus,
    Outcome,
    RecordingAction,
    Signal,
)
from repro.models import Saga, TwoPhaseParticipant
from repro.models.saga import SagaCompensationSignalSet
from repro.models.twopc import SET_NAME as TWOPC_SET


@pytest.fixture
def manager():
    return ActivityManager()


class TestEnlistHelper:
    def test_enlist_returns_action_id(self, manager):
        activity = manager.begin()
        action_id = activity.enlist("events", RecordingAction())
        assert isinstance(action_id, str) and action_id.startswith("action")
        assert activity.coordinator.action_count == 1

    def test_enlist_rejected_after_completion(self, manager):
        from repro.core import ActivityCompleted

        activity = manager.begin()
        activity.complete()
        with pytest.raises(ActivityCompleted):
            activity.enlist("events", RecordingAction())


class TestLifecycleTrace:
    def test_completion_events_recorded(self, manager):
        manager.event_log.attach()
        activity = manager.begin("traced")
        activity.complete(CompletionStatus.SUCCESS)
        kinds = manager.event_log.kinds()
        assert "activity_begin" in kinds
        assert "activity_completing" in kinds
        assert "activity_completed" in kinds

    def test_completing_event_carries_status(self, manager):
        manager.event_log.attach()
        activity = manager.begin()
        activity.complete(CompletionStatus.FAIL)
        completing = manager.event_log.of_kind("activity_completing")[0]
        assert completing.detail["completion_status"] == "FAIL"

    def test_suspend_resume_events(self, manager):
        manager.event_log.attach()
        activity = manager.begin()
        activity.suspend()
        activity.resume()
        kinds = manager.event_log.kinds()
        assert "activity_suspend" in kinds and "activity_resume" in kinds

    def test_timeout_event_recorded(self):
        manager = ActivityManager()
        manager.event_log.attach()
        activity = manager.begin("slow", timeout=1.0)
        manager.clock.advance(2.0)
        activity.complete()
        assert manager.event_log.of_kind("activity_timeout")


class TestParticipantEdges:
    def test_unknown_signal_raises_action_error(self):
        participant = TwoPhaseParticipant("p")
        with pytest.raises(ActionError):
            participant.process_signal(Signal("bogus", TWOPC_SET))

    def test_saga_set_records_forget_responses(self):
        signal_set = SagaCompensationSignalSet(["s1"])
        signal_set.set_completion_status(CompletionStatus.SUCCESS)
        signal, last = signal_set.get_signal()
        assert signal.signal_name == "forget" and last
        signal_set.set_response(Outcome.of("forgotten"))
        outcome = signal_set.get_outcome()
        assert outcome.is_done

    def test_saga_outcome_lists_compensated_steps(self):
        signal_set = SagaCompensationSignalSet(["a", "b"])
        signal_set.set_completion_status(CompletionStatus.FAIL)
        signal_set.get_signal()  # compensate b (reverse order)
        signal_set.set_response(Outcome.of("compensated"))
        signal_set.get_signal()  # compensate a
        signal_set.set_response(Outcome.of("compensated"))
        outcome = signal_set.get_outcome()
        assert outcome.name == "saga.compensated"


class TestManagerEdges:
    def test_unknown_activity_lookup(self, manager):
        from repro.core import ActivityServiceError

        with pytest.raises(ActivityServiceError):
            manager.get("ghost")

    def test_active_activities_listing(self, manager):
        first = manager.begin()
        second = manager.begin()
        first.complete()
        active = manager.active_activities()
        assert second in active and first not in active

    def test_export_gives_stable_object_id(self, manager):
        from repro.orb import Orb

        orb = Orb()
        node = orb.create_node("n")
        manager.install(orb)
        activity = manager.begin()
        ref = manager.export(activity, node)
        assert ref.object_id == f"activity:{activity.activity_id}"

    def test_delivery_policy_shared_across_activities(self):
        from repro.core import AtMostOnceDelivery

        policy = AtMostOnceDelivery()
        manager = ActivityManager(delivery=policy)
        activity = manager.begin()
        activity.add_action("e", RecordingAction())
        activity.register_signal_set(BroadcastSignalSet("x", signal_set_name="e"))
        activity.signal("e")
        assert policy.attempts == 1

    def test_saga_empty_runs_clean(self, manager):
        result = Saga(manager, "empty").run()
        assert result.succeeded and result.completed == []

    def test_outcome_and_signal_reprs(self):
        assert "prepare" in str(Signal("prepare", "set"))
        assert "!" in str(Outcome.error())
        assert "!" not in str(Outcome.done())
