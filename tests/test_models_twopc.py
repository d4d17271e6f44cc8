"""The 2PC model (§4.1): protocol outcomes and the exact fig. 8 trace."""

import pytest

from repro.core import ActivityManager, CompletionStatus
from repro.models import (
    TransactionalResourceAction,
    TwoPhaseCommitSignalSet,
    TwoPhaseParticipant,
)
from repro.models.twopc import (
    SET_NAME,
    SIGNAL_COMMIT,
    SIGNAL_PREPARE,
    SIGNAL_ROLLBACK,
)


@pytest.fixture
def manager():
    return ActivityManager()


def run_2pc(manager, participants, status=CompletionStatus.SUCCESS):
    activity = manager.begin("2pc")
    for participant in participants:
        activity.add_action(SET_NAME, participant)
    activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
    return activity.complete(status), activity


class TestOutcomes:
    def test_all_yes_commits(self, manager):
        participants = [TwoPhaseParticipant(f"p{i}") for i in range(3)]
        outcome, _ = run_2pc(manager, participants)
        assert outcome.name == "committed"
        assert all(p.committed for p in participants)

    def test_one_no_rolls_back_everyone(self, manager):
        p1 = TwoPhaseParticipant("p1")
        p2 = TwoPhaseParticipant("p2", on_prepare=lambda: False)
        p3 = TwoPhaseParticipant("p3")
        outcome, _ = run_2pc(manager, [p1, p2, p3])
        assert outcome.name == "rolled_back"
        assert p1.rolled_back and not p1.committed
        assert not p3.prepared, "prepare broadcast abandoned at the no-vote"
        assert p3.signals_seen == [SIGNAL_ROLLBACK]

    def test_read_only_participants_do_no_phase_two_work(self, manager):
        """Actions register interest in the whole SignalSet (§3.2.3), so a
        read-only voter still *receives* the commit signal — but performs
        no commit work because it never prepared."""
        commit_work = []
        reader = TwoPhaseParticipant(
            "reader", on_prepare=lambda: None,
            on_commit=lambda: commit_work.append("reader"),
        )
        writer = TwoPhaseParticipant(
            "writer", on_commit=lambda: commit_work.append("writer")
        )
        outcome, _ = run_2pc(manager, [reader, writer])
        assert outcome.name == "committed"
        assert reader.signals_seen == [SIGNAL_PREPARE, SIGNAL_COMMIT]
        assert writer.signals_seen == [SIGNAL_PREPARE, SIGNAL_COMMIT]
        assert commit_work == ["writer"], "read-only voter does no commit work"

    def test_all_read_only_skips_phase_two_entirely(self, manager):
        """When nobody voted commit the set ends after prepare: no second
        signal is generated at all."""
        participants = [
            TwoPhaseParticipant(f"r{i}", on_prepare=lambda: None) for i in range(2)
        ]
        outcome, _ = run_2pc(manager, participants)
        assert outcome.name == "committed"
        for participant in participants:
            assert participant.signals_seen == [SIGNAL_PREPARE]

    def test_failing_activity_goes_straight_to_rollback(self, manager):
        participant = TwoPhaseParticipant("p")
        outcome, _ = run_2pc(manager, [participant], status=CompletionStatus.FAIL)
        assert outcome.name == "rolled_back"
        assert participant.signals_seen == [SIGNAL_ROLLBACK]

    def test_action_exception_treated_as_no_vote(self, manager):
        from repro.core import ActionError, FunctionAction

        def explode(signal):
            raise ActionError("prepare failed")

        activity = manager.begin()
        activity.add_action(SET_NAME, FunctionAction(explode, name="broken"))
        activity.add_action(SET_NAME, TwoPhaseParticipant("healthy"))
        activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
        outcome = activity.complete(CompletionStatus.SUCCESS)
        assert outcome.name == "rolled_back"

    def test_no_participants_commits_trivially(self, manager):
        outcome, _ = run_2pc(manager, [])
        assert outcome.name == "committed"

    def test_votes_recorded_in_outcome(self, manager):
        outcome, _ = run_2pc(manager, [TwoPhaseParticipant("p")])
        assert outcome.data == ["vote_commit"]


class TestFig8Trace:
    def test_exact_message_sequence(self, manager):
        """Reproduce fig. 8: prepare to each action, then commit to each."""
        manager.event_log.attach()
        p1, p2 = TwoPhaseParticipant("A1"), TwoPhaseParticipant("A2")
        _, activity = run_2pc(manager, [p1, p2])
        protocol = [
            (event.kind, event.detail.get("signal"), event.detail.get("action"))
            for event in activity.event_log
            if event.kind in ("get_signal", "transmit", "get_outcome")
            and event.detail.get("signal_set") == SET_NAME
        ]
        assert protocol == [
            ("get_signal", None, None),
            ("transmit", "prepare", "A1"),
            ("transmit", "prepare", "A2"),
            ("get_signal", None, None),
            ("transmit", "commit", "A1"),
            ("transmit", "commit", "A2"),
            ("get_outcome", None, None),
        ]

    def test_set_response_follows_each_transmit(self, manager):
        manager.event_log.attach()
        p1, p2 = TwoPhaseParticipant("A1"), TwoPhaseParticipant("A2")
        _, activity = run_2pc(manager, [p1, p2])
        kinds = [
            event.kind
            for event in activity.event_log
            if event.kind in ("transmit", "set_response")
            and event.detail.get("signal_set") == SET_NAME
        ]
        assert kinds == ["transmit", "set_response"] * 4


class TestIdempotency:
    def test_duplicate_commit_signal_harmless(self, manager):
        commits = []
        participant = TwoPhaseParticipant("p", on_commit=lambda: commits.append(1))
        participant.process_signal(
            __import__("repro.core.signals", fromlist=["Signal"]).Signal(
                SIGNAL_PREPARE, SET_NAME
            )
        )
        from repro.core.signals import Signal

        participant.process_signal(Signal(SIGNAL_COMMIT, SET_NAME))
        participant.process_signal(Signal(SIGNAL_COMMIT, SET_NAME))
        assert commits == [1]

    def test_rollback_without_prepare_noop(self, manager):
        from repro.core.signals import Signal

        undone = []
        participant = TwoPhaseParticipant("p", on_rollback=lambda: undone.append(1))
        participant.process_signal(Signal(SIGNAL_ROLLBACK, SET_NAME))
        assert undone == []
        assert participant.rolled_back


class TestOtsResourceAdapter:
    def test_resource_commits_through_signals(self, manager):
        from tests.test_ots_transactions import FakeResource

        resource = FakeResource()
        action = TransactionalResourceAction(resource, "cell")
        outcome, _ = run_2pc(manager, [action])
        assert outcome.name == "committed"
        assert resource.events == ["prepare", "commit"]

    def test_resource_no_vote_rolls_back(self, manager):
        from repro.ots import Vote
        from tests.test_ots_transactions import FakeResource

        good = FakeResource()
        bad = FakeResource(vote=Vote.ROLLBACK)
        outcome, _ = run_2pc(
            manager,
            [TransactionalResourceAction(good, "good"),
             TransactionalResourceAction(bad, "bad")],
        )
        assert outcome.name == "rolled_back"
        assert good.events == ["prepare", "rollback"]

    def test_readonly_resource_vote_mapped(self, manager):
        from repro.ots import Vote
        from tests.test_ots_transactions import FakeResource

        reader = FakeResource(vote=Vote.READONLY)
        writer = FakeResource()
        outcome, _ = run_2pc(
            manager,
            [TransactionalResourceAction(reader, "r"),
             TransactionalResourceAction(writer, "w")],
        )
        assert outcome.name == "committed"
        assert reader.events == ["prepare"]
        assert writer.events == ["prepare", "commit"]
