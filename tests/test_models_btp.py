"""BTP atoms and cohesions (§4.5): figs 11–12 traces, confirm-set logic."""

import pytest

from repro.core import ActivityManager, CompletionStatus
from repro.models import (
    BtpAtom,
    BtpCohesion,
    BtpParticipant,
    BtpStatus,
)
from repro.models.btp import (
    COMPLETE_SET,
    PREPARE_SET,
    BtpError,
    SIGNAL_CANCEL,
    SIGNAL_CONFIRM,
    SIGNAL_PREPARE,
)


@pytest.fixture
def manager():
    return ActivityManager()


class TestParticipant:
    def test_lifecycle_prepare_confirm(self):
        from repro.core.signals import Signal

        events = []
        participant = BtpParticipant(
            "svc",
            on_prepare=lambda: events.append("prep") or True,
            on_confirm=lambda: events.append("conf"),
        )
        participant.process_signal(Signal(SIGNAL_PREPARE, PREPARE_SET))
        assert participant.status is BtpStatus.PREPARED
        participant.process_signal(Signal(SIGNAL_CONFIRM, COMPLETE_SET))
        assert participant.status is BtpStatus.CONFIRMED
        assert events == ["prep", "conf"]

    def test_prepare_refusal_cancels(self):
        from repro.core.signals import Signal

        participant = BtpParticipant("svc", on_prepare=lambda: False)
        outcome = participant.process_signal(Signal(SIGNAL_PREPARE, PREPARE_SET))
        assert outcome.name == "cancelled"
        assert participant.status is BtpStatus.CANCELLED

    def test_duplicate_prepare_idempotent(self):
        from repro.core.signals import Signal

        count = []
        participant = BtpParticipant("svc", on_prepare=lambda: count.append(1) or True)
        participant.process_signal(Signal(SIGNAL_PREPARE, PREPARE_SET))
        participant.process_signal(Signal(SIGNAL_PREPARE, PREPARE_SET))
        assert count == [1]

    def test_confirm_without_prepare_is_error(self):
        from repro.core.signals import Signal

        participant = BtpParticipant("svc")
        outcome = participant.process_signal(Signal(SIGNAL_CONFIRM, COMPLETE_SET))
        assert outcome.is_error

    def test_cancel_from_any_live_state(self):
        from repro.core.signals import Signal

        cancelled = []
        participant = BtpParticipant("svc", on_cancel=lambda: cancelled.append(1))
        participant.process_signal(Signal(SIGNAL_CANCEL, COMPLETE_SET))
        assert participant.status is BtpStatus.CANCELLED
        assert cancelled == [1]
        # Duplicate cancel is harmless.
        participant.process_signal(Signal(SIGNAL_CANCEL, COMPLETE_SET))
        assert cancelled == [1]


class TestAtom:
    def test_prepare_confirm_happy_path(self, manager):
        atom = BtpAtom(manager, "a")
        p1, p2 = BtpParticipant("p1"), BtpParticipant("p2")
        atom.enroll(p1)
        atom.enroll(p2)
        assert atom.prepare()
        assert atom.status is BtpStatus.PREPARED
        atom.confirm()
        assert atom.status is BtpStatus.CONFIRMED
        assert p1.status is BtpStatus.CONFIRMED

    def test_user_drives_both_phases(self, manager):
        """BTP's defining feature: prepare is explicit and separate."""
        atom = BtpAtom(manager, "a")
        participant = BtpParticipant("p")
        atom.enroll(participant)
        atom.prepare()
        assert participant.status is BtpStatus.PREPARED
        assert participant.signals_seen == [SIGNAL_PREPARE]
        # Arbitrary time later…
        atom.confirm()
        assert participant.signals_seen == [SIGNAL_PREPARE, SIGNAL_CONFIRM]

    def test_refusing_participant_cancels_atom(self, manager):
        atom = BtpAtom(manager, "a")
        good = BtpParticipant("good")
        bad = BtpParticipant("bad", on_prepare=lambda: False)
        atom.enroll(good)
        atom.enroll(bad)
        assert not atom.prepare()
        assert atom.status is BtpStatus.CANCELLED
        assert good.status is BtpStatus.CANCELLED, "prepared member told to cancel"

    def test_cancel_active_atom(self, manager):
        atom = BtpAtom(manager, "a")
        participant = BtpParticipant("p")
        atom.enroll(participant)
        atom.cancel()
        assert atom.status is BtpStatus.CANCELLED
        assert participant.status is BtpStatus.CANCELLED

    def test_confirm_requires_prepared(self, manager):
        atom = BtpAtom(manager, "a")
        atom.enroll(BtpParticipant("p"))
        with pytest.raises(BtpError):
            atom.confirm()

    def test_enroll_after_prepare_rejected(self, manager):
        atom = BtpAtom(manager, "a")
        atom.enroll(BtpParticipant("p"))
        atom.prepare()
        with pytest.raises(BtpError):
            atom.enroll(BtpParticipant("late"))

    def test_cancel_terminal_rejected(self, manager):
        atom = BtpAtom(manager, "a")
        atom.enroll(BtpParticipant("p"))
        atom.prepare()
        atom.confirm()
        with pytest.raises(BtpError):
            atom.cancel()


class TestFig11Fig12Traces:
    def test_prepare_signal_set_trace(self, manager):
        """Fig. 11: prepare to each action, then get_outcome."""
        manager.event_log.attach()
        atom = BtpAtom(manager, "a")
        atom.enroll(BtpParticipant("A1"))
        atom.enroll(BtpParticipant("A2"))
        atom.prepare()
        protocol = [
            (event.kind, event.detail.get("signal"), event.detail.get("action"))
            for event in manager.event_log
            if event.detail.get("signal_set") == PREPARE_SET
            and event.kind in ("get_signal", "transmit", "get_outcome")
        ]
        assert protocol == [
            ("get_signal", None, None),
            ("transmit", "prepare", "A1"),
            ("transmit", "prepare", "A2"),
            ("get_outcome", None, None),
        ]

    def test_complete_signal_set_confirm_trace(self, manager):
        """Fig. 12: confirm to each action after a success completion."""
        manager.event_log.attach()
        atom = BtpAtom(manager, "a")
        atom.enroll(BtpParticipant("A1"))
        atom.enroll(BtpParticipant("A2"))
        atom.prepare()
        atom.confirm()
        protocol = [
            (event.kind, event.detail.get("signal"), event.detail.get("action"))
            for event in manager.event_log
            if event.detail.get("signal_set") == COMPLETE_SET
            and event.kind in ("get_signal", "transmit", "get_outcome")
        ]
        assert protocol == [
            ("get_signal", None, None),
            ("transmit", "confirm", "A1"),
            ("transmit", "confirm", "A2"),
            ("get_outcome", None, None),
        ]

    def test_complete_signal_set_cancel_variant(self, manager):
        manager.event_log.attach()
        atom = BtpAtom(manager, "a")
        atom.enroll(BtpParticipant("A1"))
        atom.prepare()
        atom.activity.complete(CompletionStatus.FAIL)
        cancels = [
            event
            for event in manager.event_log
            if event.kind == "transmit"
            and event.detail.get("signal_set") == COMPLETE_SET
        ]
        assert [e.detail["signal"] for e in cancels] == ["cancel"]


class TestCohesion:
    def make_trip(self, manager):
        cohesion = BtpCohesion(manager, "trip")
        participants = {}
        for name in ("taxi", "restaurant", "theatre", "hotel"):
            atom = BtpAtom(manager, name)
            participant = BtpParticipant(name)
            atom.enroll(participant)
            cohesion.enroll(atom)
            participants[name] = participant
        return cohesion, participants

    def test_confirm_set_selection(self, manager):
        cohesion, participants = self.make_trip(manager)
        outcomes = cohesion.confirm(["taxi", "restaurant", "theatre"])
        assert outcomes["taxi"] is BtpStatus.CONFIRMED
        assert outcomes["hotel"] is BtpStatus.CANCELLED
        assert participants["hotel"].status is BtpStatus.CANCELLED
        assert cohesion.status is BtpStatus.CONFIRMED

    def test_different_outcomes_to_different_participants(self, manager):
        """Unlike an atom, a cohesion gives different outcomes (§4.5)."""
        cohesion, participants = self.make_trip(manager)
        cohesion.confirm(["taxi"])
        statuses = {name: p.status for name, p in participants.items()}
        assert statuses["taxi"] is BtpStatus.CONFIRMED
        assert all(
            status is BtpStatus.CANCELLED
            for name, status in statuses.items()
            if name != "taxi"
        )

    def test_explicit_member_cancel_then_confirm_rest(self, manager):
        cohesion, participants = self.make_trip(manager)
        cohesion.cancel_member("hotel")
        outcomes = cohesion.confirm(["taxi", "restaurant", "theatre"])
        assert outcomes["hotel"] is BtpStatus.CANCELLED
        assert cohesion.status is BtpStatus.CONFIRMED

    def test_confirm_set_member_failure_cancels_all(self, manager):
        """Atomicity across the confirm-set: one refusal cancels the set."""
        cohesion = BtpCohesion(manager, "trip")
        good_atom = BtpAtom(manager, "good")
        good = BtpParticipant("good")
        good_atom.enroll(good)
        bad_atom = BtpAtom(manager, "bad")
        bad_atom.enroll(BtpParticipant("bad", on_prepare=lambda: False))
        cohesion.enroll(good_atom)
        cohesion.enroll(bad_atom)
        outcomes = cohesion.confirm(["good", "bad"])
        assert outcomes == {
            "good": BtpStatus.CANCELLED,
            "bad": BtpStatus.CANCELLED,
        }
        assert cohesion.status is BtpStatus.CANCELLED
        assert good.status is BtpStatus.CANCELLED

    def test_unknown_confirm_set_member_rejected(self, manager):
        cohesion, _ = self.make_trip(manager)
        with pytest.raises(BtpError):
            cohesion.confirm(["ghost"])

    def test_duplicate_enroll_rejected(self, manager):
        cohesion = BtpCohesion(manager, "c")
        atom = BtpAtom(manager, "a")
        cohesion.enroll(atom)
        with pytest.raises(BtpError):
            cohesion.enroll(atom)

    def test_cancel_whole_cohesion(self, manager):
        cohesion, participants = self.make_trip(manager)
        cohesion.cancel()
        assert cohesion.status is BtpStatus.CANCELLED
        assert all(p.status is BtpStatus.CANCELLED for p in participants.values())

    def test_prepare_member_early(self, manager):
        """Business logic can prepare members as the activity progresses."""
        cohesion, participants = self.make_trip(manager)
        assert cohesion.prepare_member("taxi")
        assert participants["taxi"].status is BtpStatus.PREPARED
        # Preparing again is a no-op.
        assert cohesion.prepare_member("taxi")
        outcomes = cohesion.confirm(["taxi"])
        assert outcomes["taxi"] is BtpStatus.CONFIRMED


class TestPerModelExecutor:
    """BTP atoms accept ``executor=`` (ROADMAP: mirror Saga from PR 3)."""

    def run_atom_flow(self, executor=None):
        manager = ActivityManager()
        manager.event_log.attach()
        atom = BtpAtom(manager, "pay", executor=executor)
        participants = [BtpParticipant(f"p{i}") for i in range(4)]
        for participant in participants:
            atom.enroll(participant)
        assert atom.prepare()
        atom.confirm()
        trace = [
            (event.kind, event.detail.get("signal"), event.detail.get("outcome"))
            for event in manager.event_log
            if event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
        ]
        return atom, participants, trace

    def test_thread_pool_executor_matches_serial_trace(self):
        from repro.core import ThreadPoolBroadcastExecutor

        serial_atom, serial_parts, serial_trace = self.run_atom_flow()
        with ThreadPoolBroadcastExecutor(max_workers=4) as executor:
            pool_atom, pool_parts, pool_trace = self.run_atom_flow(executor)
        assert pool_atom.status is serial_atom.status is BtpStatus.CONFIRMED
        assert [p.status for p in pool_parts] == [p.status for p in serial_parts]
        assert pool_trace == serial_trace

    def test_refusal_path_parity(self):
        from repro.core import ThreadPoolBroadcastExecutor

        def run(executor=None):
            manager = ActivityManager()
            atom = BtpAtom(manager, "mixed", executor=executor)
            statuses = []
            for i in range(4):
                participant = BtpParticipant(
                    f"p{i}", on_prepare=(lambda: False) if i == 2 else None
                )
                atom.enroll(participant)
                statuses.append(participant)
            prepared = atom.prepare()
            return prepared, atom.status, [p.status for p in statuses]

        serial = run()
        with ThreadPoolBroadcastExecutor(max_workers=4) as executor:
            pooled = run(executor)
        assert serial == pooled
        assert serial[0] is False and serial[1] is BtpStatus.CANCELLED

    def test_cohesion_new_atom_shares_executor(self):
        from repro.core import SerialBroadcastExecutor

        manager = ActivityManager()
        executor = SerialBroadcastExecutor()
        cohesion = BtpCohesion(manager, "trip", executor=executor)
        atom = cohesion.new_atom("hotel")
        assert atom.executor is executor
        assert "hotel" in cohesion.members
        atom.enroll(BtpParticipant("h"))
        outcomes = cohesion.confirm(["hotel"])
        assert outcomes["hotel"] is BtpStatus.CONFIRMED
