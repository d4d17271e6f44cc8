"""Unit tests for the event trace log."""

import pytest

from repro.core import ActivityManager, CompletionStatus
from repro.models import TwoPhaseCommitSignalSet, TwoPhaseParticipant
from repro.models.twopc import SET_NAME
from repro.ots import TransactionFactory, TransactionalCell
from repro.util.clock import SimulatedClock
from repro.util.events import EventLog, TraceEvent


class TestEventLog:
    def test_record_and_iterate(self):
        log = EventLog().attach()
        log.record("a", x=1)
        log.record("b", y=2)
        assert log.kinds() == ["a", "b"]
        assert len(log) == 2

    def test_timestamps_from_clock(self):
        clock = SimulatedClock()
        log = EventLog(clock).attach()
        log.record("a")
        clock.advance(3.0)
        log.record("b")
        assert [event.timestamp for event in log] == [0.0, 3.0]

    def test_of_kind_filters(self):
        log = EventLog().attach()
        log.record("x")
        log.record("y")
        log.record("x")
        assert len(log.of_kind("x")) == 2
        assert len(log.of_kind("x", "y")) == 3

    def test_matches(self):
        event = TraceEvent(kind="transmit", detail={"signal": "prepare"})
        assert event.matches("transmit", signal="prepare")
        assert not event.matches("transmit", signal="commit")
        assert not event.matches("other")

    def test_sequence_projection(self):
        log = EventLog().attach()
        log.record("transmit", signal="prepare", action="a1")
        log.record("transmit", signal="commit", action="a2")
        assert log.sequence("signal") == [
            ("transmit", "prepare"),
            ("transmit", "commit"),
        ]
        assert log.sequence("signal", "action") == [
            ("transmit", "prepare", "a1"),
            ("transmit", "commit", "a2"),
        ]

    def test_assert_subsequence_passes_in_order(self):
        log = EventLog().attach()
        log.record("a", v=1)
        log.record("noise")
        log.record("b", v=2)
        log.assert_subsequence([("a", 1), ("b", 2)], "v")

    def test_assert_subsequence_fails_out_of_order(self):
        log = EventLog().attach()
        log.record("b", v=2)
        log.record("a", v=1)
        with pytest.raises(AssertionError):
            log.assert_subsequence([("a", 1), ("b", 2)], "v")

    def test_subscribe_listener(self):
        log = EventLog()  # subscribing is what attaches the reader
        seen = []
        log.subscribe(seen.append)
        log.record("tick")
        assert seen[0].kind == "tick"

    def test_clear(self):
        log = EventLog().attach()
        log.record("a")
        log.clear()
        assert len(log) == 0

    def test_brief_rendering(self):
        event = TraceEvent(kind="transmit", detail={"signal": "prepare"})
        assert "transmit" in event.brief()
        assert "prepare" in event.brief()


class TestRecordingIsASubscription:
    def test_no_reader_builds_no_event(self, monkeypatch):
        built = []
        real_init = TraceEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(TraceEvent, "__init__", counting_init)
        log = EventLog(SimulatedClock(), max_events=8)
        assert not log.on
        for index in range(100):
            log.record("tick", index=index)
        assert built == []
        assert len(log) == 0 and log.dropped == 0

    def test_reader_attached_mid_run_records_until_detached(self):
        log = EventLog(max_events=5)
        log.record("before")
        assert log.attach() is log and log.on
        for index in range(8):
            log.record("during", index=index)
        assert len(log) == 5
        assert log.dropped == 3
        assert [event.detail["index"] for event in log] == [3, 4, 5, 6, 7]
        log.detach()
        assert not log.on
        log.record("after")
        assert log.kinds() == ["during"] * 5  # what was kept stays readable
        assert log.dropped == 3

    def test_listener_streams_without_retaining(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.record("tick")
        assert [event.kind for event in seen] == ["tick"]
        assert len(log) == 0
        log.attach()
        log.detach()
        assert log.on  # the listener is still a reader

    def test_in_process_domain_retains_no_events(self):
        manager = ActivityManager()
        for _ in range(1_000):
            activity = manager.begin("2pc")
            for name in ("A1", "A2"):
                activity.add_action(SET_NAME, TwoPhaseParticipant(name))
            activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
            assert activity.complete(CompletionStatus.SUCCESS).name == "committed"
        assert len(manager.event_log) == 0 and manager.event_log.dropped == 0

        factory = TransactionFactory()
        cells = [TransactionalCell(f"cell-{i}", 0, factory) for i in range(2)]
        for value in range(200):
            tx = factory.create()
            for cell in cells:
                cell.write(tx, value)
            tx.commit()
        assert factory.committed == 200
        assert len(factory.event_log) == 0 and factory.event_log.dropped == 0
