"""Unit tests for the broadcast executor layer (serial vs thread pool).

The contract under test: the pool executor produces the same logical
protocol — identical ``set_response`` event ordering, identical SignalSet
outcomes — as the serial executor, while overlapping the physical sends;
early abandonment discards undigested outcomes and skips undispatched
sends; per-action timeouts surface as unreachable outcomes; and the
delivery policies stay exact under concurrency.
"""

import threading
import time

import pytest

from repro.core import (
    ActivityCoordinator,
    AtLeastOnceDelivery,
    BroadcastSignalSet,
    ExactlyOnceDelivery,
    FunctionAction,
    Outcome,
    RecordingAction,
    SequenceSignalSet,
    SerialBroadcastExecutor,
    ThreadPoolBroadcastExecutor,
    Transmission,
)
from repro.exceptions import CommunicationError
from repro.models.twopc import TwoPhaseCommitSignalSet, TwoPhaseParticipant
from repro.persistence import MemoryStore


def make_coordinator(executor, delivery=None, action_timeout=None):
    coordinator = ActivityCoordinator(
        "act-bcast",
        delivery=delivery,
        executor=executor,
        action_timeout=action_timeout,
    )
    coordinator.event_log.attach()  # the tests read its protocol trace
    return coordinator


def protocol_trace(coordinator):
    """The logical protocol sequence (ignores registration events)."""
    return [
        (event.kind, event.detail.get("signal"), event.detail.get("action"),
         event.detail.get("outcome"))
        for event in coordinator.event_log
        if event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
    ]


@pytest.fixture
def pool():
    with ThreadPoolBroadcastExecutor(max_workers=8) as executor:
        yield executor


class TestDeterminism:
    """Parallel broadcasts must replay the serial logical protocol."""

    def run_scenario(self, executor, participants):
        coordinator = make_coordinator(executor)
        actions = [
            TwoPhaseParticipant(name, on_prepare=on_prepare)
            for name, on_prepare in participants
        ]
        for action in actions:
            coordinator.add_action("repro.2pc", action)
        outcome = coordinator.process_signal_set(TwoPhaseCommitSignalSet())
        return outcome, protocol_trace(coordinator), actions

    def test_all_commit_same_trace_and_outcome(self, pool):
        participants = [(f"p{i}", None) for i in range(6)]
        serial_outcome, serial_trace, _ = self.run_scenario(
            SerialBroadcastExecutor(), participants
        )
        pool_outcome, pool_trace, _ = self.run_scenario(pool, participants)
        assert pool_outcome == serial_outcome
        assert pool_outcome.name == "committed"
        assert pool_trace == serial_trace

    def test_no_vote_pivot_same_set_response_ordering(self, pool):
        # p2 votes rollback: the prepare broadcast is abandoned and the
        # set pivots to a rollback signal for everyone.
        participants = [
            ("p0", None),
            ("p1", None),
            ("p2", lambda: False),
            ("p3", None),
            ("p4", None),
        ]
        serial_outcome, serial_trace, _ = self.run_scenario(
            SerialBroadcastExecutor(), participants
        )
        pool_outcome, pool_trace, _ = self.run_scenario(pool, participants)
        assert pool_outcome == serial_outcome
        assert pool_outcome.name == "rolled_back"
        serial_responses = [e for e in serial_trace if e[0] == "set_response"]
        pool_responses = [e for e in pool_trace if e[0] == "set_response"]
        assert pool_responses == serial_responses

    def test_multi_signal_sequence_identical(self, pool):
        for executor_factory in (SerialBroadcastExecutor, lambda: pool):
            coordinator = make_coordinator(executor_factory())
            recorders = [RecordingAction(f"r{i}") for i in range(4)]
            for recorder in recorders:
                coordinator.add_action("seq", recorder)
            outcome = coordinator.process_signal_set(
                SequenceSignalSet("seq", ["s1", "s2", "s3"])
            )
            assert outcome.is_done and outcome.data == 12
            for recorder in recorders:
                assert recorder.signal_names == ["s1", "s2", "s3"]

    def test_delivery_ids_stamped_in_registration_order(self, pool):
        coordinator = make_coordinator(pool)
        recorders = [RecordingAction(f"r{i}") for i in range(5)]
        for recorder in recorders:
            coordinator.add_action("b", recorder)
        coordinator.process_signal_set(BroadcastSignalSet("go", signal_set_name="b"))
        ids = [recorder.received[0].delivery_id for recorder in recorders]
        assert ids == [f"delivery-{n}" for n in range(1, 6)]


class TestParallelism:
    def test_sends_overlap(self, pool):
        """8 actions that block until all 8 pool workers are busy at once."""
        barrier = threading.Barrier(8, timeout=5.0)

        def slow(signal):
            barrier.wait()
            return Outcome.done()

        coordinator = make_coordinator(pool)
        for i in range(8):
            coordinator.add_action("b", FunctionAction(slow, name=f"a{i}"))
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        # The barrier only releases when all 8 sends ran concurrently; a
        # serial executor would deadlock (hence the barrier timeout).
        assert outcome.is_done

    def test_single_action_broadcast_takes_serial_path(self, pool):
        coordinator = make_coordinator(pool)
        coordinator.add_action("b", RecordingAction("only"))
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_done


class TestEarlyAbandon:
    class PivotOnFirst(SequenceSignalSet):
        def __init__(self):
            super().__init__("pivot", ["first", "second"])

        def on_response(self, signal_name, response):
            return signal_name == "first" and response.name == "pivot-now"

    def test_undispatched_sends_skipped(self):
        # One worker: a2's send is still queued when a1's outcome digests
        # and abandons, so it must be cancelled — a2 never sees "first".
        with ThreadPoolBroadcastExecutor(max_workers=1) as executor:
            coordinator = make_coordinator(executor)
            seen = []
            coordinator.add_action(
                "pivot",
                FunctionAction(
                    lambda s: (seen.append(("a1", s.signal_name)),
                               Outcome.of("pivot-now"))[-1],
                    name="a1",
                ),
            )
            coordinator.add_action(
                "pivot",
                FunctionAction(
                    lambda s: seen.append(("a2", s.signal_name)), name="a2"
                ),
            )
            coordinator.process_signal_set(self.PivotOnFirst())
            assert ("a2", "first") not in seen
            assert ("a2", "second") in seen
            assert executor.skipped_sends >= 1

    def test_in_flight_outcome_discarded_not_digested(self, pool):
        # a2's send is already running when a1 abandons; its outcome must
        # be drained and discarded, never fed to the SignalSet.
        release = threading.Event()
        a2_started = threading.Event()

        def fast_first(signal):
            # Only pivot once a2's send is genuinely in flight, so the
            # abandonment cannot cancel it and must drain it instead.
            a2_started.wait(timeout=5.0)
            return Outcome.of("pivot-now")

        def slow_second(signal):
            if signal.signal_name == "first":
                a2_started.set()
                release.wait(timeout=5.0)
                return Outcome.of("late-vote")
            return Outcome.done()

        coordinator = make_coordinator(pool)
        coordinator.add_action("pivot", FunctionAction(fast_first, name="a1"))
        coordinator.add_action("pivot", FunctionAction(slow_second, name="a2"))
        signal_set = self.PivotOnFirst()
        # a2 is mid-send when a1's pivot digests; release it shortly
        # after the abandonment so the drain completes.
        threading.Timer(0.1, release.set).start()
        coordinator.process_signal_set(signal_set)
        responses = [(name, outcome.name) for name, outcome in signal_set.responses]
        # "first" was digested exactly once (a1's pivot); a2's late vote
        # for "first" was drained and discarded, never fed to the set.
        assert [r for r in responses if r[0] == "first"] == [("first", "pivot-now")]
        assert pool.discarded_outcomes >= 1


class TestActionTimeout:
    def test_slow_action_becomes_unreachable(self, pool):
        started = threading.Event()

        def stuck(signal):
            started.set()
            time.sleep(0.5)
            return Outcome.done()

        coordinator = make_coordinator(pool, action_timeout=0.05)
        coordinator.add_action("b", FunctionAction(stuck, name="stuck"))
        coordinator.add_action("b", RecordingAction("fast"))
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert started.is_set()
        assert outcome.is_error  # the unreachable outcome poisons the set
        assert pool.timeouts >= 1
        responses = [
            event.detail["outcome"]
            for event in coordinator.event_log.of_kind("set_response")
        ]
        assert "repro.activity.unreachable" in responses


class TestThreadSafeDelivery:
    def test_at_least_once_counters_exact_under_concurrency(self, pool):
        fail_once = {}
        lock = threading.Lock()

        def flaky(signal):
            with lock:
                first = signal.delivery_id not in fail_once
                fail_once[signal.delivery_id] = True
            if first:
                raise CommunicationError("lost", transient=True)
            return Outcome.done()

        delivery = AtLeastOnceDelivery(max_attempts=3)
        coordinator = make_coordinator(pool, delivery=delivery)
        for i in range(16):
            coordinator.add_action("b", FunctionAction(flaky, name=f"a{i}"))
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_done
        assert delivery.attempts == 32  # one failure + one success each
        assert delivery.retries == 16
        assert delivery.failures == 0

    def test_exactly_once_ledger_complete_under_concurrency(self, pool):
        store = MemoryStore()
        delivery = ExactlyOnceDelivery(store=store)
        coordinator = make_coordinator(pool, delivery=delivery)
        recorders = [RecordingAction(f"r{i}") for i in range(16)]
        for recorder in recorders:
            coordinator.add_action("b", recorder)
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_done
        # Every delivery is in the durable ledger once the broadcast ends.
        assert len(store.keys()) == 16
        assert delivery.ledger_flushes >= 1
        # Redelivery of a recorded id is suppressed by the ledger.
        recorded = recorders[0].received[0]
        hit = delivery.deliver(lambda s: Outcome.of("resent"), recorded)
        assert hit.is_done
        assert delivery.ledger_hits == 1
        assert recorders[0].signal_names == ["go"]


class TestExecutorValidation:
    def test_max_workers_positive(self):
        with pytest.raises(ValueError):
            ThreadPoolBroadcastExecutor(max_workers=0)

    def test_shutdown_idempotent(self):
        executor = ThreadPoolBroadcastExecutor()
        executor.shutdown()
        executor.shutdown()


class TestReentrancy:
    def test_nested_broadcast_from_action_does_not_deadlock(self, pool):
        """An action completing a nested activity through the same pool
        executor (HLS nesting) must run the inner broadcast serially
        instead of deadlocking on its own pool's slots."""
        inner_seen = []

        def complete_nested(signal):
            inner = make_coordinator(pool)
            for i in range(4):
                inner.add_action(
                    "inner",
                    FunctionAction(lambda s, n=i: inner_seen.append(n), name=f"i{i}"),
                )
            return inner.process_signal_set(
                BroadcastSignalSet("go", signal_set_name="inner")
            )

        outer = make_coordinator(pool)
        for i in range(8):
            outer.add_action("outer", FunctionAction(complete_nested, name=f"o{i}"))
        outcome = outer.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="outer")
        )
        assert outcome.is_done
        assert len(inner_seen) == 32
        assert pool.nested_serial == 8


class TestTimedOutQueuedSends:
    def test_timed_out_queued_send_cancelled_never_fires(self):
        """A send still *queued* when its outcome times out must be
        cancelled — it must not fire a stale signal later."""
        with ThreadPoolBroadcastExecutor(max_workers=1) as executor:
            release = threading.Event()
            late_ran = []

            def hang(signal):
                release.wait(timeout=5.0)
                return Outcome.done()

            coordinator = make_coordinator(executor, action_timeout=0.05)
            coordinator.add_action("b", FunctionAction(hang, name="hang"))
            coordinator.add_action(
                "b", FunctionAction(lambda s: late_ran.append(True), name="late")
            )
            outcome = coordinator.process_signal_set(
                BroadcastSignalSet("go", signal_set_name="b")
            )
            assert outcome.is_error  # both digested as unreachable
            assert executor.skipped_sends >= 1  # the queued send, cancelled
            release.set()
            time.sleep(0.1)  # give the worker time to pick up queued work
            assert late_ran == []


class TestSendRaises:
    """An exception escaping a send stops the whole fan-out: queued sends
    are cancelled and in-flight ones drained before it is raised, so no
    send starts, or is still running, once ``broadcast`` has raised."""

    def test_no_send_runs_after_the_broadcast_raises(self):
        lock = threading.Lock()
        started, running = [], []

        def send_for(index):
            def send(stamped):
                with lock:
                    started.append(index)
                    running.append(index)
                try:
                    if index == 0:
                        raise RuntimeError("ledger write failed")
                    time.sleep(0.1)
                    return Outcome.done()
                finally:
                    with lock:
                        running.remove(index)

            return send

        transmissions = [
            Transmission(index, f"a{index}", lambda: None, send_for(index))
            for index in range(4)
        ]
        with ThreadPoolBroadcastExecutor(max_workers=2) as executor:
            with pytest.raises(RuntimeError, match="ledger write failed"):
                executor.broadcast(
                    transmissions, lambda t, s: None, lambda t, s, o: False
                )
            with lock:
                started_at_raise = list(started)
                running_at_raise = list(running)
            time.sleep(0.3)  # long enough for a queued send to start
            with lock:
                assert running_at_raise == []
                assert started == started_at_raise
        assert 3 not in started_at_raise  # queued behind two busy workers

    def test_failing_exactly_once_ledger_quiesces_before_raising(self):
        class FailingStore(MemoryStore):
            def put_many(self, items):
                raise OSError("disk full")

        lock = threading.Lock()
        running = []

        def slow(signal):
            with lock:
                running.append(signal.delivery_id)
            time.sleep(0.05)
            with lock:
                running.remove(signal.delivery_id)
            return Outcome.done()

        with ThreadPoolBroadcastExecutor(max_workers=2) as executor:
            delivery = ExactlyOnceDelivery(store=FailingStore())
            coordinator = make_coordinator(executor, delivery=delivery)
            for i in range(4):
                coordinator.add_action("b", FunctionAction(slow, name=f"a{i}"))
            with pytest.raises(OSError, match="disk full"):
                coordinator.process_signal_set(
                    BroadcastSignalSet("go", signal_set_name="b")
                )
            with lock:
                assert running == []
