"""Deadline timers: the cancellable :class:`TimerQueue` and the
:class:`SimulatedClock` that fires it — ordering and ties, inclusive
versus strict polls, cancellation, re-entrant arming and threads."""

import sys
import threading

import pytest

from repro.exceptions import InvalidStateError
from repro.util.clock import SimulatedClock, TimerQueue


class TestScheduling:
    def test_fires_in_deadline_order_with_seq_tiebreak(self):
        queue = TimerQueue()
        order = []
        queue.call_at(3.0, lambda: order.append("c"))
        queue.call_at(1.0, lambda: order.append("a1"))
        queue.call_at(2.0, lambda: order.append("b"))
        queue.call_at(1.0, lambda: order.append("a2"))
        queue.fire_due(5.0)
        assert order == ["a1", "a2", "b", "c"]

    def test_sub_tick_deadlines_keep_exact_order(self):
        queue = TimerQueue()
        order = []
        queue.call_at(3.7, lambda: order.append(3.7))
        queue.call_at(1.2, lambda: order.append(1.2))
        queue.call_at(9.9, lambda: order.append(9.9))
        queue.fire_due(5.0)
        assert order == [1.2, 3.7]
        queue.fire_due(10.0)
        assert order == [1.2, 3.7, 9.9]

    def test_schedule_in_past_rejected(self):
        clock = SimulatedClock()
        clock.advance(10.0)
        with pytest.raises(InvalidStateError):
            clock.call_at(9.0, lambda: None)

    def test_pending_and_stats(self):
        queue = TimerQueue()
        handles = [queue.call_at(float(i + 1)) for i in range(5)]
        assert len(queue) == 5
        assert queue.scheduled == 5
        handles[0].cancel()
        assert len(queue) == 4
        fired = queue.fire_due(10.0)
        assert len(queue) == 0
        assert fired == handles[1:]


class TestTickBoundary:
    def test_deadline_exactly_on_tick_boundary_fires_inclusively(self):
        queue = TimerQueue()
        fired = []
        queue.call_at(5.0, lambda: fired.append(True))
        queue.fire_due(4.999999)
        assert fired == []
        queue.fire_due(5.0)  # inclusive: <= now
        assert fired == [True]

    def test_strict_mode_holds_boundary_timer_for_next_sweep(self):
        queue = TimerQueue()
        fired = []
        queue.call_at(5.0, lambda: fired.append(True))
        queue.fire_due(5.0, strict=True)  # now > deadline is false
        assert fired == []
        assert len(queue) == 1
        queue.fire_due(5.0001, strict=True)
        assert fired == [True]

    def test_strict_then_inclusive_on_same_instant(self):
        queue = TimerQueue()
        fired = []
        queue.call_at(2.0, lambda: fired.append(True))
        queue.fire_due(2.0, strict=True)
        assert fired == []
        queue.fire_due(2.0)
        assert fired == [True]


class TestCancelRearm:
    def test_cancel_then_rearm(self):
        queue = TimerQueue()
        fired = []
        handle = queue.call_at(5.0, lambda: fired.append("old"))
        assert handle.cancel() is True
        assert handle.cancel() is False  # idempotent
        replacement = queue.call_at(8.0, lambda: fired.append("new"))
        queue.fire_due(6.0)
        assert fired == []
        queue.fire_due(8.0)
        assert fired == ["new"]
        assert replacement.fired

    def test_cancel_after_fire_is_noop(self):
        queue = TimerQueue()
        handle = queue.call_at(1.0)
        queue.fire_due(2.0)
        assert handle.fired
        assert handle.cancel() is False
        assert len(queue) == 0


class TestLazyCancellation:
    def test_unpolled_queue_stays_within_twice_its_live_timers(self):
        """Arm and cancel 10k timers on a queue nothing polls (a daemon's
        wall-clock factory): the cancelled entries are compacted away."""
        queue = TimerQueue()
        keep = [queue.call_at(1e9 + i) for i in range(100)]
        largest_excess = 0
        for i in range(10_000):
            queue.call_at(60.0 + i).cancel()
            largest_excess = max(largest_excess, len(queue._heap) - 2 * len(queue))
        assert len(queue) == len(keep) == 100
        assert largest_excess <= 1
        assert queue.cancelled == 10_000

    def test_cancel_drops_callback_and_payload(self):
        queue = TimerQueue()
        handle = queue.call_at(5.0, lambda: None, payload="big")
        handle.cancel()
        assert handle.callback is None and handle.payload is None
        assert queue.fire_due(10.0) == []

    def test_cancelled_timer_never_fires_nor_moves_now(self):
        clock = SimulatedClock()
        fired = []
        clock.call_at(3.0, lambda: fired.append("cancelled")).cancel()
        clock.call_at(100.0, lambda: fired.append("late")).cancel()
        clock.call_at(5.0, lambda: fired.append(clock.now()))
        clock.advance(4.0)
        assert (fired, clock.now()) == ([], 4.0)
        clock.run_until_idle()
        assert fired == [5.0]
        assert clock.now() == 5.0  # the cancelled 100.0 entry moved nothing
        assert clock.pending_timers == 0


class TestReentrantFiring:
    def test_timer_fired_during_advance_schedules_another_due_timer(self):
        clock = SimulatedClock()
        order = []

        def first():
            order.append(("first", clock.now()))
            clock.call_at(7.0, lambda: order.append(("chained", clock.now())))

        clock.call_at(3.0, first)
        clock.advance(10.0)  # both fire inside one advance window
        assert order == [("first", 3.0), ("chained", 7.0)]
        assert clock.pending_timers == 0

    def test_chained_timer_beyond_window_waits(self):
        queue = TimerQueue()
        order = []
        queue.call_at(3.0, lambda: queue.call_at(20.0, lambda: order.append("late")))
        queue.fire_due(10.0)
        assert order == []
        assert len(queue) == 1
        queue.fire_due(20.0)
        assert order == ["late"]


class TestSimulatedClockIntegration:
    def test_call_at_routes_through_attached_wheel(self):
        clock = SimulatedClock()
        fired = []
        handle = clock.call_at(5.0, lambda: fired.append(clock.now()))
        assert handle is not None and handle.active
        assert clock.pending_timers == 1
        clock.advance(10.0)
        assert fired == [5.0]  # callback observes the fire time, not 10
        assert clock.now() == 10.0

    def test_wheel_timer_can_be_cancelled_via_handle(self):
        clock = SimulatedClock()
        fired = []
        handle = clock.call_after(3.0, lambda: fired.append(True))
        handle.cancel()
        clock.advance(10.0)
        assert fired == []
        assert clock.pending_timers == 0

    def test_run_until_idle_drains_wheel_and_heap(self):
        clock = SimulatedClock()
        order = []
        clock.call_at(9.0, lambda: order.append("later"))
        clock.call_at(4.0, lambda: order.append("earlier"))
        clock.run_until_idle()
        assert order == ["earlier", "later"]
        assert clock.now() == 9.0
        assert clock.pending_timers == 0

    def test_timer_during_advance_schedules_due_timer_same_advance(self):
        clock = SimulatedClock()
        order = []
        clock.call_at(2.0, lambda: clock.call_after(3.0, lambda: order.append(clock.now())))
        clock.advance(10.0)
        assert order == [5.0]


class TestThreadSafety:
    def test_concurrent_schedule_cancel_race_advance(self):
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleavings inside the queue
        try:
            self._race()
        finally:
            sys.setswitchinterval(switch_interval)

    def _race(self):
        queue = TimerQueue()
        now = [0.0]
        fired = []
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    handle = queue.call_at(
                        now[0] + 0.01 + (i % 7) * 0.01, lambda: fired.append(True)
                    )
                    if i % 3 == 0:
                        handle.cancel()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        # Poll concurrently with the arming threads.
        for _ in range(50):
            now[0] += 0.01
            queue.fire_due(now[0])
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        queue.fire_due(now[0] + 1.0)
        assert errors == []
        # Every armed timer either fired or was cancelled; none lost.
        assert len(queue) == 0
        assert len(fired) == queue.fired
        assert queue.fired + queue.cancelled == queue.scheduled


    def test_concurrent_compactions_keep_every_live_timer(self):
        """Two cancels per kept timer make nearly every cancel rebuild the
        heap while other threads push: no live timer may be lost."""
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            queue = TimerQueue()

            def worker():
                for i in range(2_000):
                    queue.call_at(float(i))
                    queue.call_at(float(i)).cancel()
                    queue.call_at(float(i)).cancel()

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch_interval)
        assert len(queue) == 8_000
        assert len(queue.fire_due(1e9)) == 8_000


class TestReviewRegressions:
    def test_same_timestamp_tie_goes_to_heap_timer(self):
        """Ties break by scheduling order: the timer armed first fires first."""
        clock = SimulatedClock()
        order = []
        clock.call_at(5.0, lambda: order.append("first"))
        clock.call_at(5.0, lambda: order.append("second"))
        clock.advance(10.0)
        assert order == ["first", "second"]

    def test_run_until_idle_tie_goes_to_heap_timer(self):
        clock = SimulatedClock()
        order = []
        clock.call_at(5.0, lambda: order.append("first"))
        clock.call_at(5.0, lambda: order.append("second"))
        clock.run_until_idle()
        assert order == ["first", "second"]
