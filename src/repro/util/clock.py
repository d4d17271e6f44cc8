"""Clock abstraction and the one deadline mechanism used throughout the library.

Benchmarks and tests need *deterministic* time so that resource-holding
times, timeouts and latency distributions are reproducible.  Production-style
code paths accept any :class:`Clock`; the test/bench harnesses pass a
:class:`SimulatedClock` and advance it explicitly, while interactive use can
fall back to :class:`WallClock`.

Every deadline — a simulated clock's timers, the Activity Service's
activity timeouts and the OTS's transaction timeouts (§3.4) — sits on a
:class:`TimerQueue`: a ``(when, seq, timer)`` heap with lazy cancellation.
Arming is O(log n) and cancelling O(1): a cancelled entry stays in the
heap until it surfaces, or until a cancel leaves cancelled entries
outnumbering live ones and the heap is rebuilt without them, so a queue
that nothing polls holds at most twice its live timers plus one.  A poll
with nothing due looks only at the heap's top.  A :class:`SimulatedClock`
fires its queue during :meth:`~SimulatedClock.advance`; a queue owned by a
service is polled by that service's ``expire_timeouts``.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import math
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import InvalidStateError

_PENDING = 0
_FIRED = 1
_CANCELLED = 2


class Clock(abc.ABC):
    """Minimal clock interface: monotonically non-decreasing seconds."""

    @abc.abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""

    @abc.abstractmethod
    def sleep(self, seconds: float) -> None:
        """Block (or simulate blocking) for ``seconds``."""


class WallClock(Clock):
    """Real (monotonic) time, for interactive use and site daemons."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class Timer:
    """One armed deadline on a :class:`TimerQueue`.

    ``callback`` (if any) runs when the timer fires; ``payload`` is left
    for the owner, which reads it back from the timers a poll returns.
    """

    __slots__ = ("when", "callback", "payload", "_state", "_queue")

    def __init__(
        self,
        when: float,
        callback: Optional[Callable[[], None]],
        payload: Any,
        queue: "TimerQueue",
    ) -> None:
        self.when = when
        self.callback = callback
        self.payload = payload
        self._state = _PENDING
        self._queue = queue

    @property
    def active(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        return self._state == _PENDING

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    def cancel(self) -> bool:
        """Disarm the timer; True if it was still pending."""
        return self._queue._cancel(self)


class TimerQueue:
    """Cancellable timers ordered by ``(when, scheduling order)``.

    Thread-safe: arming and cancelling may race a poll from another
    thread.  Callbacks run outside the lock, one at a time.  The queue
    has no notion of "now": a deadline already in the past is accepted
    and fires on the next poll.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._live = 0
        self._dead = 0  # cancelled entries still in the heap
        self.scheduled = 0
        self.fired = 0
        self.cancelled = 0

    def __len__(self) -> int:
        """Number of armed (neither fired nor cancelled) timers."""
        return self._live

    def call_at(
        self,
        when: float,
        callback: Optional[Callable[[], None]] = None,
        payload: Any = None,
    ) -> Timer:
        """Arm a timer for absolute time ``when``."""
        timer = Timer(when, callback, payload, self)
        with self._lock:
            heapq.heappush(self._heap, (when, next(self._seq), timer))
            self._live += 1
            self.scheduled += 1
        return timer

    def _cancel(self, timer: Timer) -> bool:
        with self._lock:
            if timer._state != _PENDING:
                return False
            timer._state = _CANCELLED
            timer.callback = timer.payload = None
            self._live -= 1
            self._dead += 1
            self.cancelled += 1
            if self._dead > self._live:
                self._heap = [entry for entry in self._heap if entry[2]._state == _PENDING]
                heapq.heapify(self._heap)
                self._dead = 0
            return True

    def pop_due(self, now: float, strict: bool = False) -> Optional[Timer]:
        """Remove and return the earliest timer due by ``now``, or None.

        ``strict=False`` takes deadlines ``<= now`` (a clock's firing
        rule); ``strict=True`` only deadlines ``< now`` (the services'
        ``now > deadline`` expiry rule).  The timer is marked fired but
        its callback is not run.
        """
        with self._lock:
            heap = self._heap  # compaction rebinds it; read under the lock
            while heap:
                when, _, timer = heap[0]
                if when > now or (strict and when == now):
                    return None
                heapq.heappop(heap)
                if timer._state == _CANCELLED:
                    self._dead -= 1
                    continue
                timer._state = _FIRED
                self._live -= 1
                self.fired += 1
                return timer
            return None

    def fire_due(self, now: float, strict: bool = False) -> List[Timer]:
        """Fire every timer due by ``now`` in ``(when, seq)`` order and
        return them.  A timer armed by a firing callback fires in the
        same call when it is due too."""
        fired = []
        while True:
            timer = self.pop_due(now, strict)
            if timer is None:
                return fired
            if timer.callback is not None:
                timer.callback()
            fired.append(timer)


class SimulatedClock(Clock):
    """A manually advanced clock with an ordered timer queue.

    ``sleep`` advances simulated time immediately (there is no real blocking,
    the whole library is single-threaded by design so that runs are
    deterministic).  Timers scheduled with :meth:`call_at` fire during
    :meth:`advance` in timestamp order; ties break by scheduling order.
    Each callback sees ``now()`` equal to its own deadline.  ``call_at``
    returns the :class:`Timer`, so a timer can be cancelled; a cancelled
    timer never fires and never moves ``now()``.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)
        self.timers = TimerQueue()

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.advance(seconds)

    def call_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run when simulated time reaches ``when``."""
        if when < self._now:
            raise InvalidStateError(
                f"cannot schedule timer in the past ({when} < {self._now})"
            )
        return self.timers.call_at(when, callback)

    def call_after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        return self.call_at(self._now + delay, callback)

    def advance(self, seconds: float) -> None:
        """Move time forward, firing any timers that become due."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        deadline = self._now + seconds
        self._fire_until(deadline)
        self._now = deadline

    def run_until_idle(self) -> None:
        """Fire every outstanding timer, advancing time as needed.

        A callback that keeps re-arming itself makes "every outstanding
        timer" unbounded — cancel it first or this will not return.
        """
        self._fire_until(math.inf)

    def _fire_until(self, limit: float) -> None:
        while True:
            timer = self.timers.pop_due(limit)
            if timer is None:
                return
            if timer.when > self._now:
                self._now = timer.when
            if timer.callback is not None:
                timer.callback()

    @property
    def pending_timers(self) -> int:
        return len(self.timers)
