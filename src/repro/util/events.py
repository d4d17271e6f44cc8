"""Structured event tracing.

The paper's figures 8, 10, 11 and 12 are message-sequence charts.  To
*reproduce* them we record every protocol step (``get_signal``, signal
transmission, ``set_response``, ``get_outcome``, workflow messages) in an
:class:`EventLog` and assert the recorded sequence equals the figure's.
Recording is a subscription: a log records only while a reader is attached.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, ClassVar, Deque, Dict, Iterator, List, Optional, Tuple

from repro.util.records import FrozenRecord


class TraceEvent(FrozenRecord):
    """One recorded protocol step (slotted, PR 7: one per traced step)."""

    __slots__ = ("kind", "detail", "timestamp")
    _fields: ClassVar[Tuple[str, ...]] = __slots__

    def __init__(
        self,
        kind: str,
        detail: Optional[Dict[str, Any]] = None,
        timestamp: float = 0.0,
    ) -> None:
        self._init(
            kind=kind,
            detail=detail if detail is not None else {},
            timestamp=timestamp,
        )

    def matches(self, kind: str, **detail: Any) -> bool:
        """True if this event has ``kind`` and every given detail item."""
        if self.kind != kind:
            return False
        return all(self.detail.get(key) == value for key, value in detail.items())

    def brief(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"{self.kind}({parts})"


class EventLog:
    """An append-only trace of :class:`TraceEvent`, kept only while read.

    The log can be shared by many components; a simulated clock may be
    attached so events carry simulated timestamps.

    Nothing is recorded while ``on`` is False, i.e. until :meth:`attach`
    retains events for reading or :meth:`subscribe` streams them to a
    listener.  ``max_events=N`` bounds what an attached reader retains:
    a ring buffer keeping the *latest* N events, counting every displaced
    one in :attr:`dropped`.
    """

    def __init__(
        self, clock: Optional[Any] = None, max_events: Optional[int] = None
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be at least 1")
        self.max_events = max_events
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self._clock = clock
        self._listeners: List[Callable[[TraceEvent], None]] = []
        self._ring_lock = threading.Lock()
        self._retaining = self.on = False
        self.dropped = 0

    def attach(self) -> "EventLog":
        """Retain every event from now on (until :meth:`detach`)."""
        self._retaining = self.on = True
        return self

    def detach(self) -> None:
        """Stop retaining; what was retained stays readable."""
        self._retaining = False
        self.on = bool(self._listeners)

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        self._listeners.append(listener)
        self.on = True

    def record(self, kind: str, **detail: Any) -> None:
        if not self.on:
            return
        timestamp = self._clock.now() if self._clock is not None else 0.0
        event = TraceEvent(kind=kind, detail=detail, timestamp=timestamp)
        if self._retaining:
            # The deque displaces the oldest event itself; the lock only
            # keeps the dropped counter honest under concurrent writers.
            with self._ring_lock:
                if len(self._events) == self.max_events:
                    self.dropped += 1
                self._events.append(event)
        for listener in self._listeners:
            listener(event)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [event for event in self._events if event.kind in wanted]

    def kinds(self) -> List[str]:
        return [event.kind for event in self._events]

    def sequence(self, *fields: str) -> List[Tuple[Any, ...]]:
        """Project each event onto ``(kind, *detail[fields])`` tuples.

        This is the form used to compare against the paper's sequence
        charts: ``log.sequence("signal")`` yields e.g.
        ``[("get_signal", "prepare"), ("transmit", "prepare"), ...]``.
        """
        return [
            (event.kind,) + tuple(event.detail.get(name) for name in fields)
            for event in self._events
        ]

    def assert_subsequence(self, expected: List[Tuple[Any, ...]], *fields: str) -> None:
        """Assert ``expected`` appears in order (not necessarily contiguous).

        Raises ``AssertionError`` with a readable diff otherwise.
        """
        actual = self.sequence(*fields)
        position = 0
        for step in expected:
            while position < len(actual) and actual[position] != step:
                position += 1
            if position == len(actual):
                raise AssertionError(
                    f"expected step {step!r} not found in order; trace was:\n"
                    + "\n".join(repr(item) for item in actual)
                )
            position += 1
