"""PICurrent-style per-invocation context slots.

CORBA's ``PICurrent`` gives interceptors and application code a set of
slots scoped to the current logical thread of control.  Each thread has
its own stack of frames (a :class:`~repro.util.workers.ThreadAssociation`):
an invocation may trigger nested invocations (coordinator → action →
coordinator…) on the same thread, so the ORB pushes/pops a frame around
each server-side dispatch, and concurrent dispatches on socket connection
threads or pool workers never see each other's frames.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.util.workers import ThreadAssociation


class InvocationCurrent:
    """Per-thread stack of slot dictionaries, one frame per active dispatch."""

    def __init__(self) -> None:
        self._frames = ThreadAssociation(lambda: [{}])

    @property
    def depth(self) -> int:
        return len(self._frames.stack)

    def get_slot(self, slot: str, default: Any = None) -> Any:
        return self._frames.stack[-1].get(slot, default)

    def set_slot(self, slot: str, value: Any) -> None:
        self._frames.stack[-1][slot] = value

    def clear_slot(self, slot: str) -> None:
        self._frames.stack[-1].pop(slot, None)

    def push_frame(self, initial: Optional[Dict[str, Any]] = None) -> None:
        self._frames.stack.append(dict(initial) if initial else {})

    def pop_frame(self) -> Dict[str, Any]:
        frames = self._frames.stack
        if len(frames) == 1:
            raise IndexError("cannot pop the root invocation frame")
        return frames.pop()

    @contextmanager
    def frame(self, initial: Optional[Dict[str, Any]] = None) -> Iterator[Dict[str, Any]]:
        self.push_frame(initial)
        try:
            yield self._frames.stack[-1]
        finally:
            self.pop_frame()
