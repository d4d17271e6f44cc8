"""Shared worker-pool plumbing for the parallel fan-out layers.

Both the activity-service broadcast executor
(:class:`~repro.core.broadcast.ThreadPoolBroadcastExecutor`) and the OTS
parallel participant phases (``TransactionFactory(parallel_participants=N)``)
need the same three things from a thread pool: lazy creation (a config
knob must not spawn threads until first use), detection of re-entrant use
(work submitted *from* a worker must not block on its own pool's slots —
that deadlocks), and idempotent shutdown.  This helper is that shared
core; the fan-out semantics (digestion order, abandonment, timeouts)
stay with the callers.

PR 10 adds the idle audit: pools track in-flight work and the time of
the last submission, and :meth:`ReentrantWorkerPool.reap_if_idle`
releases the daemon threads of a pool that has gone quiet — so a
drained load burst returns the process to its baseline thread count
instead of keeping ``max_workers`` threads parked forever.  The next
submission transparently recreates the pool (the existing contract).

Every ``Current`` keeps its association in a :class:`ThreadAssociation`,
so each thread has its own.  A pool worker runs each submitted call in
the submitting thread's associations and gets its own back afterwards:
a fan-out sends with the caller's node, activity and transaction exactly
as the serial path does.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional

# Per thread: weak references to the associations that thread has
# touched, only ever read and replaced by that thread.
_touched = threading.local()


class ThreadAssociation(threading.local):
    """One owner's association stack, per thread: ``stack`` starts as
    ``root()`` in every thread that reads it."""

    def __init__(self, root: Callable[[], list] = list) -> None:
        self.stack: list = root()
        refs = [ref for ref in getattr(_touched, "refs", ()) if ref() is not None]
        _touched.refs = refs + [weakref.ref(self)]


class ReentrantWorkerPool:
    """A lazily-created shared :class:`ThreadPoolExecutor` whose worker
    threads are tagged, so callers can detect nested submissions and
    degrade to serial execution instead of deadlocking."""

    def __init__(self, max_workers: int, thread_name_prefix: str = "workers") -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.thread_name_prefix = thread_name_prefix
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._worker_state = threading.local()
        self._in_flight = 0
        self._last_used = time.monotonic()
        self.reaped = 0

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self.thread_name_prefix,
                )
            return self._pool

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit ``fn(*args)``; the executing thread is tagged as ours
        and runs it in this thread's associations."""
        touched = [ref() for ref in getattr(_touched, "refs", ())]
        captured = [(a, list(a.stack)) for a in touched if a is not None]

        def marked(*call_args: Any) -> Any:
            self._worker_state.active = True
            own = [(association, association.stack) for association, _ in captured]
            for association, stack in captured:
                association.stack = stack
            try:
                return fn(*call_args)
            finally:
                for association, stack in own:
                    association.stack = stack

        with self._lock:
            self._in_flight += 1
            self._last_used = time.monotonic()
        try:
            future = self._ensure().submit(marked, *args)
        except BaseException:
            with self._lock:
                self._in_flight -= 1
            raise
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future: Future) -> None:
        with self._lock:
            self._in_flight -= 1
            self._last_used = time.monotonic()

    def in_worker(self) -> bool:
        """True when called from one of this pool's worker threads."""
        return getattr(self._worker_state, "active", False)

    @property
    def in_flight(self) -> int:
        """Submitted work not yet finished."""
        with self._lock:
            return self._in_flight

    def idle_seconds(self) -> float:
        """Seconds since the last submission or completion."""
        with self._lock:
            return time.monotonic() - self._last_used

    def reap_if_idle(self, max_idle: float) -> bool:
        """Release the threads of a pool idle for ``max_idle`` seconds.

        Returns True when a live pool was torn down.  The teardown joins
        the workers (``wait=True`` — they are idle by definition), so a
        ``threading.enumerate()`` audit right after sees the baseline
        count.  Never reaps while work is in flight.
        """
        with self._lock:
            if (
                self._pool is None
                or self._in_flight > 0
                or time.monotonic() - self._last_used < max_idle
            ):
                return False
            pool, self._pool = self._pool, None
            self.reaped += 1
        pool.shutdown(wait=True)
        return True

    def shutdown(self, wait: bool = False) -> None:
        """Release the worker threads (idempotent); next submit recreates.

        ``wait=True`` joins the workers before returning, for callers
        that need the thread count back at baseline deterministically.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
