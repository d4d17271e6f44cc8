"""The fan-out engine — how one request reaches many recipients.

The paper's coordinator "transmits the signal to all registered Actions"
(§3.2.2) but says nothing about *how concurrently*.  This module is the
one place that decides, for every fan-out in the repository: an
:class:`~repro.core.coordinator.ActivityCoordinator` broadcasting a
signal, a federated subordinate relaying one, and the OTS's 2PC rounds
(prepare, commit, rollback — the paper layers them as one SignalSet,
figs 3 and 8), which :class:`~repro.ots.coordinator.Transaction` runs
through its factory's executor.

- :class:`SerialBroadcastExecutor` — the inline loop and the default:
  stamp, transmit, send, digest, next — one recipient at a time on the
  calling thread, with no pool, event or future;
- :class:`ThreadPoolBroadcastExecutor` — its pooled subclass: sends
  overlap on a shared worker pool while outcomes are digested in
  registration order on the calling thread.  It runs the inherited
  inline loop for a single transmission and when called from one of its
  own workers (a nested fan-out blocking on its own pool's slots would
  deadlock).

Both keep one contract:

- ``stamp`` (which assigns delivery ids, fires OTS fail-points and primes
  marshal-once templates) runs only on the calling thread, in
  registration order;
- ``digest`` — where the coordinator calls the guarded set's
  ``set_response`` and the OTS folds votes and heuristics — runs only on
  the calling thread, in registration order, so SignalSets and
  transactions never need to be thread-safe;
- a True reply from ``digest`` abandons the fan-out: sends not yet
  dispatched are skipped and in-flight ones are drained before returning,
  so a recipient never sees two requests of one set concurrently.  Their
  outcomes go to the optional ``drained`` hook (OTS prepare records late
  votes there so those participants are rolled back) or are discarded;
- an exception escaping ``send``, ``digest`` or ``drained`` stops the
  fan-out the same way — queued sends cancelled, in-flight ones drained
  — and is raised only once none of its sends is running.  A ``stamp``
  that raises stops dispatch at that point: the sends already dispatched
  are digested as usual, then the exception is raised, which is the
  prefix the inline loop leaves.

The inline loop stamps lazily (an abandoned broadcast stamps nothing for
its skipped tail); the pool stamps each transmission as it submits it,
so after an abandonment the two engines' delivery-id *sequences* and
fired fail-points may differ, while ids within one run stay unique and
ordered.

Sends ride the caller's marshal-once templates (see
``ActivityCoordinator._prepare_broadcast`` and the OTS
``_ParticipantRound``): built on the calling thread, immutable once
built, and only read by workers.  Worker threads cross the *delivery
policy* (thread-safe, see :mod:`repro.core.delivery`) and — for remote
recipients — the ORB transport, whose counters and rng stream are also
lock-protected.  Two caveats there: which delivery draws which seeded
fault decision becomes schedule-dependent under concurrency, so
seeded-fault *trace* determinism is only guaranteed inline; and a
``SimulatedClock`` is a single-threaded construct, so transports that
inject latency must run on a ``WallClock`` under the pool — as
``bench_fig15_parallel_broadcast.py`` does.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.signals import Outcome
from repro.util.workers import ReentrantWorkerPool

# Sentinel a worker returns when the fan-out was abandoned before its
# send was dispatched.
_SKIPPED = object()


class Transmission:
    """One planned logical transmission: a recipient awaiting a request.

    ``stamp`` prepares the request (called once per transmission, always
    from the calling thread, in registration order); ``send`` delivers
    it and returns the outcome.  An activity broadcast stamps a signal
    with a fresh delivery id and sends it through the delivery policy,
    which by contract never raises ``CommunicationError``; an OTS round
    stamps its participant record and its ``send`` returns the
    participant's exception as a value.

    Slotted: fan-outs build one per recipient per round.
    """

    __slots__ = ("index", "label", "stamp", "send")

    def __init__(
        self,
        index: int,
        label: str,
        stamp: Callable[[], Any],
        send: Callable[[Any], Any],
    ) -> None:
        self.index = index
        self.label = label
        self.stamp = stamp
        self.send = send


# digest(transmission, stamped, outcome) -> True to abandon the fan-out
# (a SignalSet wants a fresh signal now; a participant voted no).
DigestFn = Callable[[Transmission, Any, Any], bool]
# on_transmit(transmission, stamped): record the logical transmission
# (event-log hook, None if unread); called just before the digest.
TransmitFn = Optional[Callable[[Transmission, Any], None]]
# drained(transmission, stamped, outcome): an outcome that finished after
# the fan-out was abandoned (pool only; the inline loop never has one).
DrainedFn = Callable[[Transmission, Any, Any], None]

_Dispatched = Tuple[Transmission, Any, Future]


class SerialBroadcastExecutor:
    """The inline fan-out: one recipient at a time, in registration order.

    Stamp, transmit, send, digest, next — so event traces are the
    historical ones the figure benches assert on.  ``timeout`` is not
    enforceable for a synchronous in-thread send; bounding slow actions
    inline is the delivery policy's job (attempt limits).  Holds no
    threads, so :meth:`shutdown` and :meth:`reap_if_idle` do nothing.
    """

    def broadcast(
        self,
        transmissions: Sequence[Transmission],
        on_transmit: TransmitFn,
        digest: DigestFn,
        timeout: Optional[float] = None,
        drained: Optional[DrainedFn] = None,
    ) -> bool:
        """Deliver to every transmission, feeding outcomes to ``digest``
        in registration order; return True if the fan-out was abandoned
        (``digest`` returned True).  ``timeout`` bounds the wait for any
        single outcome where the executor can enforce it.
        """
        for transmission in transmissions:
            stamped = transmission.stamp()
            if on_transmit is not None:
                on_transmit(transmission, stamped)
            outcome = transmission.send(stamped)
            if digest(transmission, stamped, outcome):
                return True
        return False

    def reap_if_idle(self, max_idle: float) -> bool:
        """Release idle worker threads; True when any were released."""
        return False

    def shutdown(self) -> None:
        """Release the worker threads (idempotent)."""


class ThreadPoolBroadcastExecutor(SerialBroadcastExecutor):
    """The pooled fan-out: concurrent sends over a shared worker pool.

    Sends are submitted in registration order and run concurrently;
    outcomes are digested in registration order on the calling thread,
    so a SignalSet observes the same ``set_response`` sequence the inline
    loop produces (and the same final outcome), and a transaction folds
    the same votes and heuristics.

    ``timeout`` bounds the wait for each outcome; a send that exceeds it
    yields ``Outcome.unreachable``.  A timed-out send cannot be
    preempted: it keeps running on its worker, its eventual result is
    discarded, and — as with a genuinely partitioned participant in a
    real network — it may still be executing when a later signal of the
    set arrives.  This is the one exception to the drain and is exactly
    the §3.4 situation (late duplicate effects) that the
    at-least-once/idempotent-Action requirement exists for.  A timed-out
    send still *queued* is cancelled.

    ``pool`` is shared by every fan-out through this executor (threads
    are created lazily and reused), so ``max_workers`` is the budget of
    concurrent sends across all of its callers.
    """

    def __init__(self, max_workers: int = 8) -> None:
        self.max_workers = max_workers
        self.pool = ReentrantWorkerPool(max_workers, thread_name_prefix="broadcast")
        # The executor is designed to be shared across coordinators and
        # calling threads, so its own counters update under a lock too.
        self._stats_lock = threading.Lock()
        self.broadcasts = 0
        self.abandoned = 0
        self.skipped_sends = 0
        self.discarded_outcomes = 0
        self.nested_serial = 0
        self.timeouts = 0

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def reap_if_idle(self, max_idle: float) -> bool:
        return self.pool.reap_if_idle(max_idle)

    def shutdown(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "ThreadPoolBroadcastExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def broadcast(
        self,
        transmissions: Sequence[Transmission],
        on_transmit: TransmitFn,
        digest: DigestFn,
        timeout: Optional[float] = None,
        drained: Optional[DrainedFn] = None,
    ) -> bool:
        self._count("broadcasts")
        if self.pool.in_worker():
            # Re-entrant fan-out from one of our own workers (an action
            # completing a nested activity, a participant committing
            # another transaction): waiting on this pool from inside it
            # can exhaust the slots and deadlock.
            self._count("nested_serial")
            return super().broadcast(transmissions, on_transmit, digest, timeout, drained)
        if len(transmissions) <= 1:
            # Nothing to overlap; no pool hop.
            return super().broadcast(transmissions, on_transmit, digest, timeout, drained)
        abandon = threading.Event()

        def run(transmission: Transmission, stamped: Any) -> Any:
            if abandon.is_set():
                return _SKIPPED
            return transmission.send(stamped)

        dispatched: List[_Dispatched] = []
        stamp_error: Optional[BaseException] = None
        for transmission in transmissions:
            try:
                stamped = transmission.stamp()
            except BaseException as exc:  # raised once the dispatched prefix digested
                stamp_error = exc
                break
            dispatched.append((transmission, stamped, self.pool.submit(run, transmission, stamped)))
        timed_out: List[Future] = []
        abandoned = False
        position = 0
        try:
            for position, (transmission, stamped, future) in enumerate(dispatched):
                try:
                    outcome = future.result(timeout)
                except FutureTimeoutError:
                    self._count("timeouts")
                    timed_out.append(future)
                    outcome = Outcome.unreachable(
                        f"action {transmission.label!r} did not answer "
                        f"{stamped.signal_name!r} within {timeout}s"
                    )
                if on_transmit is not None:
                    on_transmit(transmission, stamped)
                if digest(transmission, stamped, outcome):
                    abandoned = True
                    break
        except BaseException:
            abandon.set()
            self._drain(dispatched[position + 1 :], drained, timeout)
            self._cancel(timed_out)
            raise
        # A send digested as timed-out may still be *queued* (pool slots
        # exhausted by its siblings): cancel it so it cannot fire a stale
        # request after the fan-out resolved without it.
        self._cancel(timed_out)
        if abandoned:
            self._count("abandoned")
            abandon.set()
            error = self._drain(dispatched[position + 1 :], drained, timeout)
            if error is not None:
                raise error
        if stamp_error is not None:
            raise stamp_error
        return abandoned

    def _cancel(self, futures: List[Future]) -> None:
        for future in futures:
            if future.cancel():
                self._count("skipped_sends")

    def _drain(
        self, pending: List[_Dispatched], drained: Optional[DrainedFn], timeout: Optional[float]
    ) -> Optional[BaseException]:
        """Skip the undispatched sends of an abandoned fan-out and wait
        for the in-flight ones, handing their outcomes to ``drained``;
        returns the first exception a send or the hook raised."""
        error: Optional[BaseException] = None
        in_flight = [entry for entry in pending if not entry[2].cancel()]
        self._count("skipped_sends", len(pending) - len(in_flight))
        for transmission, stamped, future in in_flight:
            try:
                outcome = future.result(timeout)
                if outcome is _SKIPPED:
                    self._count("skipped_sends")
                elif drained is None:
                    self._count("discarded_outcomes")
                else:
                    drained(transmission, stamped, outcome)
            except FutureTimeoutError:
                self._count("timeouts")
            except BaseException as exc:  # raised by the caller once all are drained
                error = error if error is not None else exc
        return error
