"""Transaction factory: creation, registry, timeouts and fail-points."""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import FactoryConfig
from repro.core.broadcast import SerialBroadcastExecutor, ThreadPoolBroadcastExecutor
from repro.exceptions import ReproError
from repro.ots.coordinator import Control, SweepWrites, Transaction
from repro.ots.exceptions import InvalidTransaction, SimulatedCrash
from repro.ots.locks import LockManager
from repro.ots.recovery import LogIndex
from repro.ots.status import TransactionStatus
from repro.persistence.wal import GroupCommitWAL, WriteAheadLog
from repro.util.admission import AdmissionGate, build_gate
from repro.util.clock import Clock, SimulatedClock, TimerQueue
from repro.util.events import EventLog
from repro.util.idgen import IdGenerator
from repro.util.sharding import StripedMap

PARKED_COMPLETION_LIMIT = 1024  # then checkpoint without waiting for a round


class Failpoints:
    """Named crash points armed by tests to halt the coordinator mid-protocol.

    ``arm("after_commit_log")`` makes the next pass through that point
    raise :class:`SimulatedCrash`; points disarm after firing once.

    ``on_fire`` (when set) runs just before the raise.  The site daemon
    uses it to turn a simulated crash into a real one — SIGKILL of its
    own process — so the same armed points drive both the in-process
    crash tests and the true multi-process fault-tolerance tests.
    """

    def __init__(self) -> None:
        self._armed: Set[str] = set()
        self.fired: List[str] = []
        self.on_fire: Optional[Callable[[str], None]] = None

    def arm(self, name: str) -> None:
        self._armed.add(name)

    def disarm(self, name: str) -> None:
        self._armed.discard(name)

    def clear(self) -> None:
        self._armed.clear()

    def armed(self) -> List[str]:
        return sorted(self._armed)

    def hit(self, name: str) -> None:
        if name in self._armed:
            self._armed.discard(name)
            self.fired.append(name)
            if self.on_fire is not None:
                self.on_fire(name)
            raise SimulatedCrash(f"fail-point {name!r} fired")


class TransactionFactory:
    """Creates and tracks transactions for one simulated deployment.

    The factory owns the pieces every transaction shares: the clock, the
    write-ahead log (for commit decisions), the lock manager, the event
    log and the fail-point switchboard.  It also keeps a registry of live
    transactions by tid, which is what lets the propagation interceptors
    re-associate an incoming request with its transaction — the moral
    equivalent of OTS interposition.

    Tuning lives in :class:`~repro.config.FactoryConfig` (see its
    docstring for the knobs and defaults).  Highlights:

    ``group_commit_window`` selects the logging engine: ``None`` keeps
    the classic immediate-force WAL; a float (seconds, 0 allowed) builds
    a :class:`~repro.persistence.wal.GroupCommitWAL` so concurrent
    commits share durable forces.  Coordinators log through
    :meth:`log_commit_decision` (forced — where the batching takes
    effect) and :meth:`log_completion` (unforced: it rides the next
    force; who forces the tail, and why losing it is safe, is stated
    there).  Local resources hand over their phase-one intentions
    through :meth:`stage_intention` and make their store writes through
    :meth:`stage_write`, which is how phase two of one transaction
    becomes one write per store.

    Every transaction runs its prepare, commit and rollback rounds
    through :attr:`executor`, the Activity Service's fan-out engine
    (:mod:`repro.core.broadcast`).  ``parallel_participants`` picks it:
    1 (the default) is the inline
    :class:`~repro.core.broadcast.SerialBroadcastExecutor`; N > 1 is a
    :class:`~repro.core.broadcast.ThreadPoolBroadcastExecutor` of N
    workers (threads named ``participants``), shared by every
    transaction of this factory and created lazily, whose outcomes are
    still folded in registration order, so heuristics, votes and log
    records stay deterministic on the non-abandoned path.  After a
    no-vote the *count* of trailing ``tx_vote`` records is
    schedule-dependent (whether a sibling prepare dispatched before the
    abandonment decides whether it voted at all) — behaviour stays
    correct either way: only participants that actually prepared are
    rolled back.  It composes with ``group_commit_window`` — parallel
    phases shorten each transaction, group commit shares the forces
    across transactions.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        wal: Optional[WriteAheadLog] = None,
        event_log: Optional[EventLog] = None,
        config: Optional[FactoryConfig] = None,
    ) -> None:
        self.config = config = config if config is not None else FactoryConfig()
        group_commit_window = config.group_commit_window
        self.clock = clock if clock is not None else SimulatedClock()
        if wal is None:
            if group_commit_window is not None:
                wal = GroupCommitWAL(window=group_commit_window)
            else:
                wal = WriteAheadLog()
        elif group_commit_window is not None:
            if not isinstance(wal, GroupCommitWAL):
                raise ValueError(
                    "group_commit_window requires a GroupCommitWAL; the"
                    " supplied log forces every append privately"
                )
            wal.window = group_commit_window
        self.wal = wal
        self._log = LogIndex.of(wal)
        self.group_commit_window = getattr(wal, "window", None)
        self.event_log = (
            event_log
            if event_log is not None
            else EventLog(self.clock, max_events=config.max_events)
        )
        # Admission control (PR 10): None unless max_live is configured,
        # so the default create path is exactly the pre-gate code.
        self.admission: Optional[AdmissionGate] = build_gate(
            config, name="TransactionFactory"
        )
        self.lock_manager = LockManager()
        self.failpoints = Failpoints()
        self.retry_attempts = config.retry_attempts
        self.parallel_participants = config.parallel_participants
        # The fan-out engine every transaction's 2PC rounds run through.
        self.executor = SerialBroadcastExecutor()
        if config.parallel_participants > 1:
            self.executor = ThreadPoolBroadcastExecutor(config.parallel_participants)
            self.executor.pool.thread_name_prefix = "participants"
        self.ids = IdGenerator(prefix=config.tid_prefix)
        # Striped registries: begin/get/finish from parallel participant
        # workers touch only the owning segment, not one global lock.
        self._transactions = StripedMap(shards=config.registry_shards)
        self._active = StripedMap(shards=config.registry_shards)
        self._counter_lock = threading.Lock()
        self.created = 0
        self.committed = 0
        self.rolled_back = 0
        # (tid, extra, unsynced stores) of completions awaiting checkpoint().
        self._parked: List[Tuple[str, Dict[str, Any], Sequence[Any]]] = []
        self._parked_lock = threading.Lock()
        # Deadlines: on a SimulatedClock each timed transaction's timer
        # sits on the clock's own queue and fires during `advance`; on
        # any other clock it sits on this factory's queue, which only
        # `expire_timeouts` polls.
        self._deadlines: Optional[TimerQueue] = (
            None if isinstance(self.clock, SimulatedClock) else TimerQueue()
        )

    # -- durable logging ----------------------------------------------------

    def log_commit_decision(
        self, tid: str, recovery_keys: List[str], intentions: Optional[Dict[str, Any]] = None,
        root: Optional[str] = None,
    ):
        """Force the commit decision (and any unforced completion records
        ahead of it); under group commit the force is shared with every
        other transaction inside the batching window.  ``intentions``
        (recovery key -> ``[version, value]``) become durable with it; a
        subordinate's are already in its ``subtx_prepared`` — unless it
        is a last agent, whose decision names its superior's ``root``."""
        extra: Dict[str, Any] = {"intentions": intentions} if intentions else {}
        if root is not None:
            extra["root"] = root
        return self.wal.append(
            "tx_commit_decision", tid=tid, recovery_keys=recovery_keys, **extra
        )

    def log_delegation(self, tid: str, keys: List[str], intentions: Any, agent: str):
        """Force ``tx_delegated``: local intentions held for a last agent."""
        return self.wal.append(
            "tx_delegated", tid=tid, recovery_keys=keys, intentions=intentions, agent=agent
        )

    def log_completion(self, tid: str, unsynced: Sequence[Any] = (), **extra: Any):
        """Log the end of phase two (marks the transaction resolved).

        Unforced: the record rides the next force of this log (the next
        commit decision), and the deployment's housekeeping round
        (:meth:`FederatedTransactionService.retire_completed`) and site
        shutdown force whatever tail is left.  Presumed abort never needs
        the end record durable: a crash that loses it leaves a decision
        without a completion, which boot-time recovery replays and
        completes again — installing nothing, since every intention the
        decision carries is at or below the stored install version (also
        after a later one-phase commit, which logs nothing).  Callers
        log it only after the phase-two store write returned, and one
        that left ``unsynced`` stores waits for :meth:`checkpoint`, so it
        cannot outrun the installs it covers, even across a power loss.
        """
        if not unsynced:
            return self.wal.append_volatile("tx_completed", tid=tid, **extra)
        with self._parked_lock:
            self._parked.append((tid, extra, unsynced))
            full = len(self._parked) >= PARKED_COMPLETION_LIMIT
        if full:  # no housekeeping round serves this factory
            self.checkpoint()

    def checkpoint(self) -> int:
        """Sync each store the parked completions' installs left dirty,
        once, then append the completions whose stores synced; returns
        how many.  Never raises: a failed sync drops the completions it
        covers (recovery redoes them) and fails its store until reopened."""
        with self._parked_lock:
            parked, self._parked = self._parked, []
        failed = set()
        for store in {store for _, _, stores in parked for store in stores}:
            try:
                store.sync()
            except ReproError as exc:  # a failed fsync: the store stays failed
                failed.add(store)
                self.event_log.record("checkpoint_sync_failed", error=str(exc))
        logged = [(tid, extra) for tid, extra, stores in parked if failed.isdisjoint(stores)]
        for tid, extra in logged:
            self.wal.append_volatile("tx_completed", tid=tid, **extra)
        return len(logged)

    def log_index(self) -> LogIndex:
        """The incremental index of this factory's log, brought up to
        date (reads only the records forced since the previous look)."""
        return self._log.refresh()

    # -- durable resource state ---------------------------------------------

    def stage_intention(self, tid: str, key: str, version: int, value: Any) -> None:
        """Hand transaction ``tid`` a local resource's phase-one intention:
        install ``value`` as version ``version`` of ``key``.  Nothing is
        written; the transaction's forced record carries it."""
        self.get(tid)._intentions[key] = [version, value]

    def stage_write(self, tid: str, store: Any, puts: Any) -> None:
        """The one durable write path of a local resource of ``tid``.

        While a sweep is open for ``tid`` (the coordinator's phase two or
        rollback, a recovery replay) the write joins its per-store
        batch; otherwise (one-phase commit) it is applied here and now.
        """
        sweep = self._log.open_sweeps.get(tid)
        if sweep is None:
            store.put_many(puts)
        else:
            sweep.stage(store, puts)

    def sweep(self, tid: str, records: Any = ()) -> SweepWrites:
        """A sweep collecting ``tid``'s store writes (open it with ``with``)."""
        return SweepWrites(self._log, tid, records)

    # -- parallel participant calls -----------------------------------------

    def shutdown_participant_pool(self) -> None:
        """Release the executor's threads (idempotent; tests/teardown)."""
        self.executor.shutdown()

    def reap_idle_workers(self, max_idle: float = 30.0) -> bool:
        """Tear down the executor's pool when it has sat idle.

        A burst of parallel 2PC traffic lazily spawns up to
        ``parallel_participants`` daemon threads; once the burst drains
        they used to park forever.  Returns True when threads were
        released; the next parallel phase transparently recreates them.
        """
        return self.executor.reap_if_idle(max_idle)

    # -- creation ---------------------------------------------------------

    def create(self, timeout: float = 0.0, name: Optional[str] = None) -> Transaction:
        """Begin a new top-level transaction.

        With admission control configured (``FactoryConfig.max_live``),
        a create past the live-population cap raises
        :class:`~repro.exceptions.AdmissionRejected` before any state is
        created; the slot is returned when the transaction finishes.
        Subtransactions ride their parent's admission and are never
        gated.
        """
        admitted = False
        if self.admission is not None:
            self.admission.admit()
            admitted = True
        try:
            tid = self.ids.next("tx")
            tx = Transaction(self, tid, parent=None, timeout=timeout, name=name)
            self._transactions.put(tid, tx)
            self._active.put(tid, True)
        except BaseException:
            if admitted:
                self.admission.release()
            raise
        tx._admitted = admitted
        with self._counter_lock:
            self.created += 1
        self.event_log.record("tx_begin", tid=tid, top_level=True)
        if timeout > 0:
            if self._deadlines is None:
                tx._expiry_timer = self.clock.call_at(tx.deadline, partial(self._expire, tid))
            else:
                tx._expiry_timer = self._deadlines.call_at(tx.deadline, payload=tid)
        return tx

    def create_control(self, timeout: float = 0.0, name: Optional[str] = None) -> Control:
        """Spec-shaped variant of :meth:`create`."""
        return Control(self.create(timeout, name))

    def create_subtransaction(
        self, parent: Transaction, name: Optional[str] = None
    ) -> Transaction:
        tid = self.ids.next("tx")
        tx = Transaction(self, tid, parent=parent, timeout=0.0, name=name)
        self._transactions.put(tid, tx)
        self._active.put(tid, True)
        with self._counter_lock:
            self.created += 1
        self.event_log.record("tx_begin", tid=tid, top_level=False, parent=parent.tid)
        return tx

    # -- registry ------------------------------------------------------------

    def get(self, tid: str) -> Transaction:
        tx = self._transactions.get(tid)
        if tx is None:
            raise InvalidTransaction(f"unknown transaction {tid!r}")
        return tx

    def knows(self, tid: str) -> bool:
        return tid in self._transactions

    def live(self, tid: str) -> Optional[Transaction]:
        """The registered transaction ``tid``, or None once forgotten."""
        return self._transactions.get(tid)

    def active_transactions(self) -> List[Transaction]:
        listed = []
        for tid in self._active.sorted_keys():
            tx = self._transactions.get(tid)
            if tx is not None:
                listed.append(tx)
        return listed

    def on_transaction_finished(self, tx: Transaction) -> None:
        """Called by transactions when they reach a terminal state."""
        self._active.pop(tx.tid, None)
        if getattr(tx, "_admitted", False):
            # Release exactly once even if the terminal transition is
            # re-reported; adopted/recovered transactions never set it.
            tx._admitted = False
            if self.admission is not None:
                self.admission.release()
        handle = tx._expiry_timer
        if handle is not None:
            handle.cancel()
            tx._expiry_timer = None
        with self._counter_lock:
            if tx.status is TransactionStatus.COMMITTED:
                self.committed += 1
            elif tx.status is TransactionStatus.ROLLED_BACK:
                self.rolled_back += 1

    # -- timeouts ---------------------------------------------------------------

    def _expire(self, tid: str) -> bool:
        """Deadline timer of ``tid``: roll it back unless it finished, its
        commit was decided first, or another thread is completing it."""
        tx = self._transactions.get(tid)
        if tx is None or not tx._completion.acquire(blocking=False):
            return False
        try:
            if tx.status.is_terminal or tx.decided:
                return False
            self.event_log.record("tx_timeout", tid=tid)
            tx.rollback()
            return True
        finally:
            tx._completion.release()

    def expire_timeouts(self) -> List[str]:
        """Roll back every active transaction strictly past its deadline.

        Fires the timers of this factory's own queue due strictly before
        now (O(expiring)), in tid order, each recording ``tx_timeout``
        like a clock-fired timeout.  On a SimulatedClock the deadlines
        live on the clock, which has already rolled them back during
        ``advance``, so there is nothing to report.
        """
        if self._deadlines is None:
            return []
        due = sorted(
            timer.payload
            for timer in self._deadlines.fire_due(self.clock.now(), strict=True)
        )
        return [tid for tid in due if self._expire(tid)]

    def redrive_stuck(self) -> List[str]:
        """Re-drive completions interrupted mid-sweep; returns finished tids.

        A durable-store failure during phase two or a rollback sweep
        strands a transaction in ``COMMITTING``/``ROLLING_BACK``, a failed
        decision force strands it decided in ``PREPARED`` (see
        :meth:`Transaction.redrive`).  This sweep retries each such
        transaction and swallows per-transaction failures — a replica
        set still below quorum just leaves the transaction for the next
        sweep.  One whose completion another thread is running is in
        flight, not stranded, and is skipped.
        """
        finished = []
        for tx in self.active_transactions():
            stranded = tx.status in (
                TransactionStatus.COMMITTING,
                TransactionStatus.ROLLING_BACK,
            ) or (tx.status is TransactionStatus.PREPARED and tx.decided)
            if not stranded or not tx._completion.acquire(blocking=False):
                continue
            try:
                if tx.redrive():
                    finished.append(tx.tid)
            except ReproError:
                continue
            finally:
                tx._completion.release()
        return finished

    def forget_completed(self) -> int:
        """Drop completed transactions from the registry; return count."""
        done = [
            tid
            for tid, tx in self._transactions.items()
            if tx.status.is_terminal and tid not in self._active
        ]
        for tid in done:
            self._transactions.pop(tid, None)
        return len(done)
