"""The transaction object: Coordinator + Terminator + Control in one engine.

A :class:`Transaction` plays all three CosTransactions roles; thin
:class:`Control`, :class:`Coordinator` and :class:`Terminator` facades
expose the spec-shaped surfaces.  Top-level commitment runs presumed-abort
two-phase commit:

1. ``before_completion`` synchronizations (a failure forces rollback);
2. phase one: every registered resource votes; VoteReadOnly participants
   drop out, any VoteRollback aborts the rest;
3. the commit decision, the participants' recovery keys and the local
   resources' intentions are *forced to the write-ahead log* as one
   record before phase two (the recovery manager finishes phase two
   from it after a coordinator crash);
4. phase two: commit each remaining resource (retrying transient
   communication failures, collecting heuristic outcomes);
5. a completion record is logged *unforced*, ``after_completion`` runs,
   locks release.

Durable writes: one forced log record, then one store write per store.
Phase one writes nothing: a local resource hands its intention to the
transaction (:meth:`TransactionFactory.stage_intention`) and the forced
``tx_commit_decision`` carries them all, so a no-vote — or a crash
before the force — leaves nothing durable behind.  While a commit /
rollback sweep runs, the store writes of the local resources
(:meth:`TransactionFactory.stage_write`) are collected in a
:class:`SweepWrites` and land as one ``put_many`` per distinct store
when the sweep ends.  Nothing is acknowledged before that write returns:
a resource is marked completed and ``tx_completed`` is appended only
afterwards, so that record — which rides the next force (see
:meth:`TransactionFactory.log_completion`) — can never become durable
before the installs it covers.  A failed decision force leaves the
transaction ``PREPARED`` and unable to roll back until
:meth:`Transaction.redrive` forces the decision again.

Nested (sub)transactions never touch the log: their commit provisionally
hands resources, locks and synchronizations to the parent, per the
retained-resources model in the paper's introduction; their rollback
undoes only their own work.

Fail-points (:class:`~repro.ots.exceptions.SimulatedCrash`) can be armed
between any two protocol steps to reproduce coordinator failures.
"""

from __future__ import annotations

import threading
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import CommunicationError
from repro.orb.marshal import MarshalError
from repro.orb.reference import ObjectRef
from repro.ots.exceptions import (
    HeuristicCommit,
    HeuristicException,
    HeuristicHazard,
    HeuristicMixed,
    HeuristicRollback,
    Inactive,
    NotPrepared,
    SimulatedCrash,
    SubtransactionsUnavailable,
    SynchronizationUnavailable,
    TransactionRolledBack,
)
from repro.ots.resource import call_participant
from repro.ots.status import TransactionStatus, Vote
from repro.util.records import SlottedRecord

# Sentinel a prepare worker returns when the round was abandoned before
# its participant was asked (distinct from a participant's own return
# value — a buggy prepare() returning None must fail as loudly as it
# does in the serial sweep, not be mistaken for "never asked").
_NOT_ASKED = object()


class ResourceRecord(SlottedRecord):
    """Bookkeeping for one registered two-phase participant (slotted, PR 7).

    ``prepare_failed`` distinguishes "voted ROLLBACK" (the participant
    aborted itself as part of voting — presumed abort lets the sweep
    skip it) from "prepare *raised*" (the participant's state is
    unknown: an interposed subordinate may be stuck mid-prepare holding
    locks, so the phase-one failure sweep must still send it a
    rollback, best-effort).
    """

    __slots__ = ("participant", "recovery_key", "vote", "completed", "prepare_failed")
    _fields: ClassVar[Tuple[str, ...]] = __slots__

    def __init__(
        self,
        participant: Any,
        recovery_key: Optional[str] = None,
        vote: Optional[Vote] = None,
        completed: bool = False,
        prepare_failed: bool = False,
    ) -> None:
        self.participant = participant
        self.recovery_key = recovery_key
        self.vote = vote
        self.completed = completed
        self.prepare_failed = prepare_failed


class _ParticipantRound:
    """Marshal-once dispatcher for one protocol round over N participants.

    A prepare/commit/rollback round sends the *same* zero-argument
    request to every participant; for remote (ObjectRef) participants
    the request body is pre-encoded once per target ORB and only the
    target object id plus the per-send service contexts are patched.
    Templates are primed on the driving thread (:meth:`prime`) before
    any worker may :meth:`call`, so the map is read-only under
    concurrency; local participants, unbound refs, collocated targets
    (their calls carry values, not bytes), ORBs under the caches-off
    reference (:attr:`Orb.caches_enabled`) and requests that
    cannot be marshalled (:class:`MarshalError`) take the plain
    :func:`call_participant` path unchanged.
    """

    __slots__ = ("operation", "_templates")

    def __init__(self, operation: str) -> None:
        self.operation = operation
        self._templates: dict = {}

    def prime(self, participant: Any) -> None:
        if not isinstance(participant, ObjectRef) or not participant.is_bound:
            return
        orb = participant.orb
        if orb.has_node(participant.node_id):
            return
        key = id(orb)
        if key in self._templates:
            return
        try:
            self._templates[key] = (
                orb.prepare_invocation(self.operation) if orb.caches_enabled else None
            )
        except MarshalError:
            self._templates[key] = None

    def call(self, participant: Any) -> Any:
        if isinstance(participant, ObjectRef) and participant.is_bound:
            prepared = self._templates.get(id(participant.orb))
            if prepared is not None:
                return participant.orb.invoke(
                    participant, self.operation, (), {}, prepared=prepared
                )
        return call_participant(participant, self.operation)


class SweepWrites:
    """The store writes local resources hand over during one sweep.

    While the sweep is open (``with``) it is registered under ``tid`` in
    the log's :class:`~repro.ots.recovery.LogIndex`, so every
    :meth:`~TransactionFactory.stage_write` for that transaction lands
    here, attributed to the resource being called on that thread
    (:meth:`call`).  :meth:`flush` then makes one ``put_many`` per
    distinct store, resources in sweep order.  Leaving the block on an
    exception drops what was staged, which is what the crash being
    simulated would have done.  Opened around each commit and rollback
    sweep, and by recovery around each replayed transaction.
    """

    def __init__(self, log: Any, tid: str, records: Sequence[ResourceRecord] = ()) -> None:
        self._open, self._tid = log.open_sweeps, tid
        self._order = {id(record): position for position, record in enumerate(records)}
        self._calling = threading.local()
        self._staged: List[Tuple[Optional[ResourceRecord], Any, Any]] = []
        self.returned: List[ResourceRecord] = []  # calls that did not raise

    def __enter__(self) -> "SweepWrites":
        self._open[self._tid] = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._open.pop(self._tid, None)

    def call(self, record: ResourceRecord, fn: Any, *args: Any) -> Any:
        """Run one participant call; what it stages belongs to ``record``."""
        self._calling.record = record
        result = fn(*args)
        self.returned.append(record)
        return result

    def stage(self, store: Any, puts: Any) -> None:
        self._staged.append((getattr(self._calling, "record", None), store, puts))

    def flush(self) -> Tuple[List[Optional[ResourceRecord]], Optional[Exception]]:
        """Land the staged writes; returns the resources whose store
        write failed and the first such failure."""
        by_store: dict = {}
        self._staged.sort(key=lambda staged: self._order.get(id(staged[0]), 0))
        for record, store, puts in self._staged:
            _, all_puts, records = by_store.setdefault(id(store), (store, {}, []))
            all_puts.update(puts)
            records.append(record)
        failed: List[Optional[ResourceRecord]] = []
        error: Optional[Exception] = None
        for store, puts, records in by_store.values():
            try:
                store.put_many(puts)
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                failed.extend(records)
                error = error or exc
        return failed, error

    def land(self) -> None:
        """Flush a replay's writes, raising the first failure."""
        _, error = self.flush()
        if error is not None:
            raise error


class Transaction:
    """One transaction (top-level or nested).  Create via the factory."""

    def __init__(
        self,
        factory: Any,
        tid: str,
        parent: Optional["Transaction"] = None,
        timeout: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        self.factory = factory
        self.tid = tid
        self.parent = parent
        self.name = name if name is not None else tid
        self.children: List[Transaction] = []
        self.status = TransactionStatus.ACTIVE
        self.deadline: Optional[float] = (
            factory.clock.now() + timeout if timeout > 0 else None
        )
        self._resources: List[ResourceRecord] = []
        self._subtran_aware: List[Any] = []
        self._synchronizations: List[Any] = []
        self._heuristics: List[HeuristicException] = []
        # recovery key -> [version, value], staged in phase one.
        self._intentions: Dict[str, Any] = {}
        # (recovery keys, intentions) once handed to the log.
        self._decision: Optional[Tuple[List[str], Optional[Dict[str, Any]]]] = None
        # Armed wheel timer for this transaction's deadline (factory
        # timer-wheel mode); cancelled when the transaction finishes.
        self._expiry_timer: Optional[Any] = None
        if parent is not None:
            parent.children.append(self)

    # -- identity and structure ------------------------------------------------

    @property
    def is_top_level(self) -> bool:
        return self.parent is None

    @property
    def top_level(self) -> "Transaction":
        tx = self
        while tx.parent is not None:
            tx = tx.parent
        return tx

    @property
    def depth(self) -> int:
        depth = 0
        tx = self
        while tx.parent is not None:
            depth += 1
            tx = tx.parent
        return depth

    def is_same_transaction(self, other: "Transaction") -> bool:
        return other is self or (
            isinstance(other, Transaction) and other.tid == self.tid
        )

    def is_ancestor_of(self, other: Any) -> bool:
        """True for ``other`` itself and any descendant of self."""
        tx = other
        while isinstance(tx, Transaction):
            if tx.tid == self.tid:
                return True
            tx = tx.parent
        return False

    def is_descendant_of(self, other: "Transaction") -> bool:
        return other.is_ancestor_of(self)

    def hash_transaction(self) -> int:
        return hash(self.tid) & 0x7FFFFFFF

    def get_transaction_name(self) -> str:
        return self.name

    def get_status(self) -> TransactionStatus:
        return self.status

    @property
    def decided(self) -> bool:
        """True once the commit decision has been handed to the log —
        even if its force failed: from then on only commit finishes it."""
        return self._decision is not None

    def intentions(self) -> Dict[str, Any]:
        """The intentions of this transaction's yes-voters, by recovery
        key in registration order: what its forced record carries."""
        return {
            record.recovery_key: self._intentions[record.recovery_key]
            for record in self._resources
            if record.vote is Vote.COMMIT and record.recovery_key in self._intentions
        }

    # -- registration -------------------------------------------------------------

    def _check_active(self) -> None:
        if self.deadline is not None and self.factory.clock.now() > self.deadline:
            if self.status is TransactionStatus.ACTIVE:
                self.status = TransactionStatus.MARKED_ROLLBACK
        if self.status is TransactionStatus.MARKED_ROLLBACK:
            return  # registration still allowed; commit will refuse
        if self.status is not TransactionStatus.ACTIVE:
            raise Inactive(f"transaction {self.tid} is {self.status.value}")

    def register_resource(
        self, participant: Any, recovery_key: Optional[str] = None
    ) -> ResourceRecord:
        """Enlist a two-phase participant (local object or ObjectRef)."""
        self._check_active()
        record = ResourceRecord(participant=participant, recovery_key=recovery_key)
        self._resources.append(record)
        self.factory.event_log.record(
            "tx_register_resource", tid=self.tid, key=recovery_key
        )
        return record

    def register_subtran_aware(self, participant: Any) -> None:
        """Enlist a participant in *this* subtransaction's completion."""
        if self.is_top_level:
            raise SubtransactionsUnavailable(
                "subtransaction-aware registration requires a nested transaction"
            )
        self._check_active()
        self._subtran_aware.append(participant)

    def register_synchronization(self, synchronization: Any) -> None:
        if not self.is_top_level:
            raise SynchronizationUnavailable(
                "synchronizations attach to top-level transactions only"
            )
        self._check_active()
        self._synchronizations.append(synchronization)

    def rollback_only(self) -> None:
        if self.status.is_terminal:
            raise Inactive(f"transaction {self.tid} already completed")
        self.status = TransactionStatus.MARKED_ROLLBACK

    # -- structure ------------------------------------------------------------------

    def begin_subtransaction(self, name: Optional[str] = None) -> "Transaction":
        self._check_active()
        if self.status is TransactionStatus.MARKED_ROLLBACK:
            raise Inactive(f"transaction {self.tid} is marked rollback-only")
        return self.factory.create_subtransaction(self, name=name)

    # -- completion -------------------------------------------------------------------

    def commit(self, report_heuristics: bool = True) -> None:
        """Commit; raises TransactionRolledBack if the outcome is rollback."""
        if self.status.is_terminal:
            raise Inactive(f"transaction {self.tid} already completed")
        if self.deadline is not None and self.factory.clock.now() > self.deadline:
            self.status = TransactionStatus.MARKED_ROLLBACK
        if self.status is TransactionStatus.MARKED_ROLLBACK:
            self.rollback()
            raise TransactionRolledBack(f"transaction {self.tid} was marked rollback-only")
        if self.status is not TransactionStatus.ACTIVE:
            raise Inactive(f"transaction {self.tid} is {self.status.value}")
        if any(not child.status.is_terminal for child in self.children):
            # Children must complete before the parent; roll back to be safe.
            self.rollback()
            raise TransactionRolledBack(
                f"transaction {self.tid} has incomplete subtransactions"
            )
        if self.is_top_level:
            self._commit_top_level(report_heuristics)
        else:
            self._commit_nested()

    def _commit_top_level(self, report_heuristics: bool) -> None:
        log = self.factory.event_log
        log.record("tx_commit_begin", tid=self.tid, resources=len(self._resources))
        if not self._run_before_completion():
            self._rollback_resources(self._resources)
            self._finish(TransactionStatus.ROLLED_BACK)
            raise TransactionRolledBack(
                f"before_completion failure rolled back {self.tid}"
            )
        # One-phase optimisation.
        live = list(self._resources)
        if len(live) == 1:
            self._commit_one_phase(live[0], report_heuristics)
            return
        if not live:
            self._finish(TransactionStatus.COMMITTED)
            return
        # Phase one.
        self.status = TransactionStatus.PREPARING
        rollback_voter = self._gather_votes(live)
        if rollback_voter is not None:
            self.status = TransactionStatus.ROLLING_BACK
            # Yes-voters must be told to roll back, and so must any
            # resource whose prepare *raised* — it never voted, so it
            # may be wedged mid-prepare (locks held) rather than
            # self-aborted like a genuine no-voter.
            to_undo = [r for r in live if r.vote is Vote.COMMIT or r.prepare_failed]
            self._rollback_resources(to_undo)
            self._finish(TransactionStatus.ROLLED_BACK)
            raise TransactionRolledBack(
                f"a resource voted rollback in transaction {self.tid}"
            )
        self.status = TransactionStatus.PREPARED
        committers = [r for r in live if r.vote is Vote.COMMIT]
        if not committers:
            # Everyone was read-only: committed with no phase two, no log.
            self._finish(TransactionStatus.COMMITTED)
            return
        # Force the commit decision (with the intentions) before telling
        # anyone to commit.  Under group commit this blocks on a force
        # shared with every concurrent committer in the window.
        self.factory.failpoints.hit("before_commit_log")
        self._log_decision(self.intentions())
        self.factory.failpoints.hit("after_commit_log")
        # Phase two.
        self.status = TransactionStatus.COMMITTING
        self._commit_resources(committers)
        self.factory.log_completion(self.tid)
        self._finish(TransactionStatus.COMMITTED)
        self._report_heuristics(report_heuristics, committed=True)

    # -- interposed completion (federated deployments) --------------------------

    def prepare_interposed(self) -> Vote:
        """Phase one of this transaction driven by a *superior* coordinator.

        Used by the federated subordinate resource
        (:mod:`repro.ots.interposition`): the superior sends one
        ``prepare`` across the domain bridge and this local transaction
        gathers its own resources' votes — serial or fanned out over the
        factory's participant pool, with marshal-once templates, exactly
        like a local phase one.  The collapsed vote travels upward:

        - any local no-vote (or phase-one failure) rolls the local tree
          back and returns ``Vote.ROLLBACK``;
        - all read-only: the transaction completes now, ``Vote.READONLY``
          (the superior will not call phase two);
        - otherwise the transaction stays ``PREPARED`` awaiting
          :meth:`commit_interposed` / :meth:`rollback_interposed`.
        """
        if not self.is_top_level:
            raise Inactive(
                f"subordinate {self.tid} must be a local top-level transaction"
            )
        if self.status.is_terminal:
            raise Inactive(f"transaction {self.tid} already completed")
        if self.deadline is not None and self.factory.clock.now() > self.deadline:
            self.status = TransactionStatus.MARKED_ROLLBACK
        if self.status is TransactionStatus.MARKED_ROLLBACK or any(
            not child.status.is_terminal for child in self.children
        ):
            self.rollback()
            return Vote.ROLLBACK
        if self.status is not TransactionStatus.ACTIVE:
            raise Inactive(f"transaction {self.tid} is {self.status.value}")
        log = self.factory.event_log
        log.record(
            "subtx_phase_one", tid=self.tid, resources=len(self._resources)
        )
        if not self._run_before_completion():
            self._rollback_resources(self._resources)
            self._finish(TransactionStatus.ROLLED_BACK)
            return Vote.ROLLBACK
        live = list(self._resources)
        if not live:
            self._finish(TransactionStatus.COMMITTED)
            return Vote.READONLY
        self.status = TransactionStatus.PREPARING
        rollback_voter = self._gather_votes(live)
        if rollback_voter is not None:
            self.status = TransactionStatus.ROLLING_BACK
            self._rollback_resources(
                [r for r in live if r.vote is Vote.COMMIT or r.prepare_failed]
            )
            self._finish(TransactionStatus.ROLLED_BACK)
            return Vote.ROLLBACK
        if not any(r.vote is Vote.COMMIT for r in live):
            self._finish(TransactionStatus.COMMITTED)
            return Vote.READONLY
        self.status = TransactionStatus.PREPARED
        return Vote.COMMIT

    def commit_interposed(self) -> None:
        """Phase two (commit direction) driven by the superior.

        The decision is logged in *this* domain's WAL before any local
        resource commits, so a crash here is resolved by this domain's
        own recovery manager; completion is logged afterwards (replayed
        idempotently); its intentions are already in ``subtx_prepared``.
        Heuristic outcomes raise exactly as a local commit would — the
        superior digests them like any participant's.

        Retryable: a COMMITTED transaction is a no-op, and a COMMITTING
        one (a phase-two pass that failed part-way) is re-driven over
        its not-yet-completed resources without logging the decision a
        second time — which is how the superior's recovery replay
        finishes a subordinate stuck mid-phase-two.
        """
        if self.status is TransactionStatus.COMMITTED:
            return  # idempotent: the superior may retry phase two
        if self.status is TransactionStatus.PREPARED:
            committers = [r for r in self._resources if r.vote is Vote.COMMIT]
            self._log_decision(None)
            self.status = TransactionStatus.COMMITTING
        elif self.status is TransactionStatus.COMMITTING:
            # Decision already durable; finish the interrupted pass.
            committers = [
                r for r in self._resources if r.vote is Vote.COMMIT and not r.completed
            ]
        else:
            raise NotPrepared(
                f"transaction {self.tid} is {self.status.value}, not prepared"
            )
        self._commit_resources(committers)
        self.factory.log_completion(self.tid)
        self._finish(TransactionStatus.COMMITTED)
        self._report_heuristics(True, committed=True)

    def rollback_interposed(self) -> None:
        """Phase two (rollback direction) driven by the superior; a
        retried rollback of an already-finished transaction is a no-op."""
        if self.status.is_terminal:
            return
        self.rollback()

    def _log_decision(self, intentions: Optional[Dict[str, Any]]) -> None:
        """Force the commit decision.  From here on the transaction is
        :attr:`decided`: should the force fail, the record may still
        reach the disk with a later force, so it stays ``PREPARED`` (a
        subordinate polling its status keeps holding) until
        :meth:`redrive` forces the decision again."""
        keys = [
            record.recovery_key
            for record in self._resources
            if record.vote is Vote.COMMIT and record.recovery_key
        ]
        self._decision = (keys, intentions)
        self.factory.log_commit_decision(self.tid, keys, intentions)

    def _commit_one_phase(self, record: ResourceRecord, report_heuristics: bool) -> None:
        self.status = TransactionStatus.COMMITTING
        try:
            call_participant(record.participant, "commit_one_phase")
        except TransactionRolledBack:
            self._finish(TransactionStatus.ROLLED_BACK)
            raise
        except HeuristicException as exc:
            self._heuristics.append(exc)
            self._safe_forget(record)
            self._finish(TransactionStatus.COMMITTED)
            self._report_heuristics(report_heuristics, committed=True)
            return
        except SimulatedCrash:
            raise
        except CommunicationError:
            self._finish(TransactionStatus.UNKNOWN)
            raise HeuristicHazard(
                f"one-phase participant unreachable in {self.tid}; outcome unknown"
            )
        record.completed = True
        self._finish(TransactionStatus.COMMITTED)

    # -- parallel participant fan-out -----------------------------------------

    def _participant_workers(self, participant_count: int) -> int:
        """Worker-thread budget for one protocol phase of this transaction.

        Returns 1 (serial) on a participant-pool worker thread: a nested
        commit driven from inside a participant call must not wait on
        the very pool it is running in.
        """
        if self.factory.in_participant_worker():
            return 1
        return min(self.factory.parallel_participants, participant_count)

    def _gather_votes(self, live: List[ResourceRecord]) -> Optional[ResourceRecord]:
        """Phase one over ``live`` (serial or fanned out); returns the
        pivoting no-voter, if any — shared by the top-level commit and
        the interposed (subordinate) prepare.  It writes nothing: local
        resources stage their intentions on this transaction, and an
        abort simply never logs them."""
        if self._participant_workers(len(live)) > 1:
            return self._gather_votes_parallel(live)
        return self._gather_votes_serial(live)

    def _gather_votes_serial(self, live: List[ResourceRecord]) -> Optional[ResourceRecord]:
        """Classic phase one: one prepare at a time, stop at the first no."""
        log = self.factory.event_log
        round_ = _ParticipantRound("prepare")
        for record in live:
            self.factory.failpoints.hit("before_prepare")
            try:
                round_.prime(record.participant)
                record.vote = round_.call(record.participant)
            except (CommunicationError, Exception) as exc:
                if isinstance(exc, SimulatedCrash):
                    raise
                record.vote = Vote.ROLLBACK
                record.prepare_failed = True
            log.record("tx_vote", tid=self.tid, vote=record.vote.name)
            if record.vote is Vote.ROLLBACK:
                return record
        return None

    def _gather_votes_parallel(self, live: List[ResourceRecord]) -> Optional[ResourceRecord]:
        """Phase one with concurrent prepares.

        Votes are digested in registration order on this thread, so the
        ``tx_vote`` trace and the rollback pivot stay deterministic.  A
        no-vote abandons the round: prepares not yet dispatched are
        skipped (their vote stays None, exactly like the serial sweep's
        post-break tail), while prepares already in flight finish and
        have their votes recorded — a concurrently-prepared participant
        must still be told to roll back.
        """
        log = self.factory.event_log
        abandon = threading.Event()
        factory = self.factory
        round_ = _ParticipantRound("prepare")

        def do_prepare(record: ResourceRecord) -> Any:
            if abandon.is_set():
                return _NOT_ASKED
            try:
                return round_.call(record.participant)
            except BaseException as exc:  # digested on the driving thread
                return exc

        # Fail-points fire on the driving thread, interleaved with the
        # submissions exactly as the serial sweep interleaves them with
        # the prepares (``before_prepare`` disarms on its first firing,
        # so a crash here always lands before any prepare is submitted).
        # Templates are primed here too: workers only read the round.
        pool = factory.participant_pool()
        futures = []
        for record in live:
            factory.failpoints.hit("before_prepare")
            round_.prime(record.participant)
            futures.append(pool.submit(do_prepare, record))
        rollback_voter: Optional[ResourceRecord] = None
        for index, (record, future) in enumerate(zip(live, futures)):
            result = future.result()
            if result is _NOT_ASKED:
                continue  # skipped after abandonment: never voted
            if isinstance(result, SimulatedCrash):
                # Crash: drain in-flight prepares before propagating so
                # the caller (and any recovery run it starts) observes a
                # quiescent store, not one still mutating under workers.
                abandon.set()
                for later in futures[index + 1 :]:
                    later.result()
                raise result
            if isinstance(result, BaseException):
                record.vote = Vote.ROLLBACK
                record.prepare_failed = True
            else:
                record.vote = result
            log.record("tx_vote", tid=self.tid, vote=record.vote.name)
            if record.vote is Vote.ROLLBACK and rollback_voter is None:
                rollback_voter = record
                abandon.set()
        return rollback_voter

    def _commit_resources(self, committers: List[ResourceRecord]) -> None:
        with self.factory.sweep(self.tid, committers) as sweep:
            if self._participant_workers(len(committers)) > 1:
                self._commit_resources_parallel(committers, sweep)
            else:
                self._commit_resources_serial(committers, sweep)
        self._acknowledge(sweep)

    def _acknowledge(self, sweep: SweepWrites) -> None:
        """End of a commit or rollback sweep: land the staged writes,
        then mark the resources whose call returned completed.

        A resource whose store write failed stays uncompleted and the
        failure propagates, which strands the transaction in
        ``COMMITTING``/``ROLLING_BACK`` for :meth:`redrive`.
        """
        failed, error = sweep.flush()
        for record in sweep.returned:
            record.completed = True
        for record in failed:
            record.completed = False
        if error is not None:
            raise error

    def _commit_resources_serial(
        self, committers: List[ResourceRecord], sweep: SweepWrites
    ) -> None:
        round_ = _ParticipantRound("commit")
        for index, record in enumerate(committers):
            self.factory.failpoints.hit(f"before_commit_resource_{index}")
            try:
                round_.prime(record.participant)
                sweep.call(record, self._call_with_retry, record.participant, "commit", round_)
            except HeuristicRollback as exc:
                self._heuristics.append(exc)
                self._safe_forget(record)
            except (HeuristicMixed, HeuristicHazard) as exc:
                self._heuristics.append(exc)
                self._safe_forget(record)
            except CommunicationError as exc:
                self._heuristics.append(
                    HeuristicHazard(
                        f"resource unreachable during commit of {self.tid}: {exc}"
                    )
                )

    def _commit_resources_parallel(
        self, committers: List[ResourceRecord], sweep: SweepWrites
    ) -> None:
        """Phase two with concurrent commits.

        The decision is already forced, so every participant must be
        driven to completion — there is no abandonment here.  Outcomes
        (including heuristics) are digested in registration order on
        this thread so ``_heuristics`` ordering matches the serial path.

        The ``before_commit_resource_{i}`` fail-points interleave with
        the submissions, as in the serial loop: when one fires, commits
        already submitted are awaited and digested before the crash
        propagates, so the prefix-called crash states the recovery
        tests reproduce stay reachable with the knob on.
        """
        factory = self.factory
        round_ = _ParticipantRound("commit")

        def do_commit(record: ResourceRecord) -> Optional[BaseException]:
            try:
                sweep.call(record, self._call_with_retry, record.participant, "commit", round_)
                return None
            except BaseException as exc:  # digested on the driving thread
                return exc

        pool = factory.participant_pool()
        futures = []
        crash: Optional[SimulatedCrash] = None
        try:
            for index, record in enumerate(committers):
                factory.failpoints.hit(f"before_commit_resource_{index}")
                round_.prime(record.participant)
                futures.append((record, pool.submit(do_commit, record)))
        except SimulatedCrash as exc:
            crash = exc
        # Digest every submitted commit (the loop below is also the
        # drain: nothing is left running when an exception propagates).
        fatal: Optional[BaseException] = None
        for record, future in futures:
            exc = future.result()
            if exc is None:
                continue  # completed once the sweep's writes have landed
            if isinstance(
                exc, (HeuristicRollback, HeuristicMixed, HeuristicHazard)
            ):
                self._heuristics.append(exc)
                self._safe_forget(record)
            elif isinstance(exc, CommunicationError):
                self._heuristics.append(
                    HeuristicHazard(
                        f"resource unreachable during commit of {self.tid}: {exc}"
                    )
                )
            elif fatal is None:
                # Unknown failure: remember the earliest (registration
                # order, as the serial loop would have raised it) but
                # keep digesting so no future is abandoned mid-flight.
                fatal = exc
        if fatal is not None:
            raise fatal
        if crash is not None:
            raise crash

    def _rollback_resources(self, records: List[ResourceRecord]) -> None:
        """Tell every (non-completed) participant to roll back.

        Like phase two, the sweep fans out over the factory's shared
        participant pool when ``parallel_participants`` allows — every
        participant must be driven to completion either way, and
        outcomes (incl. heuristics) are digested in registration order
        so the serial and parallel sweeps leave identical state.
        """
        with self.factory.sweep(self.tid, records) as sweep:
            if self._participant_workers(len(records)) > 1:
                self._rollback_resources_parallel(records, sweep)
            else:
                self._rollback_resources_serial(records, sweep)
        self._acknowledge(sweep)

    def _digest_rollback(
        self, record: ResourceRecord, exc: Optional[BaseException]
    ) -> Optional[BaseException]:
        """Fold one rollback outcome into the transaction's bookkeeping;
        returns an exception the caller must propagate (unknown failure)."""
        if exc is None:
            return None  # completed once the sweep's writes have landed
        if isinstance(exc, (HeuristicCommit, HeuristicMixed, HeuristicHazard)):
            self._heuristics.append(exc)
            self._safe_forget(record)
            return None
        if isinstance(exc, CommunicationError):
            self._heuristics.append(
                HeuristicHazard(
                    f"resource unreachable during rollback of {self.tid}: {exc}"
                )
            )
            return None
        return exc

    def _rollback_resources_serial(
        self, records: List[ResourceRecord], sweep: SweepWrites
    ) -> None:
        round_ = _ParticipantRound("rollback")
        for record in records:
            round_.prime(record.participant)
            try:
                sweep.call(record, self._call_with_retry, record.participant, "rollback", round_)
                exc: Optional[BaseException] = None
            except BaseException as caught:  # noqa: BLE001 - digested uniformly
                exc = caught
            fatal = self._digest_rollback(record, exc)
            if fatal is not None:
                raise fatal

    def _rollback_resources_parallel(
        self, records: List[ResourceRecord], sweep: SweepWrites
    ) -> None:
        """Rollback sweep with concurrent participant calls.

        No abandonment: the outcome is already decided, so every
        participant is driven to completion; the digest loop below is
        also the drain (nothing is left running when an exception
        propagates), and the first unknown failure in registration
        order is re-raised exactly as the serial sweep would have.
        """
        round_ = _ParticipantRound("rollback")

        def do_rollback(record: ResourceRecord) -> Optional[BaseException]:
            try:
                sweep.call(record, self._call_with_retry, record.participant, "rollback", round_)
                return None
            except BaseException as exc:  # digested on the driving thread
                return exc

        pool = self.factory.participant_pool()
        futures = []
        for record in records:
            round_.prime(record.participant)
            futures.append((record, pool.submit(do_rollback, record)))
        fatal: Optional[BaseException] = None
        for record, future in futures:
            exc = self._digest_rollback(record, future.result())
            if exc is not None and fatal is None:
                fatal = exc
        if fatal is not None:
            raise fatal

    def _call_with_retry(
        self,
        participant: Any,
        operation: str,
        round_: Optional[_ParticipantRound] = None,
    ) -> None:
        attempts = self.factory.retry_attempts
        last_error: Optional[CommunicationError] = None
        for _ in range(attempts):
            try:
                if round_ is not None:
                    round_.call(participant)
                else:
                    call_participant(participant, operation)
                return
            except CommunicationError as exc:
                if not exc.transient:
                    raise
                last_error = exc
        raise last_error if last_error is not None else CommunicationError()

    def _safe_forget(self, record: ResourceRecord) -> None:
        try:
            call_participant(record.participant, "forget")
        except (CommunicationError, AttributeError):
            pass

    def _commit_nested(self) -> None:
        """Provisional commit: effects move to the parent."""
        parent = self.parent
        assert parent is not None
        self.status = TransactionStatus.COMMITTING
        for participant in self._subtran_aware:
            call_participant(participant, "commit_subtransaction", parent)
        # Resources and pending synchronizations are retained by the parent.
        parent._resources.extend(self._resources)
        self._resources = []
        self.factory.lock_manager.transfer(self, parent)
        self.status = TransactionStatus.COMMITTED
        self.factory.event_log.record(
            "tx_subcommit", tid=self.tid, parent=parent.tid
        )
        self.factory.on_transaction_finished(self)

    def rollback(self) -> None:
        if self.status.is_terminal:
            raise Inactive(f"transaction {self.tid} already completed")
        if self.decided:
            raise Inactive(f"transaction {self.tid} has logged its commit decision")
        self.status = TransactionStatus.ROLLING_BACK
        # Roll back live children first, deepest work first.
        for child in self.children:
            if not child.status.is_terminal:
                child.rollback()
        if self.is_top_level:
            to_undo = [r for r in self._resources if not r.completed]
            self._rollback_resources(to_undo)
            self._finish(TransactionStatus.ROLLED_BACK)
        else:
            for participant in self._subtran_aware:
                call_participant(participant, "rollback_subtransaction")
            self.factory.lock_manager.release_all(self)
            self.status = TransactionStatus.ROLLED_BACK
            self.factory.event_log.record("tx_subrollback", tid=self.tid)
            self.factory.on_transaction_finished(self)

    def redrive(self) -> bool:
        """Re-drive a completion sweep that was cut short mid-flight.

        A store-layer failure during phase two or the rollback sweep (a
        participant's durable write raising, e.g. a replicated store
        below quorum) propagates out of :meth:`commit`/:meth:`rollback`
        and strands the transaction in ``COMMITTING``/``ROLLING_BACK``
        with uncompleted resources — a state neither :meth:`commit`
        (refuses non-ACTIVE) nor timeout expiry (the deadline already
        did its job) will ever touch again.  Both sweeps skip completed
        resources, so once the store heals, re-entering them finishes
        the interrupted outcome.  A failed decision force strands it
        decided in ``PREPARED``: the decision is forced again first.
        Returns True once terminal; raises whatever the retried
        participants or the log raise.
        """
        if self.status.is_terminal:
            return True
        if self.status is TransactionStatus.PREPARED and self._decision is not None:
            self.factory.log_commit_decision(self.tid, *self._decision)
            self.status = TransactionStatus.COMMITTING
        if self.status is TransactionStatus.ROLLING_BACK:
            self.rollback()
        elif self.status is TransactionStatus.COMMITTING:
            records = [r for r in self._resources if r.vote is Vote.COMMIT and not r.completed]
            if len(self._resources) == 1 and self._resources[0].vote is None:
                # Interrupted one-phase commit: the participant decides,
                # so the retry is the same one-phase call.
                self._commit_one_phase(self._resources[0], report_heuristics=False)
            else:
                # The commit decision is already forced to the log;
                # finish phase two exactly as the first pass would have.
                self._commit_resources(records)
                self.factory.log_completion(self.tid)
                self._finish(TransactionStatus.COMMITTED)
        return self.status.is_terminal

    # -- completion plumbing ---------------------------------------------------------

    def _run_before_completion(self) -> bool:
        for synchronization in self._synchronizations:
            try:
                call_participant(synchronization, "before_completion")
            except Exception:
                return False
        return True

    def _finish(self, status: TransactionStatus) -> None:
        self.status = status
        # The registry may keep a finished transaction; its intentions
        # are durable or moot by now, so their values are not kept.
        self._intentions = self._decision = None
        self.factory.lock_manager.release_all(self)
        for synchronization in self._synchronizations:
            try:
                call_participant(synchronization, "after_completion", status)
            except Exception:
                pass
        self.factory.event_log.record(
            "tx_finished", tid=self.tid, status=status.name
        )
        self.factory.on_transaction_finished(self)

    def _report_heuristics(self, report: bool, committed: bool) -> None:
        if not self._heuristics:
            return
        if not report:
            return
        kinds: Set[type] = {type(h) for h in self._heuristics}
        if kinds == {HeuristicHazard}:
            raise HeuristicHazard(
                f"transaction {self.tid}: {len(self._heuristics)} hazards"
            )
        raise HeuristicMixed(
            f"transaction {self.tid}: mixed heuristic outcomes "
            f"({sorted(k.__name__ for k in kinds)})"
        )

    @property
    def heuristics(self) -> List[HeuristicException]:
        return list(self._heuristics)

    @property
    def resources(self) -> List[ResourceRecord]:
        return list(self._resources)

    def __repr__(self) -> str:
        kind = "top" if self.is_top_level else f"nested<{self.parent.tid}>"
        return f"Transaction({self.tid}, {kind}, {self.status.name})"


class Coordinator:
    """Spec-shaped coordinator facade over a :class:`Transaction`."""

    def __init__(self, transaction: Transaction) -> None:
        self._tx = transaction

    def get_status(self) -> TransactionStatus:
        return self._tx.get_status()

    def is_same_transaction(self, other: "Coordinator") -> bool:
        return self._tx.is_same_transaction(other._tx)

    def hash_transaction(self) -> int:
        return self._tx.hash_transaction()

    def register_resource(self, resource: Any, recovery_key: Optional[str] = None) -> None:
        self._tx.register_resource(resource, recovery_key)

    def register_subtran_aware(self, resource: Any) -> None:
        self._tx.register_subtran_aware(resource)

    def register_synchronization(self, synchronization: Any) -> None:
        self._tx.register_synchronization(synchronization)

    def rollback_only(self) -> None:
        self._tx.rollback_only()

    def create_subtransaction(self) -> "Control":
        return Control(self._tx.begin_subtransaction())

    def get_transaction_name(self) -> str:
        return self._tx.get_transaction_name()


class Terminator:
    """Spec-shaped terminator facade."""

    def __init__(self, transaction: Transaction) -> None:
        self._tx = transaction

    def commit(self, report_heuristics: bool = True) -> None:
        self._tx.commit(report_heuristics)

    def rollback(self) -> None:
        self._tx.rollback()


class Control:
    """Spec-shaped control facade: access to coordinator and terminator."""

    def __init__(self, transaction: Transaction) -> None:
        self._tx = transaction

    @property
    def transaction(self) -> Transaction:
        return self._tx

    def get_coordinator(self) -> Coordinator:
        return Coordinator(self._tx)

    def get_terminator(self) -> Terminator:
        return Terminator(self._tx)
