"""Crash recovery for the transaction service (presumed abort).

After a coordinator crash, the write-ahead log holds zero or one
``tx_commit_decision`` record per transaction that reached the end of
phase one.  Recovery:

- transactions *with* a decision but no ``tx_completed`` record are
  re-committed: each recovery key is resolved through the
  :class:`~repro.ots.recoverable.RecoverableRegistry` and
  ``recover_commit`` replayed (idempotent);
- prepared state belonging to a transaction *without* a decision record
  is presumed aborted and discarded.

What the log guarantees recovery: ``tx_commit_decision`` (and a
subordinate's ``subtx_prepared``) are forced before anyone acts on them.
``tx_completed`` is not — the coordinator appends it unforced after the
phase-two store write returned and it rides the next force (the next
decision, the deployment's housekeeping round, site shutdown; see
:meth:`~repro.ots.factory.TransactionFactory.log_completion`).  A crash
therefore finds the last few committed transactions decided but not
completed.  Losing that tail is safe: their installs are already durable
and their intention records gone, so the replay below applies nothing
(``recommitted[tid] == []``) and writes the completion again, this time
with a force.  A decided transaction whose install write was cut short
still has its intention records — the coordinator writes every put of
a phase ahead of every tombstone — and replays to the committed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.ots.recoverable import RecoverableRegistry
from repro.persistence.wal import GroupCommitWAL, WriteAheadLog


@dataclass
class RecoveryReport:
    """What a recovery pass did."""

    recommitted: Dict[str, List[str]] = field(default_factory=dict)
    presumed_aborted: Dict[str, List[str]] = field(default_factory=dict)
    unresolved_keys: List[str] = field(default_factory=list)
    # Prepared state deliberately left in doubt (federated subordinates
    # whose outcome belongs to a superior coordinator in another domain).
    held: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.recommitted and not self.presumed_aborted


class RecoveryManager:
    """Drives post-crash resolution of in-doubt transactions.

    Completion records written during recovery are batched: each
    recommitted transaction's ``tx_completed`` is appended volatile and a
    single shared force makes the whole pass durable.  A crash mid-pass
    just means the next pass replays the same idempotent work.
    ``group_commit_window`` tunes the batching window when the supplied
    log is a :class:`~repro.persistence.wal.GroupCommitWAL`.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        registry: RecoverableRegistry,
        group_commit_window: Optional[float] = None,
    ) -> None:
        self.wal = wal
        self.registry = registry
        if group_commit_window is not None:
            if not isinstance(wal, GroupCommitWAL):
                raise ValueError(
                    "group_commit_window requires a GroupCommitWAL; the"
                    " supplied log forces every append privately"
                )
            wal.window = group_commit_window
        self.group_commit_window = getattr(wal, "window", None)

    def recover(self, hold: Optional[Iterable[str]] = None) -> RecoveryReport:
        """Resolve every in-doubt transaction recorded in the log.

        ``hold`` names transaction ids whose prepared state must *not*
        be presumed aborted: a federated subordinate's outcome is owned
        by its superior coordinator in another domain, and only that
        superior's decision (or an operator) may resolve it.  Held tids
        are reported in :attr:`RecoveryReport.held`.
        """
        decisions: Dict[str, List[str]] = {}
        completed: Set[str] = set()
        for record in self.wal.records():
            if record.kind == "tx_commit_decision":
                decisions[record.payload["tid"]] = list(
                    record.payload.get("recovery_keys", [])
                )
            elif record.kind == "tx_completed":
                completed.add(record.payload["tid"])
        return self.resolve(decisions, completed, hold)

    def resolve(
        self,
        decisions: Dict[str, List[str]],
        completed: Set[str],
        hold: Optional[Iterable[str]] = None,
    ) -> RecoveryReport:
        """The recovery pass proper, for a caller that has already read
        the log: ``decisions`` maps each ``tx_commit_decision`` tid to
        its recovery keys, ``completed`` holds the ``tx_completed``
        tids (:meth:`recover` builds both with one scan)."""
        held = frozenset(hold) if hold is not None else frozenset()
        report = RecoveryReport()

        # Finish phase two for decided-but-incomplete transactions.  The
        # tx_completed records ride one batched force at the end of the
        # loop instead of one private force each.
        flushed = False
        for tid, keys in decisions.items():
            if tid in completed:
                continue
            applied = []
            for key in keys:
                recoverable = self.registry.resolve(key)
                if recoverable is None:
                    report.unresolved_keys.append(key)
                    continue
                if recoverable.recover_commit(tid):
                    applied.append(key)
            self.wal.append_volatile("tx_completed", tid=tid, recovered=True)
            flushed = True
            report.recommitted[tid] = applied
        if flushed:
            self.wal.force()

        # Presume abort for prepared state with no commit decision.
        seen_held: Set[str] = set()
        for key in self.registry.keys():
            recoverable = self.registry.resolve(key)
            assert recoverable is not None
            for tid in recoverable.list_in_doubt():
                if tid in held:
                    seen_held.add(tid)
                    continue
                if tid not in decisions:
                    recoverable.recover_abort(tid)
                    report.presumed_aborted.setdefault(tid, []).append(key)
        report.held = sorted(seen_held)
        return report
