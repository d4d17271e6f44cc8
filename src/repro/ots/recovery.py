"""Crash recovery for the transaction service (presumed abort).

Nothing of a transaction is durable before the one record phase one
forces — ``tx_commit_decision`` at a root, ``subtx_prepared`` at a
subordinate, ``tx_delegated`` at a root whose last agent decides — and
that record carries the transaction's *intentions*: each local cell's
new state with its install version.  Recovery:

- transactions *with* a decision but no ``tx_completed`` record are
  re-committed: each recovery key is resolved through the
  :class:`~repro.ots.recoverable.RecoverableRegistry` and
  ``recover_commit`` replayed — one store write per transaction;
- prepared state belonging to a transaction *without* a decision record
  is presumed aborted and discarded (a crashed root leaves none),
  except under an open ``tx_delegated``: held until the agent is asked.

``tx_completed`` waits for the housekeeping round (see
:meth:`~repro.ots.factory.TransactionFactory.log_completion`), so a
crash finds the transactions committed since the last round decided but
not completed.  Losing that tail is safe because a replay installs a
logged intention only over an *older* stored version: where the installs
survived, the replay applies nothing (``recommitted[tid] == []``) — even
where a later one-phase commit, which logs nothing but bumps the
version, has installed over the same cell since — and writes the
completion again.  A decided transaction whose install write was cut
short, or lost with the page cache, replays to the committed values.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ots.coordinator import SweepWrites
from repro.ots.recoverable import RecoverableRegistry
from repro.persistence.wal import GroupCommitWAL, WriteAheadLog

SUBTX_PREPARED = "subtx_prepared"

_Prepared = Dict[str, Tuple[str, List[str], Optional[str]]]


class LogIndex:
    """What the transaction service asks of one write-ahead log, kept
    current by reading only the records forced since the last look.

    One index per log object (:meth:`of`), shared by every reader in
    the process: the factory, its cells, the federated service and the
    recovery manager.  ``prepared`` maps root tid to ``(local tid,
    recovery keys, root domain)`` from ``subtx_prepared`` records,
    ``decided`` maps each ``tx_commit_decision`` tid to its recovery
    keys, ``rooted`` maps a last agent's root tid to its decision's,
    ``delegated`` maps an open ``tx_delegated`` tid to ``(agent key,
    recovery keys)``, ``completed`` holds the ``tx_completed`` tids, and
    ``intentions`` maps a tid to the intentions its forced record carried
    (``{cell key: [version, value]}``) until its completion is indexed.
    Callers read the containers and never write them.

    ``open_sweeps`` maps a tid to the :class:`SweepWrites` collecting
    its store writes right now.  It lives here, per log, because the
    recovery manager knows the log but not the factory of the cells.
    """

    _instances: "weakref.WeakKeyDictionary[Any, LogIndex]" = weakref.WeakKeyDictionary()
    _instances_lock = threading.Lock()

    def __init__(self, wal: Any) -> None:
        self._wal = weakref.ref(wal)  # the index must not keep its log alive
        self._lock = threading.Lock()
        self._generation = -1
        self.open_sweeps: Dict[str, SweepWrites] = {}
        self._reset()

    @classmethod
    def of(cls, wal: Any) -> "LogIndex":
        """The index of ``wal`` (created on first use, not refreshed)."""
        with cls._instances_lock:
            index = cls._instances.get(wal)
            if index is None:
                index = cls._instances[wal] = cls(wal)
            return index

    def _reset(self) -> None:
        self._upto = 0
        self.prepared: _Prepared = {}
        self.decided: Dict[str, Sequence[str]] = {}
        self.rooted: Dict[str, str] = {}
        self.delegated: Dict[str, Tuple[str, List[str]]] = {}
        self.completed: Set[str] = set()
        self.intentions: Dict[str, Dict[str, Any]] = {}

    def refresh(self) -> "LogIndex":
        """Index the records the log gained since the last call.

        A new ``wal.generation`` (truncate, re-open, promotion) means
        history may have been rewritten under the index: start over from
        the first record.
        """
        wal = self._wal()
        with self._lock:
            while True:
                generation = wal.generation
                if generation != self._generation:
                    self._generation = generation
                    self._reset()
                fresh = wal.records(after=self._upto)
                if wal.generation == generation:
                    break
            for record in fresh:
                payload = record.payload
                tid = payload.get("tid")
                if record.kind == SUBTX_PREPARED:
                    self.prepared[payload["root"]] = (
                        tid,
                        list(payload.get("recovery_keys", [])),
                        payload.get("root_domain"),
                    )
                elif record.kind == "tx_commit_decision":
                    self.decided[tid] = list(payload.get("recovery_keys", []))
                    if "root" in payload:
                        self.rooted[payload["root"]] = tid
                elif record.kind == "tx_delegated":
                    self.delegated[tid] = (payload["agent"], list(payload["recovery_keys"]))
                elif record.kind == "tx_completed":
                    self.completed.add(tid)
                    self.intentions.pop(tid, None)
                    self.delegated.pop(tid, None)
                    if tid in self.decided:
                        self.decided[tid] = ()  # the tid answers status; keys are moot
                    continue
                if payload.get("intentions"):
                    self.intentions[tid] = payload["intentions"]
            if fresh:
                self._upto = fresh[-1].lsn
        return self

    def intention(self, tid: str, key: str) -> Optional[List[Any]]:
        """``[version, value]`` logged for cell ``key`` by unfinished ``tid``."""
        with self._lock:
            return self.intentions.get(tid, {}).get(key)

    def open_intentions(self, key: str) -> List[Tuple[str, List[Any]]]:
        """``(tid, [version, value])`` of every unfinished transaction
        whose forced record carries an intention for cell ``key``."""
        with self._lock:
            return [
                (tid, states[key])
                for tid, states in self.intentions.items()
                if key in states
            ]


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

    Each recommitted transaction's installs land as one store write per
    store (a :class:`SweepWrites` is open around its replay), and its
    ``tx_completed`` is appended volatile: a single shared force at the
    end makes the whole pass durable.  A crash mid-pass just means the
    next pass replays the same idempotent work.  ``group_commit_window``
    tunes the batching window when the supplied log is a
    :class:`~repro.persistence.wal.GroupCommitWAL`.
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
        index = LogIndex.of(self.wal).refresh()
        return self.resolve(dict(index.decided), set(index.completed), hold)

    def resolve(
        self,
        decisions: Dict[str, List[str]],
        completed: Set[str],
        hold: Optional[Iterable[str]] = None,
    ) -> RecoveryReport:
        """The recovery pass proper, over a snapshot of the log's
        :class:`LogIndex`: ``decisions`` maps each
        ``tx_commit_decision`` tid to its recovery keys, ``completed``
        holds the ``tx_completed`` tids.  Open delegations are held."""
        log = LogIndex.of(self.wal)
        held = frozenset(hold or ()).union(list(log.delegated))
        report = RecoveryReport()

        # Finish phase two for decided-but-incomplete transactions.  The
        # tx_completed records ride one batched force at the end of the
        # loop instead of one private force each.
        flushed = False
        for tid, keys in decisions.items():
            if tid in completed:
                continue
            applied = []
            with SweepWrites(log, tid) as sweep:
                for key in keys:
                    recoverable = self.registry.resolve(key)
                    if recoverable is None:
                        report.unresolved_keys.append(key)
                        continue
                    if recoverable.recover_commit(tid):
                        applied.append(key)
            sweep.land()
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
