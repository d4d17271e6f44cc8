"""Recoverable transactional objects.

The paper assumes services whose state is manipulated under transactions
(bulletin boards, booking services, name servers).  This module provides
the building block those applications use: a :class:`TransactionalCell` —
one lockable, recoverable unit of state with:

- strict two-phase read/write locking through the factory's lock manager;
- per-transaction workspaces (deferred update), merged upward when a
  subtransaction commits (the retained-resources model);
- two-phase commit participation with presumed-abort recovery: prepare
  writes nothing, it hands the transaction an *intention* (the new value
  and an install version, committed version + 1, stamped under the write
  lock) that becomes durable inside the record the coordinator forces.
  The store holds only ``cell:<key>`` = ``[version, value]``; a
  one-phase commit bumps the version too;
- idempotent phase-two operations: a replay installs a logged intention
  only over an older stored version, so never over a later install.

A cell built after a crash learns from the factory's log index the
intentions still open for it, so strict two-phase locking survives the
restart before recovery has run.

A :class:`RecoverableRegistry` maps recovery keys to live cells so the
recovery manager can find participants again after a restart.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.ots.coordinator import Transaction
from repro.ots.exceptions import TransactionRequired
from repro.ots.locks import LockConflict, LockMode
from repro.ots.resource import Resource, SubtransactionAwareResource
from repro.ots.status import Vote
from repro.persistence.object_store import ObjectStore


class Recoverable(abc.ABC):
    """What the recovery manager needs from a durable participant."""

    @abc.abstractmethod
    def recover_commit(self, tid: str) -> bool:
        """Re-apply the commit for ``tid`` if still pending.  Idempotent."""

    @abc.abstractmethod
    def recover_abort(self, tid: str) -> bool:
        """Discard any prepared-but-undecided state for ``tid``."""

    @abc.abstractmethod
    def list_in_doubt(self) -> List[str]:
        """Transaction ids with prepared state awaiting an outcome."""


class RecoverableRegistry:
    """recovery-key → recoverable object map for one deployment."""

    def __init__(self) -> None:
        self._objects: Dict[str, Recoverable] = {}

    def register(self, key: str, obj: Recoverable) -> None:
        self._objects[key] = obj

    def resolve(self, key: str) -> Optional[Recoverable]:
        return self._objects.get(key)

    def keys(self) -> Tuple[str, ...]:
        return tuple(sorted(self._objects))

    def all_objects(self) -> List[Recoverable]:
        return [self._objects[key] for key in self.keys()]


class TransactionalCell(Recoverable):
    """One unit of transactional, lockable, recoverable state."""

    def __init__(
        self,
        key: str,
        initial: Any,
        factory: Any,
        store: Optional[ObjectStore] = None,
        registry: Optional[RecoverableRegistry] = None,
    ) -> None:
        self.key = key
        self.factory = factory
        self.store = store
        self._committed = initial
        self._version = 0  # install version of _committed
        self._workspaces: Dict[str, Any] = {}
        # tid -> [version, value]: prepared, outcome not yet applied here.
        self._prepared: Dict[str, List[Any]] = {}
        self._enlisted_top: Set[str] = set()
        self._enlisted_sub: Set[str] = set()
        if store is not None:
            self._version, self._committed = store.get_or(
                self._state_key(), [0, initial]
            )
            # Logged intentions newer than the stored state are still-held
            # write locks: undecided (a held subordinate) or decided but
            # not yet installed, so the lock is re-established here even
            # though the lock manager's memory died with the old process.
            for tid, state in factory.log_index().open_intentions(key):
                if state[0] > self._version:
                    self._prepared[tid] = state
        if registry is not None:
            registry.register(key, self)

    # -- store keys ----------------------------------------------------------

    def _state_key(self) -> str:
        return f"cell:{self.key}"

    # -- application interface --------------------------------------------------

    def read(self, tx: Optional[Transaction] = None) -> Any:
        """Read under ``tx`` (or the committed value when tx is None)."""
        if tx is None:
            return self._committed
        self._check_in_doubt(tx, LockMode.READ)
        self.factory.lock_manager.acquire(tx, self.key, LockMode.READ)
        self._touch(tx)
        cursor: Optional[Transaction] = tx
        while cursor is not None:
            if cursor.tid in self._workspaces:
                return self._workspaces[cursor.tid]
            cursor = cursor.parent
        return self._committed

    def write(self, tx: Optional[Transaction], value: Any) -> None:
        """Buffer ``value`` in the transaction's workspace."""
        if tx is None:
            raise TransactionRequired(f"write to cell {self.key!r} outside a transaction")
        self._check_in_doubt(tx, LockMode.WRITE)
        self.factory.lock_manager.acquire(tx, self.key, LockMode.WRITE)
        self._touch(tx)
        self._workspaces[tx.tid] = value

    @property
    def committed_value(self) -> Any:
        return self._committed

    def is_locked(self) -> bool:
        return bool(self.factory.lock_manager.holders(self.key))

    def _check_in_doubt(self, tx: Transaction, mode: LockMode) -> None:
        """Block access while another transaction's intention is in doubt.

        A prepared-but-undecided value is neither the old state nor the
        new one.  While the preparing process is alive its write lock
        blocks conflicting access; after a crash-restart the lock
        manager's memory is gone but the logged intention is not, so
        strict two-phase locking has to be enforced from the durable
        record itself — otherwise a later transaction could commit over
        the cell while the outcome is still open.
        """
        top = tx.top_level.tid
        # Another thread's prepare or commit may add or drop an entry
        # meanwhile: iterate over a snapshot (one C-level copy).
        holders = [tid for tid in list(self._prepared) if tid != top]
        if holders:
            raise LockConflict(self.key, mode, sorted(holders))

    # -- enlistment -----------------------------------------------------------------

    def _touch(self, tx: Transaction) -> None:
        top = tx.top_level
        if top.tid not in self._enlisted_top:
            top.register_resource(_CellResource(self, top.tid), recovery_key=self.key)
            self._enlisted_top.add(top.tid)
        cursor = tx
        while cursor.parent is not None:
            if cursor.tid not in self._enlisted_sub:
                cursor.register_subtran_aware(_CellSubtransactionResource(self, cursor))
                self._enlisted_sub.add(cursor.tid)
            cursor = cursor.parent

    # -- nested completion ---------------------------------------------------------

    def _merge_to_parent(self, child: Transaction, parent: Transaction) -> None:
        if child.tid in self._workspaces:
            self._workspaces[parent.tid] = self._workspaces.pop(child.tid)
        self._enlisted_sub.discard(child.tid)

    def _discard(self, tx: Transaction) -> None:
        self._workspaces.pop(tx.tid, None)
        self._enlisted_sub.discard(tx.tid)

    # -- top-level completion (driven by _CellResource) -------------------------------

    def _prepare(self, tid: str) -> Vote:
        if tid not in self._workspaces:
            self._enlisted_top.discard(tid)
            return Vote.READONLY
        # The write lock is held: no other install can come in between.
        state = self._prepared[tid] = [self._version + 1, self._workspaces[tid]]
        if self.store is not None:
            self.factory.stage_intention(tid, self.key, *state)
        return Vote.COMMIT

    def _intention(self, tid: str) -> Optional[List[Any]]:
        """``tid``'s ``[version, value]`` for this cell: the in-memory
        stage, or — when a crash or an earlier, failed phase-two pass
        lost that — the one its forced record carries."""
        state = self._prepared.get(tid)
        if state is None and self.store is not None:
            state = self.factory.log_index().intention(tid, self.key)
        return state

    def _commit(self, tid: str) -> None:
        state = self._intention(tid)
        if state is not None:
            self._install(tid, *state)

    def _install(self, tid: str, version: int, value: Any) -> None:
        self._version, self._committed = version, value
        self._workspaces.pop(tid, None)
        self._prepared.pop(tid, None)
        self._enlisted_top.discard(tid)
        if self.store is not None:
            self.factory.stage_write(tid, self.store, {self._state_key(): [version, value]})

    def _rollback(self, tid: str) -> None:
        self._workspaces.pop(tid, None)
        self._prepared.pop(tid, None)
        self._enlisted_top.discard(tid)

    def _commit_one_phase(self, tid: str) -> None:
        if tid in self._workspaces:
            self._install(tid, self._version + 1, self._workspaces.pop(tid))

    # -- Recoverable ----------------------------------------------------------------

    def recover_commit(self, tid: str) -> bool:
        """Install ``tid``'s intention unless the stored state is already
        at (or past) its version: the replay of a transaction whose
        completion record was lost, or that a later install overtook."""
        state = self._intention(tid)
        self._prepared.pop(tid, None)
        if state is None or state[0] <= self._stored_version():
            return False
        self._install(tid, *state)
        return True

    def _stored_version(self) -> int:
        if self.store is None:
            return self._version
        return self.store.get_or(self._state_key(), [0])[0]

    def recover_abort(self, tid: str) -> bool:
        had = tid in self._prepared
        self._rollback(tid)
        return had

    def list_in_doubt(self) -> List[str]:
        return sorted(self._prepared)

    def __repr__(self) -> str:
        return f"TransactionalCell({self.key!r}={self._committed!r})"


class _CellResource(Resource):
    """Two-phase participant for one (cell, top-level transaction) pair;
    keeps the tid, so the transaction holding it is freed by refcount."""

    def __init__(self, cell: TransactionalCell, tid: str) -> None:
        self.cell = cell
        self.tid = tid

    def prepare(self) -> Vote:
        return self.cell._prepare(self.tid)

    def commit(self) -> None:
        self.cell._commit(self.tid)

    def rollback(self) -> None:
        self.cell._rollback(self.tid)

    def commit_one_phase(self) -> None:
        self.cell._commit_one_phase(self.tid)

    def forget(self) -> None:
        pass


class _CellSubtransactionResource(SubtransactionAwareResource):
    """Merges or discards a nested transaction's workspace on completion."""

    def __init__(self, cell: TransactionalCell, tx: Transaction) -> None:
        self.cell = cell
        self.tx = tx

    def commit_subtransaction(self, parent: Transaction) -> None:
        self.cell._merge_to_parent(self.tx, parent)

    def rollback_subtransaction(self) -> None:
        self.cell._discard(self.tx)
