"""Recoverable transactional objects.

The paper assumes services whose state is manipulated under transactions
(bulletin boards, booking services, name servers).  This module provides
the building block those applications use: a :class:`TransactionalCell` —
one lockable, recoverable unit of state with:

- strict two-phase read/write locking through the factory's lock manager;
- per-transaction workspaces (deferred update), merged upward when a
  subtransaction commits (the retained-resources model);
- two-phase commit participation with presumed-abort recovery: prepared
  values are staged in an object store, so a crash between prepare and
  commit is resolved by the recovery manager from the store + WAL;
- idempotent phase-two operations, as recovery may replay them.

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
        self._workspaces: Dict[str, Any] = {}
        self._prepared: Dict[str, Any] = {}
        self._enlisted_top: Set[str] = set()
        self._enlisted_sub: Set[str] = set()
        if store is not None and store.contains(self._state_key()):
            self._committed = store.get(self._state_key())
        if store is not None:
            # Durable intention records left by a previous incarnation are
            # still-held write locks: the prepared transaction's outcome is
            # undecided, so its lock must be re-established here even though
            # the lock manager's in-memory state died with the old process.
            prefix = f"prepared:{self.key}:"
            for stored in store.keys():
                if stored.startswith(prefix):
                    self._prepared.setdefault(
                        stored[len(prefix):], store.get(stored)
                    )
        if registry is not None:
            registry.register(key, self)

    # -- store keys ----------------------------------------------------------

    def _state_key(self) -> str:
        return f"cell:{self.key}"

    def _prepared_key(self, tid: str) -> str:
        return f"prepared:{self.key}:{tid}"

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
        manager's memory is gone but the intention record in the store
        is not, so strict two-phase locking has to be enforced from the
        durable record itself — otherwise a later transaction could
        commit over the cell and the eventual ``recover_commit`` would
        stomp it with the stale prepared snapshot.
        """
        top = tx.top_level.tid
        holders = [tid for tid in self._prepared if tid != top]
        if holders:
            raise LockConflict(self.key, mode, sorted(holders))

    # -- enlistment -----------------------------------------------------------------

    def _touch(self, tx: Transaction) -> None:
        top = tx.top_level
        if top.tid not in self._enlisted_top:
            top.register_resource(_CellResource(self, top), recovery_key=self.key)
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

    def _write(self, tid: str, puts: Dict[str, Any], removes: Tuple[str, ...] = ()) -> None:
        """Every durable write of this cell: handed to the transaction
        service, which batches it with the sweep ``tid`` has open or
        applies it at once (:meth:`TransactionFactory.stage_write`)."""
        if self.store is not None:
            self.factory.stage_write(tid, self.store, puts, removes)

    def _prepare(self, tid: str) -> Vote:
        if tid not in self._workspaces:
            self._enlisted_top.discard(tid)
            return Vote.READONLY
        staged = self._workspaces[tid]
        self._prepared[tid] = staged
        self._write(tid, {self._prepared_key(tid): staged})
        return Vote.COMMIT

    def _commit(self, tid: str) -> None:
        if tid in self._prepared:
            self._install(tid, self._prepared.pop(tid))
        elif self.store is not None and self.store.contains(self._prepared_key(tid)):
            # Recovery path: the in-memory stage was lost in a crash.
            self._install(tid, self.store.get(self._prepared_key(tid)))

    def _install(self, tid: str, value: Any) -> None:
        self._committed = value
        self._workspaces.pop(tid, None)
        self._prepared.pop(tid, None)
        self._enlisted_top.discard(tid)
        # State first: if only a prefix of the write survives a crash,
        # the intention record is still there and replaying the commit
        # installs the same value again.
        self._write(tid, {self._state_key(): value}, (self._prepared_key(tid),))

    def _rollback(self, tid: str) -> None:
        self._workspaces.pop(tid, None)
        self._prepared.pop(tid, None)
        self._enlisted_top.discard(tid)
        if self.store is not None and self.store.contains(self._prepared_key(tid)):
            self._write(tid, {}, (self._prepared_key(tid),))

    def _commit_one_phase(self, tid: str) -> None:
        if tid in self._workspaces:
            self._install(tid, self._workspaces.pop(tid))

    # -- Recoverable ----------------------------------------------------------------

    def recover_commit(self, tid: str) -> bool:
        if self.store is not None and self.store.contains(self._prepared_key(tid)):
            self._install(tid, self.store.get(self._prepared_key(tid)))
            return True
        if tid in self._prepared:
            self._install(tid, self._prepared.pop(tid))
            return True
        return False

    def recover_abort(self, tid: str) -> bool:
        had = tid in self._prepared or (
            self.store is not None and self.store.contains(self._prepared_key(tid))
        )
        self._rollback(tid)
        return had

    def list_in_doubt(self) -> List[str]:
        in_doubt = set(self._prepared)
        if self.store is not None:
            prefix = f"prepared:{self.key}:"
            for stored in self.store.keys():
                if stored.startswith(prefix):
                    in_doubt.add(stored[len(prefix):])
        return sorted(in_doubt)

    def __repr__(self) -> str:
        return f"TransactionalCell({self.key!r}={self._committed!r})"


class _CellResource(Resource):
    """Two-phase participant for one (cell, top-level transaction) pair."""

    def __init__(self, cell: TransactionalCell, top: Transaction) -> None:
        self.cell = cell
        self.top = top

    def prepare(self) -> Vote:
        return self.cell._prepare(self.top.tid)

    def commit(self) -> None:
        self.cell._commit(self.top.tid)

    def rollback(self) -> None:
        self.cell._rollback(self.top.tid)

    def commit_one_phase(self) -> None:
        self.cell._commit_one_phase(self.top.tid)

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
