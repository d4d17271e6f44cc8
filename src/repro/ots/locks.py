"""Strict two-phase locking with nested-transaction lock inheritance.

The paper's introduction describes the resource-retention behaviour of
nested transactions: locks acquired by a subtransaction are *retained* by
the parent when the subtransaction commits, and only released when the
top-level transaction completes.  This lock manager implements exactly
that model:

- read/write locks with the usual compatibility matrix;
- re-entrant acquisition and read→write upgrade by the same transaction;
- a transaction may acquire a lock *retained by one of its ancestors*
  (downward inheritance);
- on subtransaction commit, its locks transfer to the parent;
- on completion of a top-level transaction, all its locks release.

A conflicting acquisition never blocks, whichever thread makes it
(transactions run concurrently on socket connection threads and pool
workers; the manager's lock keeps the tables consistent): it raises
:class:`LockConflict` immediately, and callers model waiting by
retrying.  Callers may instead declare a wait with ``wait=True``; the
manager then maintains a wait-for graph and raises :class:`DeadlockError`
when the declared wait would close a cycle.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import ReproError


class LockMode(Enum):
    READ = "read"
    WRITE = "write"


class LockConflict(ReproError):
    """The requested lock is held in an incompatible mode."""

    def __init__(self, key: str, mode: LockMode, holders: List[str]) -> None:
        super().__init__(
            f"cannot acquire {mode.value} lock on {key!r}; held by {holders}"
        )
        self.key = key
        self.mode = mode
        self.holders = holders


class DeadlockError(LockConflict):
    """Waiting for this lock would create a wait-for cycle."""


class LockManager:
    """Tracks locks per key and per transaction."""

    def __init__(self) -> None:
        # key -> {transaction: mode}
        self._locks: Dict[str, Dict[Any, LockMode]] = {}
        # transaction -> set of keys it holds
        self._held: Dict[Any, Set[str]] = {}
        # waiter transaction -> set of holder transactions (wait-for graph)
        self._waits: Dict[Any, Set[Any]] = {}
        # Nested transactions committed from parallel participant workers
        # reach this manager from several threads; every compound
        # read-modify-write over the three maps runs under one lock.
        self._mutex = threading.RLock()
        self.acquisitions = 0
        self.conflicts = 0
        self.upgrades = 0

    # -- core acquisition -------------------------------------------------

    def acquire(self, tx: Any, key: str, mode: LockMode, wait: bool = False) -> None:
        """Grant ``tx`` a lock on ``key`` or raise.

        ``wait=True`` records the conflict in the wait-for graph before
        raising, enabling deadlock detection across repeated attempts.
        """
        with self._mutex:
            self._acquire_locked(tx, key, mode, wait)

    def _acquire_locked(self, tx: Any, key: str, mode: LockMode, wait: bool) -> None:
        holders = self._locks.setdefault(key, {})
        blockers = self._conflicting_holders(tx, key, mode)
        if blockers:
            self.conflicts += 1
            holder_names = [self._name(holder) for holder in blockers]
            if wait:
                self._waits.setdefault(tx, set()).update(blockers)
                if self._has_cycle(tx):
                    self._waits.pop(tx, None)
                    raise DeadlockError(key, mode, holder_names)
                raise LockConflict(key, mode, holder_names)
            raise LockConflict(key, mode, holder_names)
        # Granted: clear any recorded waits by this transaction.
        self._waits.pop(tx, None)
        current = holders.get(tx)
        if current is LockMode.READ and mode is LockMode.WRITE:
            self.upgrades += 1
        if current is None or mode is LockMode.WRITE:
            holders[tx] = mode if current is not LockMode.WRITE else LockMode.WRITE
        self._held.setdefault(tx, set()).add(key)
        self.acquisitions += 1

    def _conflicting_holders(self, tx: Any, key: str, mode: LockMode) -> List[Any]:
        """Return holders that block ``tx`` from taking ``key`` in ``mode``."""
        blockers = []
        for holder, held_mode in self._locks.get(key, {}).items():
            if holder is tx:
                continue
            if self._is_ancestor(holder, tx):
                # Retained ancestor locks never block a descendant.
                continue
            if mode is LockMode.READ and held_mode is LockMode.READ:
                continue
            blockers.append(holder)
        return blockers

    @staticmethod
    def _is_ancestor(candidate: Any, tx: Any) -> bool:
        is_ancestor = getattr(candidate, "is_ancestor_of", None)
        if is_ancestor is None:
            return False
        return bool(is_ancestor(tx))

    @staticmethod
    def _name(tx: Any) -> str:
        return getattr(tx, "tid", None) or repr(tx)

    # -- queries ------------------------------------------------------------

    def holds(self, tx: Any, key: str, mode: Optional[LockMode] = None) -> bool:
        with self._mutex:
            held_mode = self._locks.get(key, {}).get(tx)
            if held_mode is None:
                return False
            return mode is None or held_mode is mode or held_mode is LockMode.WRITE

    def holders(self, key: str) -> List[Tuple[Any, LockMode]]:
        with self._mutex:
            return list(self._locks.get(key, {}).items())

    def keys_held_by(self, tx: Any) -> Set[str]:
        with self._mutex:
            return set(self._held.get(tx, set()))

    def wait_graph(self) -> Dict[Any, Set[Any]]:
        """Snapshot of the wait-for graph (waiter -> blocking holders)."""
        with self._mutex:
            return {waiter: set(holders) for waiter, holders in self._waits.items()}

    # -- release and inheritance ---------------------------------------------

    def release_all(self, tx: Any) -> int:
        """Drop every lock held by ``tx`` (top-level completion)."""
        with self._mutex:
            return self._release_all_locked(tx)

    def _release_all_locked(self, tx: Any) -> int:
        released = 0
        for key in self._held.pop(tx, set()):
            holders = self._locks.get(key, {})
            if tx in holders:
                del holders[tx]
                released += 1
            if not holders:
                self._locks.pop(key, None)
        self._waits.pop(tx, None)
        # Rebuild the wait-for graph without tx; a waiter whose only
        # blocker was tx drops out entirely (an empty waiter entry would
        # otherwise accumulate as a phantom node across transactions).
        self._waits = {
            waiter: remaining
            for waiter, holders in self._waits.items()
            if (remaining := {h for h in holders if h is not tx})
        }
        return released

    def transfer(self, child: Any, parent: Any) -> int:
        """Move the child's locks to the parent (subtransaction commit).

        A parent's existing lock is upgraded if the child held WRITE.
        """
        with self._mutex:
            return self._transfer_locked(child, parent)

    def _transfer_locked(self, child: Any, parent: Any) -> int:
        moved = 0
        for key in self._held.pop(child, set()):
            holders = self._locks.get(key, {})
            child_mode = holders.pop(child, None)
            if child_mode is None:
                continue
            parent_mode = holders.get(parent)
            if parent_mode is None or child_mode is LockMode.WRITE:
                holders[parent] = child_mode if parent_mode is not LockMode.WRITE else LockMode.WRITE
            self._held.setdefault(parent, set()).add(key)
            moved += 1
        self._waits.pop(child, None)
        return moved

    # -- deadlock detection ----------------------------------------------------

    def _has_cycle(self, start: Any) -> bool:
        """DFS over the wait-for graph looking for a cycle through start."""
        seen: Set[int] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for holder in self._waits.get(node, set()):
                if holder is start:
                    return True
                if id(holder) not in seen:
                    seen.add(id(holder))
                    stack.append(holder)
        return False

    def clear_wait(self, tx: Any) -> None:
        """Withdraw any declared wait by ``tx`` (caller gave up)."""
        with self._mutex:
            self._waits.pop(tx, None)
