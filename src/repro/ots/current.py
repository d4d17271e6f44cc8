"""Thread-association: the OTS ``Current`` object.

``Current`` keeps the stack of transactions associated with the calling
thread, one stack per thread (a
:class:`~repro.util.workers.ThreadAssociation`), giving the implicit
begin/commit/rollback API that application code (and the Activity
Service's transactional periods) uses.
``begin`` inside an active transaction starts a *nested* transaction, as
the CORBA OTS does when subtransactions are supported.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ots.coordinator import Control, Transaction
from repro.ots.exceptions import InvalidTransaction, NoTransaction
from repro.ots.factory import TransactionFactory
from repro.ots.status import TransactionStatus
from repro.util.workers import ThreadAssociation


class TransactionCurrent:
    """Implicit transaction context, associated per thread."""

    def __init__(self, factory: TransactionFactory) -> None:
        self.factory = factory
        self._association = ThreadAssociation()

    @property
    def _stack(self) -> List[Transaction]:  # the calling thread's
        return self._association.stack

    # -- demarcation -------------------------------------------------------

    def begin(self, timeout: float = 0.0, name: Optional[str] = None) -> Transaction:
        """Start a transaction; nested if one is already associated."""
        if self._stack:
            tx = self._stack[-1].begin_subtransaction(name=name)
        else:
            tx = self.factory.create(timeout=timeout, name=name)
        self._stack.append(tx)
        return tx

    def commit(self, report_heuristics: bool = True) -> None:
        tx = self._require_current()
        try:
            tx.commit(report_heuristics)
        finally:
            self._pop(tx)

    def rollback(self) -> None:
        tx = self._require_current()
        try:
            tx.rollback()
        finally:
            self._pop(tx)

    def rollback_only(self) -> None:
        self._require_current().rollback_only()

    # -- inspection ---------------------------------------------------------

    def get_transaction(self) -> Optional[Transaction]:
        return self._stack[-1] if self._stack else None

    def get_control(self) -> Optional[Control]:
        tx = self.get_transaction()
        return Control(tx) if tx is not None else None

    def get_status(self) -> TransactionStatus:
        tx = self.get_transaction()
        return tx.status if tx is not None else TransactionStatus.NO_TRANSACTION

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- suspend/resume ---------------------------------------------------------

    def suspend(self) -> Optional[Transaction]:
        """Detach and return the current transaction (None if none)."""
        if not self._stack:
            return None
        return self._stack.pop()

    def resume(self, tx: Optional[Transaction]) -> None:
        """Re-associate a previously suspended transaction."""
        if tx is None:
            return
        if not isinstance(tx, Transaction):
            raise InvalidTransaction(f"cannot resume {tx!r}")
        if tx.status.is_terminal:
            raise InvalidTransaction(f"cannot resume completed transaction {tx.tid}")
        self._stack.append(tx)

    # -- internals ----------------------------------------------------------------

    def _require_current(self) -> Transaction:
        if not self._stack:
            raise NoTransaction("no transaction associated with this thread")
        return self._stack[-1]

    def _pop(self, tx: Transaction) -> None:
        if self._stack and self._stack[-1] is tx:
            self._stack.pop()
