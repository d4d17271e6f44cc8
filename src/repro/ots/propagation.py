"""Implicit transaction-context propagation over the ORB.

A client request interceptor attaches the active transaction's id as the
``CosTransactions`` service context; the server interceptor re-associates
the transaction with the dispatching 'thread' for the duration of the
request.  Because the factory registry is reachable from every node of the
simulated deployment, re-association replaces full OTS interposition while
exercising the identical application-visible behaviour (a servant sees the
caller's transaction as its own current transaction).
"""

from __future__ import annotations

from typing import Any, ClassVar, Tuple

from repro.orb.core import Orb
from repro.orb.interceptors import (
    FEDERATED_TRANSACTION_CONTEXT_ID,
    TRANSACTION_CONTEXT_ID,
    ClientRequestInterceptor,
    RequestInfo,
    ServerRequestInterceptor,
)
from repro.orb.marshal import GLOBAL_REGISTRY
from repro.ots.current import TransactionCurrent
from repro.util.records import FrozenRecord
from repro.util.workers import ThreadAssociation


@GLOBAL_REGISTRY.register_slotted
class TransactionContext(FrozenRecord):
    """Wire form of a propagated transaction association (slotted, PR 7)."""

    __slots__ = ("tid",)
    _fields: ClassVar[Tuple[str, ...]] = __slots__

    def __init__(self, tid: str) -> None:
        self._init(tid=tid)


# A transaction's context never changes (the tid is its identity), so
# one instance per transaction is cached below and its encoded bytes
# are interned — N participant calls of a 2PC round marshal it once.
GLOBAL_REGISTRY.intern_encoded(TransactionContext)


def wire_context(tx: Any) -> TransactionContext:
    """The identity-stable wire context of ``tx`` (cached on the tx)."""
    context = getattr(tx, "_wire_context", None)
    if context is None or context.tid != tx.tid:
        context = TransactionContext(tid=tx.tid)
        tx._wire_context = context
    return context


class TransactionClientInterceptor(ClientRequestInterceptor):
    """Attaches the caller's transaction id to outgoing requests."""

    name = "ots-client"

    def __init__(self, current: TransactionCurrent) -> None:
        self.current = current

    def send_request(self, info: RequestInfo) -> None:
        tx = self.current.get_transaction()
        if tx is not None and not tx.status.is_terminal:
            info.set_context(TRANSACTION_CONTEXT_ID, wire_context(tx))


class TransactionServerInterceptor(ServerRequestInterceptor):
    """Re-associates the propagated transaction around each dispatch."""

    name = "ots-server"

    def __init__(self, current: TransactionCurrent) -> None:
        self.current = current
        # Per dispatching thread (see ActivityServerInterceptor): one
        # ORB dispatches concurrently under the parallel fan-outs, and
        # a shared LIFO would let requests pop each other's flags.
        self._resumed = ThreadAssociation()

    def receive_request(self, info: RequestInfo) -> None:
        context = info.get_context(TRANSACTION_CONTEXT_ID)
        if (
            isinstance(context, TransactionContext)
            # A request that crossed an inter-ORB bridge carries the
            # federation context and is re-associated by interposition:
            # tids are only unique *per domain*, so matching a foreign
            # tid against this factory's registry would associate an
            # unrelated local transaction.
            and info.get_context(FEDERATED_TRANSACTION_CONTEXT_ID) is None
            and self.current.factory.knows(context.tid)
        ):
            # resume raises InvalidTransaction for a terminal
            # transaction, failing the dispatch — the historical
            # (and CORBA) behaviour for a stale association.
            self.current.resume(self.current.factory.get(context.tid))
            self._resumed.stack.append(True)
        else:
            self._resumed.stack.append(False)

    def _detach(self) -> None:
        flags = self._resumed.stack
        if flags and flags.pop():
            self.current.suspend()

    def send_reply(self, info: RequestInfo) -> None:
        self._detach()

    def send_exception(self, info: RequestInfo) -> None:
        self._detach()


def install_transaction_service(
    orb: Orb, current: TransactionCurrent
) -> None:
    """Wire the OTS propagation interceptors into an ORB."""
    orb.interceptors.add_client(TransactionClientInterceptor(current))
    orb.interceptors.add_server(TransactionServerInterceptor(current))
    from repro.ots import exceptions as ots_exceptions

    for name in (
        "TransactionRolledBack",
        "TransactionRequired",
        "InvalidTransaction",
        "NoTransaction",
        "Inactive",
        "NotPrepared",
        "HeuristicMixed",
        "HeuristicHazard",
        "HeuristicRollback",
        "HeuristicCommit",
    ):
        orb.register_exception(getattr(ots_exceptions, name))
