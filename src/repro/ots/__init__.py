"""Object Transaction Service stand-in.

A from-scratch reimplementation of the CosTransactions machinery the
Activity Service coordinates with: transaction factory and registry,
Control/Coordinator/Terminator facades, flat and nested transactions,
presumed-abort two-phase commit with write-ahead logging and crash
recovery, heuristic outcomes, strict two-phase locking with
nested-transaction lock inheritance, implicit context propagation over
the ORB, and recoverable application state cells.
"""

from repro.ots.coordinator import Control, Coordinator, ResourceRecord, Terminator, Transaction
from repro.ots.current import TransactionCurrent
from repro.ots.exceptions import (
    HeuristicCommit,
    HeuristicException,
    HeuristicHazard,
    HeuristicMixed,
    HeuristicRollback,
    Inactive,
    InvalidTransaction,
    NoTransaction,
    NotPrepared,
    SimulatedCrash,
    SubtransactionsUnavailable,
    SynchronizationUnavailable,
    TransactionError,
    TransactionRequired,
    TransactionRolledBack,
    WrongTransaction,
)
from repro.ots.factory import Failpoints, TransactionFactory
from repro.ots.interposition import (
    FederatedTransactionContext,
    FederatedTransactionService,
    SubordinateTransactionResource,
    install_federated_transaction_service,
)
from repro.ots.locks import LockConflict, LockManager, LockMode
from repro.ots.propagation import (
    TransactionClientInterceptor,
    TransactionContext,
    TransactionServerInterceptor,
    install_transaction_service,
)
from repro.ots.recoverable import (
    Recoverable,
    RecoverableRegistry,
    TransactionalCell,
)
from repro.ots.recovery import RecoveryManager, RecoveryReport
from repro.ots.resource import (
    Resource,
    SubtransactionAwareResource,
    Synchronization,
    call_participant,
)
from repro.ots.status import TransactionStatus, Vote

__all__ = [
    "Transaction",
    "Control",
    "Coordinator",
    "Terminator",
    "ResourceRecord",
    "TransactionCurrent",
    "TransactionFactory",
    "Failpoints",
    "TransactionStatus",
    "Vote",
    "Resource",
    "SubtransactionAwareResource",
    "Synchronization",
    "call_participant",
    "LockManager",
    "LockMode",
    "LockConflict",
    "TransactionalCell",
    "Recoverable",
    "RecoverableRegistry",
    "RecoveryManager",
    "RecoveryReport",
    "install_transaction_service",
    "install_federated_transaction_service",
    "FederatedTransactionService",
    "FederatedTransactionContext",
    "SubordinateTransactionResource",
    "TransactionContext",
    "TransactionClientInterceptor",
    "TransactionServerInterceptor",
    "TransactionError",
    "TransactionRolledBack",
    "TransactionRequired",
    "InvalidTransaction",
    "NoTransaction",
    "Inactive",
    "NotPrepared",
    "SubtransactionsUnavailable",
    "SynchronizationUnavailable",
    "WrongTransaction",
    "HeuristicException",
    "HeuristicRollback",
    "HeuristicCommit",
    "HeuristicMixed",
    "HeuristicHazard",
    "SimulatedCrash",
]
