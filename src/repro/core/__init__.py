"""The Activity Service framework — the paper's primary contribution.

Activities (application-specific units of computation) coordinate through
a general-purpose event-signalling mechanism: each activity has an
:class:`ActivityCoordinator`; :class:`Action` objects register interest in
:class:`SignalSet` names; triggering a set makes the coordinator pump its
:class:`Signal` stream to every registered action and feed the
:class:`Outcome` replies back to the set, which decides how the protocol
proceeds.  Extended transaction models (two-phase commit, open nesting
with compensation, sagas, workflow coordination, BTP…) are just concrete
SignalSet/Action implementations — see :mod:`repro.models`.
"""

from repro.core.action import (
    Action,
    FunctionAction,
    IdempotentAction,
    RecordingAction,
    ScriptedAction,
)
from repro.core.activity import Activity
from repro.core.broadcast import (
    SerialBroadcastExecutor,
    ThreadPoolBroadcastExecutor,
    Transmission,
)
from repro.core.context import (
    ActivityClientInterceptor,
    ActivityContext,
    ActivityServerInterceptor,
    build_context,
    context_version,
    received_context,
    snapshot_context,
)
from repro.core.coordinator import ActionRecord, ActivityCoordinator
from repro.core.current import ActivityCurrent
from repro.core.interposition import (
    ActivityInterposer,
    SubordinateCoordinator,
    recover_subordinates,
)
from repro.core.delivery import (
    AtLeastOnceDelivery,
    AtMostOnceDelivery,
    DeliveryPolicy,
    ExactlyOnceDelivery,
)
from repro.core.exceptions import (
    ActionError,
    ActivityCompleted,
    ActivityPending,
    ActivityServiceError,
    CompletionStatusLatched,
    InvalidActivityState,
    NoActivity,
    NoSuchPropertyGroup,
    NoSuchSignalSet,
    NotOriginator,
    PropertyGroupError,
    RecoveryError,
    SignalSetActive,
    SignalSetInactive,
)
from repro.core.manager import ActivityManager
from repro.core.predefined import BroadcastSignalSet, CompletionSignalSet
from repro.core.property_group import (
    NestedVisibility,
    Propagation,
    PropertyGroup,
    PropertyGroupManager,
    RemotePropertyGroup,
    ScopedPropertyGroup,
)
from repro.core.recovery import ActivityRecoveryService
from repro.core.signal_set import GuardedSignalSet, SequenceSignalSet, SignalSet
from repro.core.signals import (
    OUTCOME_DONE,
    OUTCOME_ERROR,
    OUTCOME_UNREACHABLE,
    Outcome,
    Signal,
)
from repro.core.status import ActivityStatus, CompletionStatus, SignalSetState
from repro.core.user_activity import UserActivity

__all__ = [
    "Activity",
    "ActivityManager",
    "ActivityCurrent",
    "ActivityInterposer",
    "SubordinateCoordinator",
    "recover_subordinates",
    "UserActivity",
    "ActivityCoordinator",
    "ActionRecord",
    "SerialBroadcastExecutor",
    "ThreadPoolBroadcastExecutor",
    "Transmission",
    "Action",
    "FunctionAction",
    "IdempotentAction",
    "RecordingAction",
    "ScriptedAction",
    "Signal",
    "Outcome",
    "OUTCOME_DONE",
    "OUTCOME_ERROR",
    "OUTCOME_UNREACHABLE",
    "SignalSet",
    "GuardedSignalSet",
    "SequenceSignalSet",
    "CompletionSignalSet",
    "BroadcastSignalSet",
    "CompletionStatus",
    "ActivityStatus",
    "SignalSetState",
    "PropertyGroup",
    "ScopedPropertyGroup",
    "RemotePropertyGroup",
    "PropertyGroupManager",
    "NestedVisibility",
    "Propagation",
    "DeliveryPolicy",
    "AtMostOnceDelivery",
    "AtLeastOnceDelivery",
    "ExactlyOnceDelivery",
    "ActivityContext",
    "ActivityClientInterceptor",
    "ActivityServerInterceptor",
    "build_context",
    "context_version",
    "snapshot_context",
    "received_context",
    "ActivityRecoveryService",
    "ActivityServiceError",
    "ActionError",
    "SignalSetActive",
    "SignalSetInactive",
    "InvalidActivityState",
    "ActivityPending",
    "ActivityCompleted",
    "NoActivity",
    "NotOriginator",
    "CompletionStatusLatched",
    "NoSuchSignalSet",
    "NoSuchPropertyGroup",
    "PropertyGroupError",
    "RecoveryError",
]
