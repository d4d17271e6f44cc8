"""Shared exception hierarchy for the Activity Service reproduction.

Every package-specific exception derives from :class:`ReproError` so callers
can catch a single base type at API boundaries.  Sub-packages define their own
richer hierarchies (``repro.core.exceptions``, ``repro.ots.exceptions``) whose
roots live here.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured inconsistently (bad wiring, bad params)."""


class CommunicationError(ReproError):
    """A (simulated) distribution-layer failure: message lost, node down.

    Mirrors the CORBA system exceptions (``COMM_FAILURE``, ``TRANSIENT``)
    that an ORB raises when an invocation cannot be delivered.
    """

    def __init__(self, message: str = "communication failure", *, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient


class ObjectNotExist(CommunicationError):
    """The target object reference no longer denotes a live servant.

    Mirrors CORBA ``OBJECT_NOT_EXIST``; raised non-transiently because
    retrying the same reference can never succeed.
    """

    def __init__(self, message: str = "object does not exist") -> None:
        super().__init__(message, transient=False)


class OverloadError(CommunicationError):
    """The target is shedding load and refused to accept the request.

    Mirrors CORBA ``TRANSIENT`` with a minor code of "resource limit":
    the request was never started, so retrying after backoff is always
    safe.  An admission gate at its ``max_live`` ceiling raises the
    subclass :class:`AdmissionRejected`; a gate released more often than
    it admitted raises this class itself.  Travels the wire as a typed
    fast-fail error so clients back off via
    :class:`~repro.util.retry.RetryPolicy` instead of piling on.
    """

    def __init__(self, message: str = "overloaded") -> None:
        super().__init__(message, transient=True)


class AdmissionRejected(OverloadError):
    """An admission gate refused new work: ``max_live`` tokens are live.

    Distinguishes the ceiling's decision from generic overload so
    callers can count and react to sheds separately from other pushback.
    """

    def __init__(self, message: str = "admission rejected") -> None:
        super().__init__(message)


class InvalidStateError(ReproError):
    """An operation was attempted in a state that forbids it."""


class TimeoutError_(ReproError):
    """A simulated deadline elapsed before the operation completed."""
