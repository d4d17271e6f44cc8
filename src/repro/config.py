"""Typed runtime configuration for the major service entry points.

The three service constructors — :class:`~repro.orb.core.Orb`,
:class:`~repro.core.manager.ActivityManager` and
:class:`~repro.ots.factory.TransactionFactory` — grew a sprawl of tuning
keywords over PRs 3–5 (cache sizing, registry shards).  This module
collapses each surface into one frozen, validated dataclass:

=================  ==========================================================
:class:`OrbConfig`       marshaller cache sizing, federation domain identity
:class:`RuntimeConfig`   ActivityManager: shards, admission
:class:`FactoryConfig`   TransactionFactory: 2PC drive policy (parallelism,
                         group commit), shards, admission
=================  ==========================================================

Resources with a lifetime of their own (clocks, stores, WALs, executors,
event logs, the federation an ORB joins) stay as explicit constructor
parameters or wiring — a config object holds *values*, not live
machinery.

A constructor takes its tuning only as ``config=``; a tuning keyword
passed directly is an unexpected keyword argument (``TypeError``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, TypeVar

from repro.exceptions import ConfigurationError

C = TypeVar("C", bound="_BaseConfig")


class ConfigValidationError(ConfigurationError, ValueError):
    """An out-of-range config value.

    Subclasses both :class:`ConfigurationError` (the library's own
    configuration-failure type) and :class:`ValueError` (what the
    pre-dataclass constructors raised), so existing callers keep
    working whichever they catch.
    """


@dataclass(frozen=True)
class _BaseConfig:
    """Shared validate/replace machinery for the config dataclasses."""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range values."""

    def replace(self: C, **changes: Any) -> C:
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def _require(self, ok: bool, message: str) -> None:
        if not ok:
            raise ConfigValidationError(f"{type(self).__name__}: {message}")


def _validate_admission(config: Any) -> None:
    """Shared validation for the admission ceiling and event-log bound
    (present on both :class:`RuntimeConfig` and :class:`FactoryConfig`)."""
    config._require(
        config.max_live is None
        or (isinstance(config.max_live, int) and config.max_live >= 1),
        f"max_live must be None or >= 1, got {config.max_live!r}",
    )
    config._require(
        config.max_events is None
        or (isinstance(config.max_events, int) and config.max_events >= 1),
        f"max_events must be None or >= 1, got {config.max_events!r}",
    )


@dataclass(frozen=True)
class OrbConfig(_BaseConfig):
    """Tuning values for one :class:`~repro.orb.core.Orb`.

    marshal_cache_entries
        Bound on the marshaller's encode cache, in activity/transaction
        contexts (group frames are not counted); ``0`` is the caches-off
        reference: no encode or decode cache, no activity-context
        snapshots and no pre-encoded request templates, so every message
        is built, encoded and decoded in full (:attr:`Orb.caches_enabled
        <repro.orb.core.Orb.caches_enabled>`).  Default 256: enough for
        the per-activity context churn the benchmarks exercise without
        unbounded growth.  The decode cache has a fixed bound
        (:data:`~repro.orb.marshal.DECODE_CACHE_ENTRIES`).
    domain_id
        The coordination domain this ORB belongs to when federated.
        Normally assigned by ``InterOrbBridge.connect`` or the site
        runtime; a standalone ORB leaves it ``None``.

    The wire format is not a knob: every ORB speaks the one encoding of
    :mod:`repro.orb.marshal`.
    """

    marshal_cache_entries: int = 256
    domain_id: Optional[str] = None

    def validate(self) -> None:
        self._require(
            isinstance(self.marshal_cache_entries, int)
            and self.marshal_cache_entries >= 0,
            f"marshal_cache_entries must be a non-negative int, "
            f"got {self.marshal_cache_entries!r}",
        )


@dataclass(frozen=True)
class RuntimeConfig(_BaseConfig):
    """Tuning values for one :class:`~repro.core.manager.ActivityManager`.

    registry_shards
        Stripe count for the activity/timeout registries (PR 4), ≥ 1.
        Default 8: past the contention knee measured in fig16 without
        oversharding small deployments.
    max_live
        Admission ceiling: at most this many activities are live at
        once, and a ``begin`` past it raises
        :class:`~repro.exceptions.AdmissionRejected` at once (nothing
        waits).  ``None`` (default) disables the gate entirely — no gate
        object is even constructed, keeping the default path
        byte-identical.
    max_events
        Bound on what a reader attached to the manager's own
        :class:`~repro.util.events.EventLog` retains (``None``: no bound).

    Deadlines are not a knob: each timed activity arms one timer on the
    manager's :class:`~repro.util.clock.TimerQueue`, which
    ``expire_timeouts`` polls.
    """

    registry_shards: int = 8
    max_live: Optional[int] = None
    max_events: Optional[int] = None

    def validate(self) -> None:
        self._require(
            isinstance(self.registry_shards, int) and self.registry_shards >= 1,
            f"registry_shards must be >= 1, got {self.registry_shards!r}",
        )
        _validate_admission(self)


@dataclass(frozen=True)
class ReplicationConfig(_BaseConfig):
    """Replica declarations for a domain's persistence (PR 9).

    replicas
        Total copies of the domain's WAL and cell store, primary
        included.  ``1`` means unreplicated (the pre-PR-9 layout, just
        routed through the replication layer).
    write_quorum
        Copies that must durably apply a mutation before it is
        acknowledged; ``None`` (default) means a majority
        (``replicas // 2 + 1``).  A quorum of 1 is fire-and-forget to
        followers; a quorum of ``replicas`` refuses writes the moment
        any disk is lost.
    backend
        Store kind backing each replica: ``"segmented"`` (default, the
        append-oriented file store), ``"sqlite"`` or
        ``"memory"`` (tests/benchmarks only — a memory replica does not
        survive the process).
    journal_limit
        Mutations the :class:`~repro.persistence.replicated.ReplicatedStore`
        keeps for journal-replay catch-up before a lagging replica needs
        a full snapshot re-sync.
    """

    replicas: int = 3
    write_quorum: Optional[int] = None
    backend: str = "segmented"
    journal_limit: int = 512

    def validate(self) -> None:
        self._require(
            isinstance(self.replicas, int) and self.replicas >= 1,
            f"replicas must be >= 1, got {self.replicas!r}",
        )
        self._require(
            self.write_quorum is None
            or (
                isinstance(self.write_quorum, int)
                and 1 <= self.write_quorum <= self.replicas
            ),
            f"write_quorum must be None or in [1, replicas], "
            f"got {self.write_quorum!r} for {self.replicas} replicas",
        )
        self._require(
            self.backend in ("memory", "segmented", "sqlite"),
            f"backend must be one of memory/segmented/sqlite, "
            f"got {self.backend!r}",
        )
        self._require(
            isinstance(self.journal_limit, int) and self.journal_limit >= 1,
            f"journal_limit must be >= 1, got {self.journal_limit!r}",
        )

    def effective_quorum(self) -> int:
        """The write quorum actually enforced (majority when unset)."""
        if self.write_quorum is not None:
            return self.write_quorum
        return self.replicas // 2 + 1


@dataclass(frozen=True)
class FactoryConfig(_BaseConfig):
    """Tuning values for one :class:`~repro.ots.factory.TransactionFactory`.

    retry_attempts
        Per-participant retries for transient ``CommunicationError``
        during 2PC phases (at-least-once completion; phase-two operations
        are idempotent so retrying is safe).  ≥ 1.
    group_commit_window
        Seconds the WAL may hold a commit record waiting to share an
        fsync with neighbours (PR 2's fig13 trade-off); ``None`` forces
        every decision individually (the durability-latency default).
    parallel_participants
        Worker threads driving prepare/commit fan-out per transaction;
        ``1`` keeps the serial, trace-deterministic drive.
    registry_shards
        As in :class:`RuntimeConfig`, for the transaction registry.
    tid_prefix
        Prepended to every generated transaction id.  Empty (the
        default) keeps single-process traces byte-identical; site
        daemons set ``"<site>:<boot-nonce>:"`` because root tids key
        remote adoption maps and durable logs, so they must stay unique
        across sites *and* process restarts.
    max_live / max_events
        Admission ceiling and event-log bound, exactly as in
        :class:`RuntimeConfig`; the ceiling covers
        ``TransactionFactory.create`` (top-level transactions only —
        subtransactions ride their parent's admission).

    Deadlines are not a knob: a timed transaction arms one timer, on a
    :class:`~repro.util.clock.SimulatedClock` (fired by ``advance``) or
    else on the factory's own :class:`~repro.util.clock.TimerQueue`
    (polled by ``expire_timeouts``).
    """

    retry_attempts: int = 3
    group_commit_window: Optional[float] = None
    parallel_participants: int = 1
    registry_shards: int = 8
    tid_prefix: str = ""
    max_live: Optional[int] = None
    max_events: Optional[int] = None

    def validate(self) -> None:
        self._require(
            isinstance(self.retry_attempts, int) and self.retry_attempts >= 1,
            f"retry_attempts must be >= 1, got {self.retry_attempts!r}",
        )
        self._require(
            self.group_commit_window is None or self.group_commit_window >= 0,
            f"group_commit_window must be None or >= 0, "
            f"got {self.group_commit_window!r}",
        )
        self._require(
            isinstance(self.parallel_participants, int)
            and self.parallel_participants >= 1,
            f"parallel_participants must be >= 1, "
            f"got {self.parallel_participants!r}",
        )
        self._require(
            isinstance(self.tid_prefix, str),
            f"tid_prefix must be a string, got {self.tid_prefix!r}",
        )
        self._require(
            isinstance(self.registry_shards, int) and self.registry_shards >= 1,
            f"registry_shards must be >= 1, got {self.registry_shards!r}",
        )
        _validate_admission(self)
