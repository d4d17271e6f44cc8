"""One transaction domain: the OTS and the Activity Service side by side.

In the paper every domain runs the Activity Service beside the OTS, with
one recovery story for both.  :class:`Domain` is that assembly, written
once: the site daemon (:class:`~repro.orb.site.SiteRuntime`, a domain
behind a socket transport) and the chaos world
(:class:`~repro.chaos.world.ChaosDomain`, a domain behind an in-process
bridge that crashes and restarts) both build on it.  It depends on
neither the clock nor the transport: :meth:`Domain.boot` takes an ORB
already joined to its bridge or socket federation (the ORB brings the
clock and the federation), the durable media the caller chose, and the
tid prefix its restart policy wants.  A restarted process calls
``boot`` again over the same media.

:meth:`Domain.housekeeping_round` is the one maintenance pass both
deployments run, the daemon every serve-loop pass and the chaos world
every quiesce round.  Each step catches
:class:`~repro.exceptions.ReproError` into :attr:`recovery_error`
(``None`` when the last round ran clean) and the round goes on, except
that a failed recovery ends it: nothing else may touch a log not yet
replayed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.config import FactoryConfig, RuntimeConfig
from repro.core.manager import ActivityManager
from repro.exceptions import ReproError
from repro.orb.core import Orb
from repro.ots.current import TransactionCurrent
from repro.ots.factory import TransactionFactory
from repro.ots.interposition import install_federated_transaction_service
from repro.ots.recoverable import RecoverableRegistry, TransactionalCell
from repro.persistence.object_store import ObjectStore
from repro.persistence.replicated import ReplicatedWAL
from repro.persistence.wal import WriteAheadLog


class Domain:
    """A domain's per-process stack over durable media it does not own."""

    def boot(
        self,
        orb: Orb,
        wal: WriteAheadLog,
        cell_store: ObjectStore,
        *,
        tid_prefix: str,
        max_events: Optional[int] = None,
    ) -> None:
        """Build the stack over ``wal`` and ``cell_store``: factory,
        ``TransactionCurrent``, recoverable registry, federated
        transaction service and an activity manager, which is not
        installed on the ORB (whoever hosts activities decides).
        ``max_events`` bounds what a reader of their event logs keeps."""
        self.orb = orb
        self.wal = wal
        self.cell_store = cell_store
        self.factory = TransactionFactory(
            clock=orb.clock,
            wal=wal,
            config=FactoryConfig(tid_prefix=tid_prefix, max_events=max_events),
        )
        self.current = TransactionCurrent(self.factory)
        self.registry = RecoverableRegistry()
        self.service = install_federated_transaction_service(
            orb, self.current, registry=self.registry
        )
        self.manager = ActivityManager(
            clock=orb.clock, config=RuntimeConfig(max_events=max_events)
        )
        self.recovered = False
        self.recovery_error: Optional[str] = None
        self._cells: Dict[str, TransactionalCell] = {}

    def cell(self, key: str, initial: Any) -> TransactionalCell:
        """Get-or-create one recoverable unit of application state,
        backed by this domain's cell store and recovery registry."""
        existing = self._cells.get(key)
        if existing is None:
            existing = self._cells[key] = TransactionalCell(
                key,
                initial,
                self.factory,
                store=self.cell_store,
                registry=self.registry,
            )
        return existing

    def attempt(self, step: Callable[..., Any], *args: Any) -> Any:
        """Run one housekeeping step, recording a ``ReproError`` in
        :attr:`recovery_error` instead of raising it."""
        try:
            return step(*args)
        except ReproError as exc:
            self.recovery_error = f"{type(exc).__name__}: {exc}"
            return None

    def recover(self) -> Optional[str]:
        """Replay this domain's log (federated recovery).  Returns the
        error, also recorded, when it failed — a superior still
        unreachable, say — and ``None`` once the domain has recovered."""
        report = self.attempt(self.service.recover)
        if report is None:
            return self.recovery_error
        self.recovered = True
        self.factory.event_log.record(
            "domain_recovered",
            domain=self.service.domain_id,
            recommitted=len(report.recommitted),
            presumed_aborted=len(report.presumed_aborted),
            held=len(report.held),
        )
        return None

    def replication_catch_up(self) -> None:
        """Re-sync lagging or readmitted replica media.  A dead primary
        medium would wedge the log (every force raises and nothing
        re-roots it), so fail over to the newest follower first."""
        if isinstance(self.wal, ReplicatedWAL):
            self.wal.failover_if_primary_down()
            self.wal.catch_up()
            self.cell_store.catch_up()

    def housekeeping_round(self, orphan_min_age: float) -> None:
        """Replication catch-up, recovery until it succeeds, transaction
        timeouts, stranded completions, activity timeouts, the orphan
        sweep (which also forces the log's unforced tail), in-doubt
        resolution (held subordinates ask their superior, delegated roots
        their last agent), then forget the finished transactions."""
        self.recovery_error = None
        self.attempt(self.replication_catch_up)
        if not self.recovered and self.recover() is not None:
            return
        self.attempt(self.factory.expire_timeouts)
        self.attempt(self.factory.redrive_stuck)
        self.attempt(self.manager.expire_timeouts)
        self.attempt(self.service.sweep_orphans, orphan_min_age)
        self.attempt(self.service.resolve_in_doubt)
        self.attempt(self.factory.forget_completed)
