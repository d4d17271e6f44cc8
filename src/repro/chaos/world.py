"""The in-process federated world a chaos campaign runs against.

A :class:`ChaosWorld` is N transaction domains (default two) joined by
an :class:`~repro.orb.federation.InterOrbBridge` under one
:class:`~repro.util.clock.SimulatedClock`.  Each :class:`ChaosDomain`
is the same :class:`~repro.domain.Domain` a site daemon runs — ORB,
transaction factory over a write-ahead log, recoverable registry,
federated transaction service and an
:class:`~repro.core.manager.ActivityManager` for the extended-
transaction models — plus a set of idempotent bank accounts, while its
durable *media* (WAL store, cell store) live outside the domain object
and survive crashes, exactly like a disk survives a SIGKILL.

``crash()`` therefore throws away every piece of process state and
``restart()`` rebuilds the stack from the media and runs federated
recovery, which is the whole point of the campaign: any state the
framework needs to stay safe must have made it to the log.
``quiesce()`` then runs the domain's housekeeping round — the one a
daemon's serve loop runs — until the world is quiet.

Bank accounts are **idempotent by operation id**: every deposit or
withdrawal carries the workload's ``op_id`` and the account records the
ids it has applied inside the same transactional cell as the balance.
An at-least-once network (duplicate deliveries are one of the injected
faults) may run a servant twice; the second application must be a
no-op, and the recorded ids are what lets the
:class:`~repro.chaos.invariants.OutcomeChecker` prove that every
outcome was applied exactly once — or not at all — afterwards.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.domain import Domain
from repro.exceptions import InvalidStateError, ReproError
from repro.orb import InterOrbBridge, Orb
from repro.orb.membership import FailureDetectorConfig
from repro.orb.reference import ObjectRef
from repro.persistence import (
    MemoryStore,
    ObjectStore,
    ReplicaMedium,
    ReplicatedStore,
    ReplicatedWAL,
    WriteAheadLog,
)
from repro.util.clock import SimulatedClock
from repro.util.rng import SeededRng


def chaos_node_id(domain: str) -> str:
    return f"{domain}-apps"


class ChaosAccount:
    """A bank account servant with op-id idempotency.

    The cell value is ``[balance, [applied op ids...]]`` — one atom, so
    balance and dedup history commit (or roll back, or replay from the
    WAL) together.  ``deposit``/``withdraw`` run under the caller's
    current transaction, which for cross-domain invocations is the
    adopted subordinate the federation interceptors installed.
    """

    interface = "ChaosAccount"

    def __init__(self, domain: "ChaosDomain", key: str, opening: float) -> None:
        self.domain = domain
        self.key = key
        self.cell = domain.cell(f"acct:{key}", [float(opening), []])

    # -- transactional ops (require an ambient transaction) ----------------

    def _tx(self):
        tx = self.domain.current.get_transaction()
        if tx is None:
            raise InvalidStateError(
                f"account {self.key}: no ambient transaction for update"
            )
        return tx

    def deposit(self, op_id: str, amount: float) -> float:
        tx = self._tx()
        balance, ops = self.cell.read(tx)
        if op_id in ops:
            return balance  # duplicate delivery: already applied
        self.cell.write(tx, [balance + amount, list(ops) + [op_id]])
        return balance + amount

    def withdraw(self, op_id: str, amount: float) -> float:
        tx = self._tx()
        balance, ops = self.cell.read(tx)
        if op_id in ops:
            return balance
        if balance < amount:
            raise ValueError(
                f"account {self.key}: insufficient funds"
                f" ({balance:g} < {amount:g})"
            )
        self.cell.write(tx, [balance - amount, list(ops) + [op_id]])
        return balance - amount

    # -- committed views ---------------------------------------------------

    def balance(self) -> float:
        """Committed balance; runs outside any transaction, so a remote
        call lands without adopting a subordinate — the in-process
        analogue of a site daemon's heartbeat ping."""
        return self.cell.committed_value[0]

    @property
    def committed_balance(self) -> float:
        return self.cell.committed_value[0]

    @property
    def applied_ops(self) -> List[str]:
        return list(self.cell.committed_value[1])


class ChaosDomain(Domain):
    """A :class:`~repro.domain.Domain` behind the world's bridge, whose
    durable media outlive its process."""

    def __init__(
        self,
        name: str,
        bridge: InterOrbBridge,
        clock: SimulatedClock,
        make_store: Callable[[str], Any],
        account_specs: Dict[str, float],
        replica_media: Optional[Dict[str, List[ReplicaMedium]]] = None,
        write_quorum: Optional[int] = None,
    ) -> None:
        self.name = name
        self.bridge = bridge
        self.clock = clock
        self.make_store = make_store
        self.account_specs = dict(account_specs)
        # Replicated domains keep their per-disk media ({"wal": [...],
        # "cells": [...]}) at world level, exactly as the single-copy
        # stores do: a crash kills the ReplicatedWAL/ReplicatedStore
        # objects, the disks survive, and reboot re-elects from them.
        self.replica_media = replica_media
        self.write_quorum = write_quorum
        self.alive = False
        self.crash_count = 0
        self.boot_count = 0
        self._boot()
        self.recovered = True  # fresh media: nothing to replay

    def _boot(self) -> None:
        if self.replica_media is not None:
            wal: WriteAheadLog = ReplicatedWAL(
                self.replica_media["wal"],
                "wal",
                window=0.0,
                sleep=lambda _seconds: None,
                write_quorum=self.write_quorum,
                clock=self.clock,
            )
            cell_store: ObjectStore = ReplicatedStore(
                self.replica_media["cells"],
                write_quorum=self.write_quorum,
                clock=self.clock,
            )
        else:
            # A restarted process reads its media back; the in-memory
            # store model returns the same instances (the medium
            # survives, the process state does not).
            wal = WriteAheadLog(self.make_store(f"{self.name}-wal"), "wal")
            cell_store = self.make_store(f"{self.name}-cells")
        self.boot_count += 1
        orb = Orb(clock=self.clock)
        self.bridge.connect(orb, self.name)
        # Root tids key durable records that outlive this incarnation
        # (the WAL survives the crash), so they must be unique across
        # reboots — a restarted factory restarts its counter.  The boot
        # counter is the nonce (deterministic, unlike the site daemon's
        # uuid, so seed replay stays exact).
        self.boot(orb, wal, cell_store, tid_prefix=f"{self.name}.b{self.boot_count}:")
        self.node = orb.create_node(chaos_node_id(self.name))
        self.accounts: Dict[str, ChaosAccount] = {}
        for key, opening in sorted(self.account_specs.items()):
            account = ChaosAccount(self, key, opening)
            self.node.activate(account, object_id=f"acct:{key}")
            self.accounts[key] = account
        self.alive = True

    # -- process lifecycle -------------------------------------------------

    def crash(self) -> None:
        """The whole domain process dies; only the media survive."""
        if not self.alive:
            return
        self.bridge.disconnect(self.name)
        self.alive = False
        self.crash_count += 1

    def restart(self) -> Optional[str]:
        """Reboot from the media and run federated recovery.

        Returns the recovery error string when recovery itself failed
        (e.g. a superior unreachable across a still-partitioned link);
        the campaign's quiesce rounds retry it until clean.
        """
        if self.alive:
            self.factory.failpoints.clear()
            return None
        self._boot()
        return self.recover()


class ChaosWorld:
    """N federated domains + bank accounts under one simulated clock."""

    def __init__(
        self,
        seed: int = 0,
        domain_names: Sequence[str] = ("A", "B"),
        accounts_per_domain: int = 2,
        opening_balance: float = 100.0,
        make_store: Optional[Callable[[str], Any]] = None,
        failure_detection: bool = True,
        detector_config: Optional[FailureDetectorConfig] = None,
        replicas: int = 1,
        write_quorum: Optional[int] = None,
    ) -> None:
        self.clock = SimulatedClock()
        self.rng = SeededRng(seed)
        self.bridge = InterOrbBridge(clock=self.clock, rng=self.rng.fork("bridge"))
        if failure_detection:
            self.bridge.enable_failure_detection(
                detector_config
                if detector_config is not None
                else FailureDetectorConfig(
                    heartbeat_interval=0.5,
                    probe_interval=0.5,
                    # Link heartbeats ride on workload traffic only; an
                    # idle link going quiet between ops is not evidence
                    # of death.  Partitions surface as explicit
                    # delivery failures, which still latch DOWN.
                    phi_latches_down=False,
                )
            )
        if make_store is None:
            stores: Dict[str, MemoryStore] = {}

            def make_store(name: str) -> MemoryStore:
                return stores.setdefault(name, MemoryStore())

        self.make_store = make_store
        # With replicas > 1 every domain's WAL and cell store become
        # quorum-replicated over per-"disk" media that live here at
        # world level (so they survive domain crashes, like the
        # single-copy stores above).
        self.replica_media: Dict[str, Dict[str, List[ReplicaMedium]]] = {}
        if replicas > 1:
            for name in domain_names:
                self.replica_media[name] = {
                    kind: [
                        ReplicaMedium(f"{name}-{kind}-{i}", MemoryStore())
                        for i in range(replicas)
                    ]
                    for kind in ("wal", "cells")
                }
        # Cumulative across domain incarnations (the per-layer counters
        # reset whenever a crash rebuilds the replicated objects).
        self.replica_promotions = 0
        self.domains: Dict[str, ChaosDomain] = {}
        for name in domain_names:
            specs = {
                f"{name.lower()}{i}": opening_balance
                for i in range(accounts_per_domain)
            }
            self.domains[name] = ChaosDomain(
                name, self.bridge, self.clock, make_store, specs,
                replica_media=self.replica_media.get(name),
                write_quorum=write_quorum,
            )
        self._opening_total = opening_balance * accounts_per_domain * len(
            self.domains
        )

    # -- topology ----------------------------------------------------------

    def domain(self, name: str) -> ChaosDomain:
        return self.domains[name]

    def alive_domains(self) -> List[str]:
        return [name for name, d in self.domains.items() if d.alive]

    def link_plan(self, domain_a: str, domain_b: str):
        return self.bridge.link(domain_a, domain_b).transport.fault_plan

    def account_ref(self, via: str, target: str, key: str) -> ObjectRef:
        """A fresh ref to ``target``'s account, bound to ``via``'s ORB.

        Built per call: restarted domains re-activate their servants, so
        cached bound refs would go stale across crashes.
        """
        ref = self.domains[target].node.ref_for(f"acct:{key}")
        return ObjectRef(ref.node_id, ref.object_id, ref.interface).bind(
            self.domains[via].orb
        )

    # -- lifecycle ---------------------------------------------------------

    def crash(self, name: str) -> None:
        self.domains[name].crash()

    def restart(self, name: str) -> Optional[str]:
        return self.domains[name].restart()

    # -- replica-media faults ----------------------------------------------

    def replica_loss(self, name: str, index: int) -> Optional[str]:
        """Replica ``index`` of ``name``'s media stops answering.

        When the dying disk currently roots the domain's WAL, the
        failover runbook runs first: promote a healthy follower, so the
        in-memory log never writes through a dead primary (a follower
        failure is retried and latched; a primary failure would poison
        the log's volatile bookkeeping).  Returns ``None`` when the loss
        had to be skipped because no safe promotion exists, ``"promoted"``
        when failover ran, ``""`` otherwise.
        """
        media = self.replica_media.get(name)
        if media is None:
            return None
        domain = self.domains[name]
        promoted = ""
        if domain.alive and index == domain.wal.primary_index:
            try:
                domain.wal.promote()
            except ReproError:
                return None
            self.replica_promotions += 1
            promoted = "promoted"
        for kind_media in media.values():
            kind_media[index].fail()
        return promoted

    def replica_heal(self, name: str, index: int) -> None:
        media = self.replica_media.get(name)
        if media is None:
            return
        for kind_media in media.values():
            kind_media[index].heal()
        # Re-admit the healed disk now (a site daemon's housekeeping
        # round would within one pass), so an idle log does not keep it
        # latched DOWN until the next write happens by.
        domain = self.domains[name]
        if domain.alive:
            domain.attempt(domain.replication_catch_up)

    def disk_wipe(self, name: str, index: int) -> bool:
        """Replica ``index``'s disks are replaced with empty ones; the
        live replication layers are told so they re-seed (or promote,
        when the wiped disk held a primary) instead of trusting them.
        Returns True when the wipe hit a primary and failover ran."""
        media = self.replica_media.get(name)
        if media is None:
            return False
        for kind_media in media.values():
            kind_media[index].wipe()
        domain = self.domains[name]
        if not domain.alive:
            return False
        before = domain.wal.promotions + domain.cell_store.promotions
        domain.wal.note_wiped(index)
        domain.cell_store.note_wiped(index)
        promoted = (domain.wal.promotions + domain.cell_store.promotions) > before
        if promoted:
            self.replica_promotions += 1
        return promoted

    # -- committed views (for invariants) ----------------------------------

    def expected_total(self) -> float:
        return self._opening_total

    def committed_balances(self) -> Dict[str, float]:
        return {
            f"{name}:{key}": account.committed_balance
            for name, domain in sorted(self.domains.items())
            for key, account in sorted(domain.accounts.items())
        }

    def total_committed(self) -> float:
        return sum(self.committed_balances().values())

    def applied_operations(self) -> Dict[str, List[str]]:
        return {
            f"{name}:{key}": account.applied_ops
            for name, domain in sorted(self.domains.items())
            for key, account in sorted(domain.accounts.items())
        }

    # -- quiescence --------------------------------------------------------

    def heal_everything(self) -> None:
        """Remove every injected fault: partitions, drops, latency,
        failed replica media (wiped disks stay empty until re-seeded)."""
        self.bridge.heal_all()
        for link in self.bridge.links():
            plan = link.transport.fault_plan
            plan.drop_probability = 0.0
            plan.duplicate_probability = 0.0
            plan.latency = 0.0
            plan.jitter = 0.0
            plan.heal_all()
        for kinds in self.replica_media.values():
            for kind_media in kinds.values():
                for medium in kind_media:
                    medium.heal()

    def is_quiet(self) -> bool:
        for domain in self.domains.values():
            if not domain.alive or not domain.recovered:
                return False
            if domain.factory.active_transactions():
                return False
            if domain.service.in_doubt_ages():
                return False
        return True

    def quiesce(self, max_rounds: int = 12) -> bool:
        """Heal faults, restart the dead, drive recovery to a fixpoint.

        Each round advances the simulated clock (so failure-detector
        half-open probes and timeouts fire) and runs every domain's
        housekeeping round: replication catch-up, any recovery still
        pending, timeouts, stranded completions, the orphan sweep and
        in-doubt resolution.  Returns True when the world reached a
        quiet state within the budget.
        """
        self.heal_everything()
        for name, domain in self.domains.items():
            if domain.alive:
                domain.factory.failpoints.clear()
            else:
                self.restart(name)
        for _ in range(max_rounds):
            self.clock.advance(1.0)
            for domain in self.domains.values():
                domain.housekeeping_round(orphan_min_age=0.5)
            if self.is_quiet():
                return True
        return self.is_quiet()

    def describe(self) -> Dict[str, Any]:
        return {
            "domains": {
                name: {
                    "alive": domain.alive,
                    "crash_count": domain.crash_count,
                    "recovery_error": domain.recovery_error,
                    "accounts": {
                        key: account.committed_balance
                        for key, account in domain.accounts.items()
                    },
                    **(
                        {
                            "replication": {
                                "wal": domain.wal.health(),
                                "cells": domain.cell_store.health(),
                            }
                        }
                        if domain.replica_media is not None and domain.alive
                        else {}
                    ),
                }
                for name, domain in self.domains.items()
            },
            "link_states": self.bridge.link_states(),
            "total": self.total_committed(),
            "expected_total": self.expected_total(),
            "replica_promotions": self.replica_promotions,
        }
