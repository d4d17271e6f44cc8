"""Integration: federated interposition trees surviving per-domain crashes.

The acceptance story for the federation layer: a subordinate domain
crashes between phase one and phase two, its whole process (ORB, factory,
registry, live transactions) is rebuilt from the domain's *own* durable
state — write-ahead log plus participant stores — and the superior's
completion replays downward through the re-adopted subordinate.
Parametrised over the stable-storage backend: the in-memory model and
the log-structured :class:`SegmentedFileStore` (real files reopened from
disk) must recover identically.  Each transaction also credits a third
domain C: with two remote subordinates the root runs two-phase commit (a
single one would be its last agent, covered in ``tests/test_last_agent.py``).
"""

import pytest

from repro.orb import InterOrbBridge, Orb
from repro.orb.federation import coordination_node_id
from repro.orb.reference import ObjectRef
from repro.ots import (
    RecoverableRegistry,
    SimulatedCrash,
    TransactionCurrent,
    TransactionFactory,
    TransactionalCell,
    install_federated_transaction_service,
)
from repro.ots.interposition import subordinate_recovery_key, subordinate_resource_id
from repro.ots.status import TransactionStatus
from repro.persistence import MemoryStore, SegmentedFileStore, WriteAheadLog
from repro.util.clock import SimulatedClock


class Bank:
    def __init__(self, cell, current):
        self.cell = cell
        self.current = current

    def deposit(self, amount):
        tx = self.current.get_transaction()
        assert tx is not None
        self.cell.write(tx, self.cell.read(tx) + amount)
        return self.cell.read(tx)


class Domain:
    """One transaction domain whose durable media outlive its process."""

    def __init__(self, name, bridge, clock, make_store):
        self.name = name
        self.bridge = bridge
        self.clock = clock
        self.make_store = make_store
        self.wal_store = make_store(f"{name}-wal")
        self.cell_store = make_store(f"{name}-cells")
        self._boot(reopen=False)

    def _boot(self, reopen):
        if reopen:
            # A restarted process reads its media back from disk; the
            # in-memory model keeps the same store instances (the
            # "medium" survives, the process state does not).
            self.wal_store = self.make_store(f"{self.name}-wal")
            self.cell_store = self.make_store(f"{self.name}-cells")
        self.orb = Orb(clock=self.clock)
        self.bridge.connect(self.orb, self.name)
        self.factory = TransactionFactory(
            clock=self.clock, wal=WriteAheadLog(self.wal_store, "wal")
        )
        self.current = TransactionCurrent(self.factory)
        self.registry = RecoverableRegistry()
        self.service = install_federated_transaction_service(
            self.orb, self.current, registry=self.registry
        )
        self.node = self.orb.create_node(f"{self.name}-apps")

    def cell(self, key, initial):
        return TransactionalCell(
            key, initial, self.factory, store=self.cell_store,
            registry=self.registry,
        )

    def crash_and_reopen(self):
        """The whole domain process dies and restarts from its media."""
        self.bridge.disconnect(self.name)
        self._boot(reopen=True)


@pytest.fixture(params=["memory", "segmented"])
def world(request, tmp_path):
    class World:
        def __init__(self, backend):
            self.clock = SimulatedClock()
            self.bridge = InterOrbBridge()
            if backend == "memory":
                stores = {}

                def make_store(name):
                    return stores.setdefault(name, MemoryStore())

            else:

                def make_store(name):
                    return SegmentedFileStore(tmp_path / name)

            self.a = Domain("A", self.bridge, self.clock, make_store)
            self.b = Domain("B", self.bridge, self.clock, make_store)
            self.c = Domain("C", self.bridge, self.clock, make_store)

        def bank_ref(self):
            if not self.b.node.has_object("bank"):
                self.b.node.activate(
                    Bank(self.cell_b, self.b.current), object_id="bank"
                )
            ref = self.b.node.ref_for("bank")
            return ObjectRef(ref.node_id, ref.object_id, ref.interface).bind(
                self.a.orb
            )

        def deposit(self, amount):
            """Credit B (the subordinate under test) and C."""
            if not self.c.node.has_object("bank"):
                self.c.node.activate(Bank(self.cell_c, self.c.current), object_id="bank")
            ref = self.c.node.ref_for("bank")
            ObjectRef(ref.node_id, ref.object_id, ref.interface).bind(self.a.orb).invoke(
                "deposit", amount
            )
            return self.bank_ref().invoke("deposit", amount)

    built = World(request.param)
    built.cell_a = built.a.cell("acct-a", 100)
    built.cell_b = built.b.cell("acct-b", 50)
    built.cell_c = built.c.cell("acct-c", 0)
    return built


class TestSubordinateDomainCrash:
    def run_to_decision(self, world):
        """Drive a cross-domain transaction to the logged commit decision
        (phase one complete everywhere, phase two not yet started)."""
        tx = world.a.current.begin()
        world.cell_a.write(tx, 90)
        world.deposit(10)
        world.a.factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            world.a.current.commit()
        return tx

    def test_completion_replays_downward_after_crash(self, world):
        tx = self.run_to_decision(world)
        # Domain B's process dies wholesale and restarts from its media.
        world.b.crash_and_reopen()
        cell_b = world.b.cell("acct-b", 50)
        assert cell_b.committed_value == 50  # decision not yet applied
        assert cell_b.list_in_doubt() != []

        report_b = world.b.service.recover()
        # Held, not presumed aborted: the outcome belongs to domain A.
        assert report_b.held != []
        assert report_b.presumed_aborted == {}
        assert cell_b.committed_value == 50

        # The superior's recovery pass rebuilds its subordinate proxies
        # from the logged decision and replays phase two across the
        # bridge into the re-adopted subordinate.
        report_a = world.a.service.recover()
        assert tx.tid in report_a.recommitted
        assert subordinate_recovery_key("B", tx.tid) in report_a.recommitted[tx.tid]
        assert world.cell_a.committed_value == 90
        assert cell_b.committed_value == 60

        # Replaying recovery again is a no-op on state.
        world.a.service.recover()
        assert cell_b.committed_value == 60

    def test_both_domains_crash_and_recover_turnkey(self, world):
        """Parent AND subordinate processes die after the decision; each
        restarted service's own recover() is enough — the parent rebuilds
        its subordinate proxy from the durable recovery key and replays
        completion downward without any re-registration from B."""
        tx = self.run_to_decision(world)
        tid = tx.tid
        world.b.crash_and_reopen()
        world.a.crash_and_reopen()
        cell_a = world.a.cell("acct-a", 100)
        cell_b = world.b.cell("acct-b", 50)

        report_b = world.b.service.recover()
        assert report_b.held != []
        report_a = world.a.service.recover()
        assert tid in report_a.recommitted
        assert subordinate_recovery_key("B", tid) in report_a.recommitted[tid]
        assert cell_a.committed_value == 90
        assert cell_b.committed_value == 60

    def test_undecided_subordinate_waits_for_superior_abort(self, world):
        tx = world.a.current.begin()
        world.cell_a.write(tx, 90)
        world.deposit(10)
        world.a.factory.failpoints.arm("before_commit_log")
        with pytest.raises(SimulatedCrash):
            world.a.current.commit()
        # B prepared durably; A crashed *before* the decision.
        world.b.crash_and_reopen()
        cell_b = world.b.cell("acct-b", 50)
        report_b = world.b.service.recover()
        assert report_b.held != []  # waiting on A, not presumed aborted
        assert cell_b.committed_value == 50

        # A's own recovery presumes abort for its local prepared state.
        world.a.crash_and_reopen()
        cell_a = world.a.cell("acct-a", 100)
        report_a = world.a.service.recover()
        assert tx.tid not in report_a.recommitted
        assert cell_a.committed_value == 100

        # The superior's presumed abort resolves the held subordinate.
        assert world.b.service.resolve_in_doubt() == {tx.tid: "aborted"}
        assert cell_b.committed_value == 50
        assert cell_b.list_in_doubt() == []

    def test_subordinate_survives_crash_before_prepare(self, world):
        tx = world.a.current.begin()
        world.cell_a.write(tx, 90)
        world.deposit(10)
        # B dies before any prepare: nothing durable belongs to the tx.
        world.b.crash_and_reopen()
        cell_b = world.b.cell("acct-b", 50)
        report_b = world.b.service.recover()
        assert report_b.held == []
        assert cell_b.committed_value == 50
        # The parent's commit now fails phase one (the subordinate
        # servant died with its domain) and rolls back cleanly.
        from repro.ots import TransactionRolledBack

        with pytest.raises(TransactionRolledBack):
            world.a.current.commit()
        assert world.cell_a.committed_value == 100
        assert tx.status is TransactionStatus.ROLLED_BACK


class TestLiveReplayWithoutCrash:
    def test_recover_commit_on_live_subordinate_is_idempotent(self, world):
        tx = world.a.current.begin()
        world.bank_ref().invoke("deposit", 25)
        world.a.current.commit()
        # What a superior's recovery replay sends to the subordinate.
        resource = ObjectRef(
            coordination_node_id("B"), subordinate_resource_id(tx.tid), "SubordinateResource"
        ).bind(world.a.orb)
        assert world.cell_b.committed_value == 75
        assert resource.invoke("recover_commit", tx.tid)
        assert world.cell_b.committed_value == 75
