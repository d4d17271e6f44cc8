"""The chaos campaign engine: clean sweeps, determinism, honest judges.

Three layers of assurance:

- a 50-seed campaign sweep completes with zero invariant violations —
  the acceptance bar for the chaos-hardened runtime;
- seed replay is exact: the same seed reproduces the same fault
  schedule, op stream, trace and verdict, which is what makes a chaos
  finding debuggable at all;
- **mutation tests**: each invariant checker is shown deliberately
  broken state and must cry foul.  A checker suite that passes clean
  runs proves nothing unless it also fails corrupt ones.

Plus a focused regression for the framework hole the campaign found:
a crash-surviving in-doubt intention record must block conflicting
access (strict 2PL from the durable record) until its outcome arrives.
"""

import pytest

from repro.chaos import (
    CampaignConfig,
    ChaosProfile,
    ChaosSchedule,
    ChaosWorld,
    ConservationChecker,
    OrphanChecker,
    OutcomeChecker,
    WalReplayChecker,
    WorkloadRunner,
    run_campaign,
    run_sweep,
)
from repro.chaos.workload import OpResult
from repro.ots import TransactionFactory, TransactionalCell
from repro.ots.factory import FactoryConfig
from repro.ots.locks import LockConflict
from repro.ots.status import Vote
from repro.persistence import MemoryStore, WriteAheadLog
from repro.util.clock import SimulatedClock
from repro.util.rng import SeededRng

SWEEP_SEEDS = range(50)


class TestCampaignSweep:
    def test_fifty_seed_sweep_has_zero_violations(self):
        """The acceptance criterion: 50 seeds of mixed workloads under
        partitions, crashes, duplicated deliveries, latency spikes and
        clock jumps — and every invariant holds after quiescence."""
        results = run_sweep(SWEEP_SEEDS)
        failing = [r.summary() for r in results if not r.passed]
        assert not failing, f"failing seeds: {failing}"

    def test_campaigns_actually_inject_faults(self):
        """A sweep that never crashes anything proves nothing."""
        results = run_sweep(SWEEP_SEEDS)
        crashes = sum(
            d["crash_count"]
            for r in results
            for d in r.world_state["domains"].values()
        )
        outcomes = {}
        for r in results:
            for outcome, count in r.outcome_counts().items():
                outcomes[outcome] = outcomes.get(outcome, 0) + count
        assert crashes > 10
        assert outcomes.get("committed", 0) > 100
        assert outcomes.get("aborted", 0) > 10
        # Some clients must have lost contact at commit time; recovery
        # resolving those is the whole point of the campaign.
        assert outcomes.get("unknown", 0) > 5


class TestDeterminism:
    def test_same_seed_same_trace_same_verdict(self):
        first = run_campaign(7)
        second = run_campaign(7)
        assert first.trace == second.trace
        assert first.summary() == second.summary()
        assert [op.describe() for op in first.ops] == [
            op.describe() for op in second.ops
        ]

    def test_different_seeds_diverge(self):
        assert run_campaign(1).trace != run_campaign(2).trace

    def test_schedule_is_a_pure_function_of_the_seed(self):
        profile = ChaosProfile()
        one = ChaosSchedule.draw(SeededRng(5).fork("schedule"), 40, ("A", "B"), profile)
        two = ChaosSchedule.draw(SeededRng(5).fork("schedule"), 40, ("A", "B"), profile)
        assert one.describe() == two.describe()


class TestPartitionConvergence:
    def test_partitioned_then_healed_world_converges(self):
        """Acceptance criterion: ops attempted across a partition leave
        in-doubt debris; healing plus quiescence must converge it."""
        world = ChaosWorld(seed=99)
        runner = WorkloadRunner(world, SeededRng(99).fork("workload"))
        world.bridge.partition("A", "B")
        for step in range(12):
            runner.run_op(step)
            world.clock.advance(0.05)
        world.bridge.heal("A", "B")
        assert world.quiesce()
        assert world.total_committed() == world.expected_total()
        violations = []
        for checker in (ConservationChecker(), OutcomeChecker(), OrphanChecker()):
            violations.extend(checker.check(world, runner.ledger))
        assert not violations, [str(v) for v in violations]


def quiet_world_with_ledger(seed=3, committed_ops=2):
    """A small world driven to a known-clean quiesced state."""
    world = ChaosWorld(seed=seed)
    ledger = []
    for index in range(committed_ops):
        op_id = f"op{index:04d}"
        domain = world.domain("A")
        domain.current.begin()
        domain.accounts["a0"].withdraw(op_id, 5.0)
        world.account_ref("A", "B", "b0").invoke("deposit", op_id, 5.0)
        domain.current.commit()
        ledger.append(
            OpResult(
                op_id, "transfer_remote", "committed",
                source="A", debit="A:a0", credit="B:b0", amount=5.0,
            )
        )
    assert world.quiesce()
    return world, ledger


class TestCheckerMutations:
    """Each checker must catch the corruption it exists to catch."""

    def test_clean_world_passes_every_checker(self):
        world, ledger = quiet_world_with_ledger()
        for checker in (
            ConservationChecker(), OutcomeChecker(),
            OrphanChecker(), WalReplayChecker(),
        ):
            assert checker.check(world, ledger) == []

    def test_conservation_checker_catches_minted_money(self):
        world, ledger = quiet_world_with_ledger()
        account = world.domain("B").accounts["b0"]
        balance, ops = account.cell.committed_value
        # Corrupt both memory and store so only conservation trips.
        forged = [balance + 13.0, list(ops)]
        account.cell._committed = forged
        account.cell.store.put(account.cell._state_key(), [account.cell._version, forged])
        violations = ConservationChecker().check(world, ledger)
        assert len(violations) == 1
        assert violations[0].checker == "conservation"
        assert violations[0].details["actual"] == pytest.approx(413.0)

    def test_outcome_checker_catches_a_forged_commit(self):
        world, ledger = quiet_world_with_ledger()
        ledger.append(
            OpResult(
                "opFAKE", "transfer_remote", "committed",
                source="A", debit="A:a1", credit="B:b1", amount=9.0,
            )
        )
        violations = OutcomeChecker().check(world, ledger)
        assert [v.message for v in violations] == [
            "committed transfer not applied on both sides"
        ]

    def test_outcome_checker_catches_a_half_applied_commit(self):
        world, ledger = quiet_world_with_ledger(committed_ops=1)
        # Strip the credit side's op record: the commit became one-sided.
        account = world.domain("B").accounts["b0"]
        balance, ops = account.cell.committed_value
        broken = [balance, [op for op in ops if op != "op0000"]]
        account.cell._committed = broken
        account.cell.store.put(account.cell._state_key(), [account.cell._version, broken])
        violations = OutcomeChecker().check(world, ledger)
        assert any(
            v.message == "committed transfer not applied on both sides"
            for v in violations
        )

    def test_outcome_checker_catches_duplicate_application(self):
        world, ledger = quiet_world_with_ledger(committed_ops=1)
        account = world.domain("A").accounts["a0"]
        balance, ops = account.cell.committed_value
        doubled = [balance, list(ops) + ["op0000"]]
        account.cell._committed = doubled
        account.cell.store.put(account.cell._state_key(), [account.cell._version, doubled])
        violations = OutcomeChecker().check(world, ledger)
        assert any(
            v.message == "operation applied more than once" for v in violations
        )

    def test_outcome_checker_catches_effects_of_an_aborted_op(self):
        world, ledger = quiet_world_with_ledger(committed_ops=1)
        ledger[0].outcome = "aborted"  # the driver said it rolled back
        violations = OutcomeChecker().check(world, ledger)
        assert any(
            v.message == "aborted transfer left effects behind"
            for v in violations
        )

    def test_orphan_checker_catches_a_leftover_transaction(self):
        world, ledger = quiet_world_with_ledger()
        domain = world.domain("A")
        domain.current.begin()
        domain.accounts["a0"].withdraw("opSTUCK", 1.0)
        domain.current.suspend()  # leave it live but unowned
        violations = OrphanChecker().check(world, ledger)
        assert any(
            v.message == "factory still holds active transactions"
            for v in violations
        )

    def test_orphan_checker_catches_a_stale_intention_record(self):
        world, ledger = quiet_world_with_ledger()
        domain = world.domain("A")
        cell = domain.accounts["a0"].cell
        # A durable intention nothing will ever resolve: a prepared
        # subordinate that names no superior.
        domain.wal.append(
            "subtx_prepared",
            root="ghost:tx-1",
            tid="ghost:tx-1",
            recovery_keys=[cell.key],
            intentions={cell.key: [cell._version + 1, [0.0, []]]},
        )
        world.crash("A")
        world.restart("A")  # the rebuilt cell learns it from the log
        violations = OrphanChecker().check(world, ledger)
        assert any(
            v.message == "cell holds undecided intention records"
            for v in violations
        )

    def test_wal_replay_checker_catches_divergent_durable_state(self):
        world, ledger = quiet_world_with_ledger()
        account = world.domain("B").accounts["b0"]
        balance, ops = account.cell.committed_value
        # Memory and store now disagree; a crash + replay must expose it.
        account.cell._committed = [balance + 1.0, list(ops)]
        violations = WalReplayChecker().check(world, ledger)
        assert len(violations) == 1
        assert violations[0].checker == "wal_replay"


class TestInDoubtBlocking:
    """The seed-234 regression: a durable intention survives the crash
    and must keep blocking conflicting access in the next incarnation.
    The intention is durable in a subordinate's forced ``subtx_prepared``
    on the log both incarnations share."""

    def build_cell(self, wal_store, store, boot=1, initial=100.0):
        # Distinct tid prefixes per incarnation, as any real deployment
        # has (a restarted factory restarts its counter; colliding tids
        # would alias durable records across boots).
        factory = TransactionFactory(
            clock=SimulatedClock(),
            wal=WriteAheadLog(wal_store),
            config=FactoryConfig(tid_prefix=f"b{boot}:"),
        )
        cell = TransactionalCell("acct", initial, factory, store=store)
        return factory, cell

    def prepare_durably(self, factory, cell):
        """Phase one of a subordinate, logged as its service logs it."""
        tx = factory.create()
        cell.write(tx, 60.0)
        assert tx.prepare_interposed() is Vote.COMMIT  # intention staged
        factory.wal.append(
            "subtx_prepared",
            root=f"root-of-{tx.tid}",
            tid=tx.tid,
            recovery_keys=[cell.key],
            intentions=tx.intentions(),
        )
        return tx

    def test_intention_record_blocks_across_restart(self):
        wal_store, store = MemoryStore(), MemoryStore()
        factory, cell = self.build_cell(wal_store, store)
        self.prepare_durably(factory, cell)
        assert store.keys() == ()  # nothing but the log holds it

        # "Crash": a fresh cell on the surviving media, no lock manager
        # memory.  The intention is neither old nor new state, so both
        # lock modes must conflict.
        factory2, cell2 = self.build_cell(wal_store, store, boot=2)
        other = factory2.create()
        with pytest.raises(LockConflict):
            cell2.read(other)
        with pytest.raises(LockConflict):
            cell2.write(other, 0.0)
        # Dirty triage reads (no transaction) stay allowed.
        assert cell2.read() == 100.0

    def test_resolution_unblocks_the_cell(self):
        wal_store, store = MemoryStore(), MemoryStore()
        factory, cell = self.build_cell(wal_store, store)
        tx = self.prepare_durably(factory, cell)

        factory2, cell2 = self.build_cell(wal_store, store, boot=2)
        assert cell2.recover_commit(tx.tid) is True
        other = factory2.create()
        assert cell2.read(other) == 60.0  # decided: access flows again
        assert cell2.list_in_doubt() == []

    def test_presumed_abort_unblocks_the_cell(self):
        wal_store, store = MemoryStore(), MemoryStore()
        factory, cell = self.build_cell(wal_store, store)
        tx = self.prepare_durably(factory, cell)

        factory2, cell2 = self.build_cell(wal_store, store, boot=2)
        assert cell2.recover_abort(tx.tid) is True
        other = factory2.create()
        assert cell2.read(other) == 100.0
        assert cell2.list_in_doubt() == []

    def test_own_transaction_is_not_blocked(self):
        wal_store, store = MemoryStore(), MemoryStore()
        factory, cell = self.build_cell(wal_store, store)
        tx = self.prepare_durably(factory, cell)
        assert cell.read(tx) == 60.0  # its own intention never conflicts


class TestCampaignResultShape:
    def test_failing_seed_reports_are_replayable(self):
        result = run_campaign(0, CampaignConfig(steps=10))
        summary = result.summary()
        assert summary["seed"] == 0
        assert summary["ops"] == 10
        assert len(result.trace) >= 11  # 10 op lines + quiesce line
        assert result.trace[-1].startswith("[quiesce]")
