"""Replicated chaos campaigns: durability survives losing disks.

The acceptance story for the replication layer, told the same way as
``test_chaos_campaign``:

- a 50-seed sweep where every domain runs quorum-replicated WAL and
  cell stores *and* the schedule actively attacks the redundancy
  (replica loss, disk wipes — including wiping the current primary's
  disk live, which must fail over to a follower) completes with zero
  invariant violations;
- seed replay stays exact, and schedules drawn with the default
  profile contain no replica events at all — the new fault families
  default off, so every pre-replication seed replays byte-identical;
- the :class:`ReplicationChecker` is shown deliberately broken worlds
  (followers secretly emptied, quorum knocked out) and must cry foul;
- focused regressions for the two framework holes the sweep found
  (seed 15): an idle in-sync replica latched DOWN could never be
  readmitted, wedging re-sync for its peers; and a completion sweep
  interrupted by a store-layer failure stranded its transaction in
  ROLLING_BACK forever.
"""

import pytest

from repro.chaos import (
    CampaignConfig,
    ChaosProfile,
    ChaosSchedule,
    ChaosWorld,
    ReplicationChecker,
    WorkloadRunner,
    run_campaign,
    run_sweep,
)
from repro.ots import TransactionFactory, TransactionalCell
from repro.ots.status import TransactionStatus, Vote
from repro.persistence import MemoryStore, ReplicaMedium, ReplicatedStore
from repro.persistence.replicated import ReplicationError
from repro.util.clock import SimulatedClock
from repro.util.rng import SeededRng

SWEEP_SEEDS = range(50)

#: The replication-attack profile: frequent replica loss windows plus
#: occasional disk wipes, layered on top of the stock crash/partition/
#: flaky-link families.
REPLICA_PROFILE = ChaosProfile(
    replica_loss_probability=0.10,
    disk_wipe_probability=0.06,
)


def replicated_config(**overrides) -> CampaignConfig:
    return CampaignConfig(
        profile=REPLICA_PROFILE, replicas=3, write_quorum=2, **overrides
    )


@pytest.fixture(scope="module")
def sweep_results():
    return run_sweep(SWEEP_SEEDS, replicated_config())


class TestReplicatedSweep:
    def test_fifty_seed_sweep_has_zero_violations(self, sweep_results):
        """The acceptance criterion: every domain on 3-way quorum
        storage, the schedule killing and wiping replica disks, and
        every invariant — including no-acked-write-lost — holds."""
        failing = [r.summary() for r in sweep_results if not r.passed]
        assert not failing, f"failing seeds: {failing}"

    def test_replica_faults_actually_injected(self, sweep_results):
        """A sweep that never loses a disk proves nothing."""
        losses = sum(
            1
            for r in sweep_results
            for line in r.trace
            if "replica_loss" in line and "skipped" not in line
        )
        wipes = sum(
            1
            for r in sweep_results
            for line in r.trace
            if "disk_wipe" in line and "skipped" not in line
        )
        assert losses > 50
        assert wipes > 20

    def test_primary_disk_wipe_recovers_via_promotion(self, sweep_results):
        """At least some seeds must wipe the disk the WAL currently
        calls primary while the domain is up — recovery then runs
        entirely from follower state via the election path."""
        wiped_primary = [
            r.seed
            for r in sweep_results
            if any(
                "primary wiped; promoted a follower" in line
                for line in r.trace
            )
        ]
        assert len(wiped_primary) >= 1, "no seed exercised primary wipe"
        failed_over = [
            r.seed
            for r in sweep_results
            if any("primary failed over" in line for line in r.trace)
        ]
        assert len(failed_over) >= 1, "no seed exercised primary loss"

    def test_promotions_surface_in_world_state(self, sweep_results):
        total = sum(
            r.world_state.get("replica_promotions", 0) for r in sweep_results
        )
        assert total > 10

    def test_replication_health_reported_per_domain(self, sweep_results):
        for r in sweep_results:
            for state in r.world_state["domains"].values():
                health = state["replication"]
                for layer in ("wal", "cells"):
                    assert health[layer]["quorum_ok"] is True
                    assert health[layer]["under_replicated"] is False


class TestDeterminism:
    def test_same_seed_same_trace_same_verdict(self):
        first = run_campaign(15, replicated_config())
        second = run_campaign(15, replicated_config())
        assert first.trace == second.trace
        assert first.summary() == second.summary()

    def test_default_profile_draws_no_replica_events(self):
        """The new fault families default off: schedules for every
        pre-replication seed stay byte-identical, so historical seed
        numbers keep replaying the same campaigns."""
        for seed in range(10):
            schedule = ChaosSchedule.draw(
                SeededRng(seed).fork("schedule"), 40, ("A", "B"), ChaosProfile()
            )
            kinds = {event.kind for event in schedule.events}
            assert not kinds & {"replica_loss", "replica_heal", "disk_wipe"}

    def test_replica_profile_is_a_pure_function_of_the_seed(self):
        one = ChaosSchedule.draw(
            SeededRng(5).fork("schedule"), 40, ("A", "B"), REPLICA_PROFILE
        )
        two = ChaosSchedule.draw(
            SeededRng(5).fork("schedule"), 40, ("A", "B"), REPLICA_PROFILE
        )
        assert one.describe() == two.describe()

    def test_one_replica_arc_open_per_domain(self):
        """Overlapping loss arcs on one domain could take out two of
        three disks at once and void the quorum-survives precondition;
        the schedule must never draw them.  A loss arc spans loss→heal;
        a disk wipe is a point arc (its re-seed is synchronous)."""
        for seed in range(20):
            schedule = ChaosSchedule.draw(
                SeededRng(seed).fork("schedule"),
                40,
                ("A", "B"),
                REPLICA_PROFILE,
            )
            arcs = {"A": [], "B": []}
            heals = {"A": [], "B": []}
            for event in schedule.events:
                if event.kind == "replica_heal":
                    heals[event.target[0]].append(event.step)
            for event in schedule.events:
                if event.kind == "replica_loss":
                    domain = event.target[0]
                    heal = min(s for s in heals[domain] if s > event.step)
                    arcs[domain].append((event.step, heal))
                elif event.kind == "disk_wipe":
                    arcs[event.target[0]].append((event.step, event.step))
            for domain, spans in arcs.items():
                spans.sort()
                for (_, prev_end), (start, _) in zip(spans, spans[1:]):
                    assert start > prev_end, (
                        f"seed {seed}: overlapping replica arcs on {domain}"
                    )


def quiet_replicated_world(seed: int = 11):
    """A replicated world after a fault-free workload and quiescence."""
    world = ChaosWorld(seed=seed, replicas=3, write_quorum=2)
    runner = WorkloadRunner(world, SeededRng(seed).fork("workload"))
    for step in range(12):
        runner.run_op(step)
        world.clock.advance(0.05)
    assert world.quiesce()
    return world, list(runner.ledger)


class TestReplicationCheckerMutations:
    def test_clean_replicated_world_passes(self):
        world, ledger = quiet_replicated_world()
        assert ReplicationChecker().check(world, ledger) == []

    def test_unreplicated_worlds_are_ignored(self):
        world = ChaosWorld(seed=3)
        runner = WorkloadRunner(world, SeededRng(3).fork("workload"))
        for step in range(6):
            runner.run_op(step)
        world.quiesce()
        assert ReplicationChecker().check(world, list(runner.ledger)) == []

    def test_checker_catches_secretly_emptied_followers(self):
        """Empty every follower disk behind the replication layer's
        back; the checker's primary-wipe drill then has nothing left to
        recover from and must report the loss."""
        world, ledger = quiet_replicated_world()
        domain = world.domain("A")
        cell_primary = domain.cell_store.primary_index
        wal_primary = domain.wal.primary_index
        for index in range(3):
            if index != cell_primary:
                world.replica_media["A"]["cells"][index].wipe()
            if index != wal_primary:
                world.replica_media["A"]["wal"][index].wipe()
        violations = ReplicationChecker().check(world, ledger)
        assert violations
        assert all(v.checker == "replication" for v in violations)

    def test_checker_catches_a_degraded_quorum(self):
        world, ledger = quiet_replicated_world()
        domain = world.domain("A")
        primary = domain.cell_store.primary_index
        for index in range(3):
            if index != primary:
                world.replica_media["A"]["cells"][index].fail()
        with pytest.raises(ReplicationError):
            domain.cell_store.put("poke", 1)  # strikes the dead majority
        violations = ReplicationChecker().check(world, ledger)
        assert any("quorum lost" in v.message for v in violations)


def three_way_store(clock=None):
    media = [ReplicaMedium(f"m{i}", MemoryStore()) for i in range(3)]
    store = ReplicatedStore(
        media, write_quorum=2, clock=clock or SimulatedClock()
    )
    return media, store


class TestIdleInSyncReadmission:
    """Seed-15 regression, part one: an in-sync replica latched DOWN
    while idle must be readmitted by the maintenance sweep — it is the
    only possible re-sync source for its lagging peers."""

    def test_catch_up_readmits_an_idle_in_sync_replica(self):
        clock = SimulatedClock()
        media, store = three_way_store(clock)
        store.put("k", 1)
        media[0].fail()
        store.put("k", 2)  # acked by 1 and 2; replica 0 struck DOWN
        assert store.health()["replicas"]["m0"]["state"] == "down"
        media[0].heal()
        clock.advance(1.5)  # probe budget refills
        store.catch_up()
        health = store.health()
        assert health["replicas"]["m0"]["state"] != "down"
        assert health["under_replicated"] is False

    def test_down_in_sync_replica_can_source_peer_resyncs(self):
        """The full wedge: the only in-sync replica is DOWN and both
        peers need a full re-sync.  One maintenance sweep must readmit
        the source and then drain the peers from it."""
        clock = SimulatedClock()
        media, store = three_way_store(clock)
        store.put("k", 1)
        media[0].fail()
        store.put("k", 2)  # replica 0: in-sync but DOWN
        media[0].heal()
        media[1].wipe()
        store.note_wiped(1)
        media[2].wipe()
        store.note_wiped(2)
        clock.advance(1.5)
        store.catch_up()
        health = store.health()
        assert health["under_replicated"] is False
        assert all(
            entry["state"] != "down" and not entry["resync_required"]
            for entry in health["replicas"].values()
        )
        assert store.get("k") == 2


class UndoRecorder:
    """A participant whose rollback makes a durable write (an undo
    record) through the transaction's sweep."""

    def __init__(self, factory, store, tid):
        self.factory, self.store, self.tid = factory, store, tid

    def prepare(self):
        return Vote.COMMIT

    def commit(self):
        pass

    def rollback(self):
        self.factory.stage_write(self.tid, self.store, {f"undo:{self.tid}": True})


class TestInterruptedCompletionRedrive:
    """Seed-15 regression, part two: a rollback (or phase two) sweep
    interrupted by a store-layer failure must be re-drivable once the
    media heal, instead of stranding the transaction forever."""

    def build(self):
        clock = SimulatedClock()
        media, store = three_way_store(clock)
        factory = TransactionFactory(clock=clock)
        cell = TransactionalCell("acct", 100.0, factory, store=store)
        return clock, media, store, factory, cell

    def wedge_rollback(self, media, factory, cell):
        tx = factory.create()
        cell.write(tx, 60.0)  # a cell's rollback writes nothing durable
        tx.register_resource(UndoRecorder(factory, cell.store, tx.tid))
        for medium in media:
            medium.fail()
        with pytest.raises(ReplicationError):
            tx.rollback()
        assert tx.status is TransactionStatus.ROLLING_BACK
        assert tx in factory.active_transactions()
        return tx

    def test_redrive_finishes_an_interrupted_rollback(self):
        clock, media, store, factory, cell = self.build()
        tx = self.wedge_rollback(media, factory, cell)
        for medium in media:
            medium.heal()
        clock.advance(1.5)
        store.catch_up()
        assert factory.redrive_stuck() == [tx.tid]
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert factory.active_transactions() == []
        assert cell.read() == 100.0

    def test_redrive_is_safe_while_the_store_is_still_down(self):
        clock, media, store, factory, cell = self.build()
        tx = self.wedge_rollback(media, factory, cell)
        assert factory.redrive_stuck() == []  # still below quorum: retried later
        assert tx.status is TransactionStatus.ROLLING_BACK
        for medium in media:
            medium.heal()
        clock.advance(1.5)
        store.catch_up()
        assert factory.redrive_stuck() == [tx.tid]

    def test_phase_two_flush_below_quorum_strands_then_redrives(self):
        """Phase two's one store write fails (the media die after the
        last participant was called, before the sweep's flush): nothing
        is acknowledged — no resource completed, no completion record —
        and the redrive lands the same batch once the media heal."""
        clock, media, store, factory, cell = self.build()
        other = TransactionalCell("other", 1.0, factory, store=store)

        class MediaKiller:
            def prepare(self):
                return Vote.COMMIT

            def commit(self):
                for medium in media[1:]:
                    medium.fail()

            def rollback(self):
                pass

        tx = factory.create()
        cell.write(tx, 60.0)
        other.write(tx, 41.0)
        killer = tx.register_resource(MediaKiller())
        with pytest.raises(ReplicationError):
            tx.commit()
        assert tx.status is TransactionStatus.COMMITTING
        assert [r.completed for r in tx.resources] == [False, False, True]
        assert killer.completed
        factory.wal.force()
        (decision,) = factory.wal.records()
        assert decision.kind == "tx_commit_decision"
        assert not store.contains("cell:acct")  # the failed write was rolled back out
        # The intentions live in the log, not the store.
        assert decision.payload["intentions"] == {"acct": [1, 60.0], "other": [1, 41.0]}

        assert factory.redrive_stuck() == []  # still below quorum
        for medium in media:
            medium.heal()
        clock.advance(1.5)
        store.catch_up()
        assert factory.redrive_stuck() == [tx.tid]
        assert tx.status is TransactionStatus.COMMITTED
        assert all(r.completed for r in tx.resources)
        # Re-installed from the logged intentions, at their versions.
        assert (store.get("cell:acct"), store.get("cell:other")) == ([1, 60.0], [1, 41.0])
        assert store.keys() == ("cell:acct", "cell:other")
        factory.wal.force()
        assert [r.kind for r in factory.wal.records()] == [
            "tx_commit_decision",
            "tx_completed",
        ]

    def test_redrive_ignores_healthy_transactions(self):
        clock, media, store, factory, cell = self.build()
        tx = factory.create()
        cell.write(tx, 60.0)
        assert factory.redrive_stuck() == []
        assert tx.status is TransactionStatus.ACTIVE
        tx.commit()
        assert cell.read() == 60.0
