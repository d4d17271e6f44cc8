"""Cross-domain fault paths: partitions and heuristics across a bridge.

The satellite coverage the federation layer demands: a
``FaultPlan``-partitioned link during phase one, phase two and signal
broadcast; heuristic outcomes surfacing on the parent; and the
subordinate draining in-flight local sends before an outcome propagates
upward.
"""

import threading
import time

import pytest

from repro.core import RecordingAction, SubordinateCoordinator
from repro.core.broadcast import ThreadPoolBroadcastExecutor
from repro.core.signals import Outcome, Signal
from repro.models.twopc import SET_NAME as TWOPC_SET, TwoPhaseCommitSignalSet
from repro.ots import (
    HeuristicHazard,
    HeuristicMixed,
    HeuristicRollback,
    Vote,
)
from repro.ots.status import TransactionStatus

from tests.test_federation import FederatedWorld, OtsWorld


class TestPartitionDuringSignalBroadcast:
    def test_partitioned_subordinate_surfaces_unreachable_and_pivots(self):
        world = FederatedWorld(domains=2)
        activity = world.parent.begin(name="partitioned")
        signal_set = TwoPhaseCommitSignalSet()
        activity.register_signal_set(signal_set, completion=True)
        recorder = RecordingAction(
            "remote",
            reply=lambda s: Outcome.of(
                "vote_commit" if s.signal_name == "prepare" else "done"
            ),
        )
        activity.add_action(
            TWOPC_SET, world.activate_remote(1, recorder, "remote")
        )
        world.bridge.partition("d0", "d1")
        outcome = activity.complete()
        # Delivery retries exhausted -> unreachable -> the 2PC set
        # pivots to rollback; the parent observes the failure, the
        # partitioned action never saw a signal.
        assert outcome.name == "rolled_back"
        assert signal_set.votes == ["vote_rollback"]
        assert recorder.received == []

    def test_heal_mid_set_lets_phase_two_through(self):
        world = FederatedWorld(domains=2)
        activity = world.parent.begin(name="healed")
        signal_set = TwoPhaseCommitSignalSet()
        activity.register_signal_set(signal_set, completion=True)
        seen = []

        class HealingAction(RecordingAction):
            def process_signal(inner, signal):  # noqa: N805
                seen.append(signal.signal_name)
                if signal.signal_name == "prepare":
                    # Cut the link after replying: phase two must fail.
                    world.bridge.partition("d0", "d1")
                    return Outcome.of("vote_commit")
                return Outcome.of("done")

        # Partition trips *after* the subordinate's reply is composed;
        # severing the link between phases loses the commit signal.
        action = HealingAction("flappy")
        activity.add_action(TWOPC_SET, world.activate_remote(1, action, "p"))
        outcome = activity.complete()
        assert seen == ["prepare"]
        assert outcome.name == "committed"  # decision stands on the parent
        unreachable = [
            response
            for response in signal_set.phase_two_responses
            if response.name == "repro.activity.unreachable"
        ]
        assert len(unreachable) == 1  # the lost commit surfaced upward


class TestPartitionDuringPhaseOne:
    def test_unreachable_subordinate_vote_is_rollback(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        world.bank_ref.invoke("deposit", 10)
        world.bridge.partition("A", "B")
        # The subordinate is the last agent: its call is lost, so the
        # root cannot know the outcome and holds (never presumes).
        with pytest.raises(HeuristicHazard):
            world.current_a.commit()
        assert tx.status is TransactionStatus.COMMITTING
        assert world.cell_a.list_in_doubt() == [tx.tid]
        assert world.service_a.resolve_in_doubt() == {tx.tid: "held"}
        # The subordinate never saw the call; presumed abort applies to
        # its in-doubt state once its own domain polices it, and the
        # root learns that outcome from it.
        subordinate = world.service_b.subordinate_for(tx.tid)
        assert subordinate.get_status() is TransactionStatus.ACTIVE
        world.bridge.heal("A", "B")
        assert world.service_b.sweep_orphans(min_age=0.0) == [tx.tid]
        assert world.service_a.resolve_in_doubt() == {tx.tid: "aborted"}
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert world.cell_a.committed_value == 100
        assert world.cell_b.committed_value == 50


class TestPartitionDuringPhaseTwo:
    def test_hazard_surfaces_on_parent_and_completion_replays(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)

        class PartitionTrigger:
            """A B-local yes-voter; its commit makes the link drop
            everything, so the last agent's answer never reaches the
            root."""

            def prepare(self):
                return Vote.COMMIT

            def commit(self):
                link.drop_probability = 1.0

            def rollback(self):
                pass

            def forget(self):
                pass

        link = world.bridge.link("A", "B").transport.fault_plan
        world.bank_ref.invoke("deposit", 10)
        world.service_b.subordinate_for(tx.tid).transaction.register_resource(
            PartitionTrigger()
        )
        with pytest.raises(HeuristicHazard):
            world.current_a.commit()
        # The agent decided and committed; the root holds behind the
        # partition, its own cell still in doubt.
        assert tx.status is TransactionStatus.COMMITTING and tx.decided
        assert world.cell_a.committed_value == 100
        assert world.cell_b.committed_value == 60
        subordinate = world.service_b.subordinate_for(tx.tid)
        assert subordinate.get_status() is TransactionStatus.COMMITTED
        assert world.service_a.resolve_in_doubt() == {tx.tid: "held"}

        # Resolution asks the agent's domain once the link heals (the
        # housekeeping round does this); a second round is a no-op.
        link.drop_probability = 0.0
        assert world.service_a.resolve_in_doubt() == {tx.tid: "committed"}
        assert tx.status is TransactionStatus.COMMITTED
        assert world.cell_a.committed_value == 90
        world.factory_a.wal.force()
        assert world.service_a.resolve_in_doubt() == {}
        assert world.cell_b.committed_value == 60

    def test_subordinate_local_heuristic_surfaces_on_parent(self):
        world = OtsWorld()

        class HeuristicB:
            """A B-local resource that heuristically rolled back."""

            def prepare(self):
                return Vote.COMMIT

            def commit(self):
                raise HeuristicRollback("unilaterally rolled back")

            def rollback(self):
                pass

            def forget(self):
                pass

        class Enlister:
            def __init__(self, current):
                self.current = current

            def enlist(self):
                self.current.get_transaction().register_resource(HeuristicB())
                return True

        from tests.test_federation import rebind

        enlist_ref = rebind(
            world.node_b.activate(Enlister(world.current_b), object_id="enl"),
            world.orb_a,
        )
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        world.bank_ref.invoke("deposit", 10)
        enlist_ref.invoke("enlist")
        with pytest.raises(HeuristicMixed):
            world.current_a.commit()
        # The subordinate digested its local heuristic, completed the
        # rest of its tree, and the parent recorded the outcome.
        assert tx.status is TransactionStatus.COMMITTED
        assert world.cell_a.committed_value == 90
        assert world.cell_b.committed_value == 60
        assert len(tx.heuristics) == 1


class TestSubordinateDrain:
    def test_in_flight_local_sends_drain_before_reply(self):
        executor = ThreadPoolBroadcastExecutor(max_workers=4)
        try:
            subordinate = SubordinateCoordinator(
                "act-1", "d1", executor=executor
            )
            finished = []
            lock = threading.Lock()

            def slow(tag, delay):
                def reply(signal):
                    time.sleep(delay)
                    with lock:
                        finished.append(tag)
                    return Outcome.done(tag)

                return reply

            def failing(signal):
                with lock:
                    finished.append("boom")
                raise RuntimeError("boom")

            subordinate.register("set", RecordingAction("s1", reply=slow("s1", 0.05)))
            subordinate.register("set", RecordingAction("bad", reply=failing))
            subordinate.register("set", RecordingAction("s2", reply=slow("s2", 0.05)))
            subordinate.register("set", RecordingAction("s3", reply=slow("s3", 0.02)))
            outcome = subordinate.process_signal(Signal("go", "set"))
            # The error outcome propagates upward only after every
            # in-flight local send completed — nothing still racing.
            assert outcome.is_error
            with lock:
                assert sorted(finished) == ["boom", "s1", "s2", "s3"]
        finally:
            executor.shutdown()


class _GatedResource:
    """A participant whose prepare blocks until released — pins the
    subordinate in PREPARING exactly when the sweep runs."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def prepare(self):
        self.entered.set()
        assert self.release.wait(5.0), "test never released the prepare gate"
        return Vote.COMMIT

    def commit(self):
        pass

    def rollback(self):
        pass

    def forget(self):
        pass


class TestOrphanSweepAndRetirement:
    def test_sweep_never_aborts_a_prepare_in_flight(self):
        """2PC atomicity under the sweep/prepare race: a subordinate
        mid-prepare may already have its COMMIT vote on the wire, so the
        sweep must leave it alone (regression: PREPARING was a sweep
        candidate and the rollback ran unsynchronized with prepare,
        aborting a participant the superior then committed)."""
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        world.bank_ref.invoke("deposit", 10)
        gate = _GatedResource()
        world.service_b.subordinate_for(tx.tid).transaction.register_resource(gate)
        errors = []

        def commit():
            try:
                tx.commit()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=commit)
        thread.start()
        try:
            assert gate.entered.wait(5.0)
            # Subordinate is mid-prepare; an aggressive sweep round must
            # not roll it back out from under the superior.
            assert world.service_b.sweep_orphans(min_age=0.0) == []
        finally:
            gate.release.set()
            thread.join(timeout=5.0)
        assert errors == []
        assert world.cell_a.committed_value == 90
        assert world.cell_b.committed_value == 60

    def test_prepared_subordinate_is_never_swept(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.bank_ref.invoke("deposit", 10)
        subordinate = world.service_b.subordinate_for(tx.tid)
        assert subordinate.prepare() is Vote.COMMIT
        assert world.service_b.sweep_orphans(min_age=0.0) == []
        assert subordinate.get_status() is TransactionStatus.PREPARED
        subordinate.commit()  # leave the world clean
        tx.rollback_only()

    def test_completed_subordinates_are_retired(self):
        """Terminal subordinates leave the bookkeeping maps (a site
        daemon adopts one per cross-domain root forever otherwise), and
        a straggler request for the retired tree still declines
        adoption via the tombstone."""
        world = OtsWorld()
        tx = world.current_a.begin()
        world.bank_ref.invoke("deposit", 10)
        context = world.service_a.context_for(tx)
        world.current_a.commit()
        assert world.service_b.subordinate_for(tx.tid) is not None
        assert world.service_b.retire_completed() == 1
        assert world.service_b.subordinate_for(tx.tid) is None
        assert world.service_b._adopted == {}
        assert world.service_b._adopted_at == {}
        assert world.service_b._prepared_at == {}
        assert world.service_b.in_doubt_ages() == {}
        assert world.service_b.adopt(context) is None
        assert world.service_b.adoptions == 1

    def test_swept_orphan_is_retired_and_not_readopted(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)  # a second participant: full 2PC
        world.bank_ref.invoke("deposit", 10)
        context = world.service_a.context_for(tx)
        # The superior goes quiet (rollback broadcast lost); the sweep
        # exercises the unprepared participant's presumed-abort right.
        assert world.service_b.sweep_orphans(min_age=0.0) == [tx.tid]
        assert world.service_b.subordinate_for(tx.tid) is None
        assert world.service_b._adopted_at == {}
        # A late request for the swept root declines adoption...
        assert world.service_b.adopt(context) is None
        # ...and the superior's own late completion finds the retired
        # agent gone; asked, the agent's domain answers rolled back, so
        # the superior aborts consistently.
        with pytest.raises(HeuristicHazard):
            world.current_a.commit()
        assert world.service_a.resolve_in_doubt() == {tx.tid: "aborted"}
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert world.cell_a.committed_value == 100
        assert world.cell_b.committed_value == 50
