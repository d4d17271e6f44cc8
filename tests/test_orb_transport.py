"""Unit tests for the transport: faults, partitions, latency, stats."""

import pytest

from repro.exceptions import CommunicationError
from repro.orb import FaultPlan, Orb
from repro.orb.core import Servant
from repro.util.rng import SeededRng

from tests.bridged import BridgedPair


class Echo(Servant):
    def __init__(self):
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value


@pytest.fixture
def orb():
    return Orb(rng=SeededRng(1))


@pytest.fixture
def setup(orb):
    node = orb.create_node("server")
    servant = Echo()
    ref = node.activate(servant)
    return orb, servant, ref


class TestFaultPlan:
    def test_default_plan_reliable(self, setup):
        orb, servant, ref = setup
        for i in range(50):
            assert ref.invoke("echo", i) == i
        assert orb.transport.stats.requests_dropped == 0

    def test_drops_raise_communication_error(self, setup):
        orb, servant, ref = setup
        orb.transport.set_fault_plan(FaultPlan(drop_probability=1.0))
        with pytest.raises(CommunicationError):
            ref.invoke("echo", 1)
        assert orb.transport.stats.requests_dropped == 1

    def test_reply_drop_after_execution(self, setup):
        """A dropped reply still executed the request: at-least-once."""
        orb, servant, ref = setup

        class ReplyDropRng(SeededRng):
            def __init__(self):
                super().__init__(0)
                self.calls = 0

            def chance(self, probability):
                if probability == 0.0:
                    return False
                self.calls += 1
                # First chance() call is the request-drop check, second
                # is the reply-drop check (the duplicate check has
                # probability 0 and never reaches here).
                return self.calls % 2 == 0

        orb.transport.rng = ReplyDropRng()
        orb.transport.set_fault_plan(FaultPlan(drop_probability=0.5))
        with pytest.raises(CommunicationError):
            ref.invoke("echo", 1)
        assert servant.calls == 1, "servant ran although the caller saw a loss"

    def test_duplicates_execute_servant_twice(self, setup):
        orb, servant, ref = setup
        orb.transport.set_fault_plan(FaultPlan(duplicate_probability=1.0))
        assert ref.invoke("echo", 7) == 7
        assert servant.calls == 2
        assert orb.transport.stats.duplicates_delivered == 1

    def test_partition_blocks_both_ways(self, setup):
        orb, servant, ref = setup
        plan = FaultPlan()
        plan.partition("client", "server")
        orb.transport.set_fault_plan(plan)
        with pytest.raises(CommunicationError, match="partition"):
            ref.invoke("echo", 1)
        plan.heal("client", "server")
        assert ref.invoke("echo", 1) == 1

    def test_heal_all(self):
        plan = FaultPlan()
        plan.partition("a", "b")
        plan.partition("b", "c")
        plan.heal_all()
        assert not plan.is_partitioned("a", "b")
        assert not plan.is_partitioned("b", "c")

    def test_reliable_resets_faults_keeps_latency(self, setup):
        orb, servant, ref = setup
        orb.transport.set_fault_plan(
            FaultPlan(drop_probability=1.0, latency=0.01)
        )
        orb.transport.reliable()
        assert ref.invoke("echo", 1) == 1
        assert orb.transport.fault_plan.latency == 0.01


class TestLatency:
    def test_fixed_latency_advances_clock(self, setup):
        orb, servant, ref = setup
        orb.transport.set_fault_plan(FaultPlan(latency=0.005))
        before = orb.clock.now()
        ref.invoke("echo", 1)
        # Two hops: request + reply.
        assert orb.clock.now() == pytest.approx(before + 0.01)

    def test_jitter_bounded(self, setup):
        orb, servant, ref = setup
        orb.transport.set_fault_plan(FaultPlan(latency=0.001, jitter=0.002))
        before = orb.clock.now()
        ref.invoke("echo", 1)
        elapsed = orb.clock.now() - before
        assert 0.002 <= elapsed <= 0.006

    def test_latency_total_accumulates(self, setup):
        orb, servant, ref = setup
        orb.transport.set_fault_plan(FaultPlan(latency=0.001))
        for _ in range(10):
            ref.invoke("echo", 1)
        assert orb.transport.stats.simulated_latency_total == pytest.approx(0.02)


class TestStats:
    def test_counts_requests_replies_bytes(self):
        pair = BridgedPair()
        ref = pair.activate("server", Echo())
        ref.invoke("echo", "payload")
        stats = pair.client.transport.stats
        assert stats.requests_sent == 1
        assert stats.replies_sent == 1
        assert stats.bytes_sent > 0

    def test_a_collocated_call_counts_messages_but_no_bytes(self, setup):
        orb, servant, ref = setup
        ref.invoke("echo", "payload")
        stats = orb.transport.stats
        assert (stats.requests_sent, stats.replies_sent, stats.bytes_sent) == (1, 1, 0)
        assert stats.marshal.snapshot()["bytes_encoded"] == 0

    def test_reset(self, setup):
        orb, servant, ref = setup
        ref.invoke("echo", 1)
        orb.transport.stats.reset()
        assert orb.transport.stats.requests_sent == 0
        assert orb.transport.stats.bytes_sent == 0

    def test_describe(self, setup):
        orb, _, __ = setup
        plan = FaultPlan(drop_probability=0.1)
        plan.partition("a", "b")
        orb.transport.set_fault_plan(plan)
        description = orb.transport.describe()
        assert description["drop_probability"] == 0.1
        assert description["partitions"] == [("a", "b")]


class TestDuplicateDispatchFailures:
    """A failing duplicate dispatch must not destroy the original reply.

    The runtime discards a duplicate's reply anyway, so a servant whose
    node died between the original and the re-delivered request (or any
    other duplicate-side failure) is invisible to the caller.
    """

    def test_duplicate_dispatch_failure_keeps_original_reply(self, orb):
        node = orb.create_node("server")

        class CrashAfterReply(Servant):
            def __init__(self):
                self.calls = 0

            def poke(self, value):
                self.calls += 1
                # Simulate the node dying right after handling the first
                # request: the re-delivered duplicate hits a dead node.
                self._node.crashed = True
                return value

        servant = CrashAfterReply()
        ref = node.activate(servant)
        orb.transport.set_fault_plan(FaultPlan(duplicate_probability=1.0))
        assert ref.invoke("poke", 41) == 41
        assert servant.calls == 1  # the duplicate never reached the servant
        assert orb.transport.stats.duplicates_delivered == 1
        assert orb.transport.stats.duplicate_dispatch_failures == 1

    def test_duplicate_dispatch_failure_counter_resets(self, orb):
        orb.transport.stats.duplicate_dispatch_failures = 3
        orb.transport.stats.reset()
        assert orb.transport.stats.duplicate_dispatch_failures == 0
