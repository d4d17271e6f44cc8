"""Parallel rollback sweeps, saga executor seam, OTS marshal-once parity.

Satellites of the invocation fast path PR: rollback (`_rollback_resources`)
and saga compensation now ride the same fan-out seams phase one/two use —
the factory participant pool and the pluggable BroadcastExecutor — and
must leave *identical* state and traces to their serial counterparts.
"""

import threading

import pytest

from repro.config import FactoryConfig, OrbConfig
from repro.core import (
    ActivityManager,
    SerialBroadcastExecutor,
    ThreadPoolBroadcastExecutor,
)
from repro.models.saga import Saga
from repro.orb import Orb
from repro.orb.core import Servant
from repro.orb.marshal import MarshalError
from repro.ots import TransactionCurrent, TransactionFactory
from repro.ots.coordinator import _ParticipantRound
from repro.ots.exceptions import (
    HeuristicCommit,
    HeuristicHazard,
    HeuristicMixed,
    TransactionRolledBack,
)
from repro.ots.propagation import install_transaction_service
from repro.ots.status import TransactionStatus, Vote

from tests.bridged import BridgedPair


class SweepParticipant:
    """Two-phase participant with scriptable rollback behaviour."""

    def __init__(self, vote=Vote.COMMIT, rollback_error=None):
        self.vote = vote
        self.rollback_error = rollback_error
        self.calls = []
        self._lock = threading.Lock()

    def _record(self, operation):
        with self._lock:
            self.calls.append(operation)

    def prepare(self):
        self._record("prepare")
        return self.vote

    def commit(self):
        self._record("commit")

    def rollback(self):
        self._record("rollback")
        if self.rollback_error is not None:
            raise self.rollback_error

    def forget(self):
        self._record("forget")


def run_rollback(parallel, participants):
    factory = TransactionFactory(config=FactoryConfig(parallel_participants=parallel))
    tx = factory.create()
    for index, participant in enumerate(participants):
        tx.register_resource(participant, recovery_key=f"r{index}")
    tx.rollback()
    factory.shutdown_participant_pool()
    return tx


class TestParallelRollbackSweep:
    def scripted(self):
        return [
            SweepParticipant(),
            SweepParticipant(rollback_error=HeuristicCommit("kept its effects")),
            SweepParticipant(),
            SweepParticipant(rollback_error=HeuristicHazard("outcome unknown")),
            SweepParticipant(),
            SweepParticipant(),
        ]

    def test_serial_parity_of_state_and_heuristics(self):
        serial = self.scripted()
        parallel = self.scripted()
        tx_serial = run_rollback(1, serial)
        tx_parallel = run_rollback(4, parallel)
        assert tx_serial.status is TransactionStatus.ROLLED_BACK
        assert tx_parallel.status is tx_serial.status
        # Heuristics digest in registration order under both sweeps.
        assert [type(h) for h in tx_parallel.heuristics] == [
            type(h) for h in tx_serial.heuristics
        ]
        assert [p.calls for p in parallel] == [p.calls for p in serial]
        completed = [r.completed for r in tx_parallel.resources]
        assert completed == [r.completed for r in tx_serial.resources]

    def test_every_participant_rolled_back_despite_failures(self):
        participants = self.scripted()
        run_rollback(4, participants)
        assert all("rollback" in p.calls for p in participants)
        # Heuristic reporters were told to forget.
        assert participants[1].calls[-1] == "forget"
        assert participants[3].calls[-1] == "forget"

    def test_no_vote_abort_sweep_runs_parallel(self):
        participants = [SweepParticipant() for _ in range(4)]
        participants[3] = SweepParticipant(vote=Vote.ROLLBACK)
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=4))
        tx = factory.create()
        for participant in participants:
            tx.register_resource(participant)
        with pytest.raises(TransactionRolledBack):
            tx.commit()
        assert tx.status is TransactionStatus.ROLLED_BACK
        prepared = [p for p in participants if "prepare" in p.calls and p.vote is Vote.COMMIT]
        assert all("rollback" in p.calls for p in prepared)
        factory.shutdown_participant_pool()

    def test_mixed_heuristics_preserved(self):
        participants = [
            SweepParticipant(rollback_error=HeuristicMixed("split")),
            SweepParticipant(rollback_error=HeuristicCommit("kept")),
        ]
        tx = run_rollback(2, participants)
        assert [type(h) for h in tx.heuristics] == [HeuristicMixed, HeuristicCommit]


def run_saga(executor):
    manager = ActivityManager()
    saga = Saga(manager, name="trip", executor=executor)
    order = []

    def work(name, fail=False):
        def _work(ctx):
            if fail:
                raise RuntimeError(f"{name} failed")
            return name

        return _work

    def comp(name):
        def _comp(ctx):
            order.append(name)

        return _comp

    for step in ("flight", "hotel", "car"):
        saga.add_step(step, work(step), comp(step))
    saga.add_step("payment", work("payment", fail=True), comp("payment"))
    result = saga.run()
    trace = [
        (event.kind, event.detail.get("signal"), event.detail.get("action"),
         event.detail.get("outcome"))
        for event in manager.event_log
        if event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
    ]
    return result, order, trace


class TestSagaExecutorSeam:
    def test_pool_executor_matches_serial_compensation(self):
        serial_result, serial_order, serial_trace = run_saga(
            SerialBroadcastExecutor()
        )
        with ThreadPoolBroadcastExecutor(max_workers=8) as executor:
            pool_result, pool_order, pool_trace = run_saga(executor)
        # Reverse-order compensation of the committed prefix, both ways.
        assert serial_order == ["car", "hotel", "flight"]
        assert pool_order == serial_order
        assert pool_result.compensated == serial_result.compensated
        assert pool_result.failed_step == serial_result.failed_step == "payment"
        assert pool_trace == serial_trace

    def test_begin_executor_override_reaches_coordinator(self):
        manager = ActivityManager()
        executor = SerialBroadcastExecutor()
        activity = manager.begin("custom", executor=executor)
        assert activity.coordinator.executor is executor


class RemoteResource(Servant):
    """A 2PC participant reached through the ORB."""

    def __init__(self, vote=Vote.COMMIT):
        self.vote = vote
        self.calls = []

    def prepare(self):
        self.calls.append("prepare")
        return self.vote

    def commit(self):
        self.calls.append("commit")

    def rollback(self):
        self.calls.append("rollback")

    def forget(self):
        self.calls.append("forget")


def run_remote_commit(marshal_cache_entries, parallel=1, participants=5):
    """A 2PC over participants across an encoding hop."""
    pair = BridgedPair(OrbConfig(marshal_cache_entries=marshal_cache_entries))
    orb = pair.client
    factory = TransactionFactory(
        clock=orb.clock, config=FactoryConfig(parallel_participants=parallel)
    )
    current = TransactionCurrent(factory)
    install_transaction_service(orb, current)

    wire = []
    original_deliver = orb.transport.deliver

    def recording_deliver(source, target, request_bytes, dispatch):
        wire.append(request_bytes)
        return original_deliver(source, target, request_bytes, dispatch)

    orb.transport.deliver = recording_deliver

    resources = [RemoteResource() for _ in range(participants)]
    tx = current.begin()
    for index, resource in enumerate(resources):
        tx.register_resource(pair.activate("store", resource), recovery_key=f"r{index}")
    current.commit()
    factory.shutdown_participant_pool()
    return wire, resources, tx, pair


class TestOtsMarshalOnce:
    def test_unmarshallable_template_falls_back_to_the_plain_call(self, monkeypatch):
        orb = Orb()
        node = orb.create_node("store")
        factory = TransactionFactory(clock=orb.clock)
        current = TransactionCurrent(factory)
        install_transaction_service(orb, current)

        def unmarshallable(*args, **kwargs):
            raise MarshalError("no template for this request")

        monkeypatch.setattr(orb, "prepare_invocation", unmarshallable)
        resources = [RemoteResource() for _ in range(3)]
        tx = current.begin()
        for index, resource in enumerate(resources):
            tx.register_resource(node.activate(resource), recovery_key=f"r{index}")
        current.commit()
        assert tx.status is TransactionStatus.COMMITTED
        assert all(r.calls == ["prepare", "commit"] for r in resources)
        assert orb.transport.stats.marshal.template_fills == 0

    def test_any_other_error_while_priming_propagates(self, monkeypatch):
        pair = BridgedPair()
        ref = pair.activate("store", RemoteResource())

        def broken(*args, **kwargs):
            raise AttributeError("template bug")

        monkeypatch.setattr(pair.client, "prepare_invocation", broken)
        with pytest.raises(AttributeError, match="template bug"):
            _ParticipantRound("prepare").prime(ref)

    def test_wire_bytes_identical_with_and_without_templates(self):
        slow_wire, slow_resources, slow_tx, _ = run_remote_commit(0)
        fast_wire, fast_resources, fast_tx, fast_pair = run_remote_commit(256)
        assert all(isinstance(request, bytes) for request in slow_wire)
        assert fast_wire == slow_wire
        assert fast_tx.status is slow_tx.status is TransactionStatus.COMMITTED
        assert [r.calls for r in fast_resources] == [r.calls for r in slow_resources]
        stats = fast_pair.stats
        # One template per round (prepare + commit) on this single ORB.
        assert stats.templates_prepared == 2
        assert stats.template_fills == 2 * len(fast_resources)
        assert stats.bytes_saved > 0

    def test_remote_rollback_sweep_uses_templates(self):
        pair = BridgedPair()
        orb = pair.client
        factory = TransactionFactory(
            clock=orb.clock,
            config=FactoryConfig(parallel_participants=3),
        )
        current = TransactionCurrent(factory)
        install_transaction_service(orb, current)
        resources = [RemoteResource() for _ in range(4)]
        tx = current.begin()
        for resource in resources:
            tx.register_resource(pair.activate("store", resource))
        current.rollback()
        assert all(r.calls == ["rollback"] for r in resources)
        stats = pair.stats
        assert stats.templates_prepared >= 1
        assert stats.template_fills == 4
        factory.shutdown_participant_pool()
