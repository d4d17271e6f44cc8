"""Figure 15 (extension) — parallel signal broadcast vs participant count.

Not a figure from the paper: §3.2.2 says the coordinator "transmits the
signal to all registered Actions" but the reference flow is serial, so a
2PC round over N participants pays N × hop-latency per signal.  This
bench injects deterministic per-hop latency through a
:class:`~repro.orb.transport.FaultPlan` (each participant sits behind its
own :class:`~repro.orb.transport.Transport`, request + reply hop) and
measures the wall-clock cost of driving a full two-phase commit
SignalSet with the serial executor vs the thread-pool executor
(:class:`~repro.core.broadcast.ThreadPoolBroadcastExecutor`).

Expected shape: serial latency grows linearly with the participant
count; the pool executor stays near-flat (one hop per signal round), and
both produce identical SignalSet outcomes and identical logical event
traces — determinism is asserted, not assumed.

Quick mode (``BENCH_QUICK=1``) shrinks the sweep for CI smoke runs.
"""

import os
import time

import pytest

from repro.core import (
    ActivityCoordinator,
    SerialBroadcastExecutor,
    ThreadPoolBroadcastExecutor,
)
from repro.models.twopc import TwoPhaseCommitSignalSet, TwoPhaseParticipant
from repro.orb.transport import FaultPlan, SimulatedTransport
from repro.util.clock import WallClock

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
PARTICIPANTS = [2, 16] if QUICK else [1, 2, 4, 8, 16]
HOP_LATENCY = 0.010  # seconds, per network hop (request and reply)
POOL_WORKERS = 16


class RemoteParticipant:
    """A 2PC participant reached over its own latency-injected transport."""

    def __init__(self, name: str, fault_plan: FaultPlan) -> None:
        self.name = name
        self.inner = TwoPhaseParticipant(name)
        self.transport = SimulatedTransport(WallClock(), fault_plan=fault_plan)

    def process_signal(self, signal):
        reply = {}

        def dispatch(payload: bytes) -> bytes:
            reply["outcome"] = self.inner.process_signal(signal)
            return b"ok"

        self.transport.deliver("coordinator", self.name, b"signal", dispatch)
        return reply["outcome"]


def protocol_trace(coordinator):
    return [
        (event.kind, event.detail.get("signal"), event.detail.get("action"),
         event.detail.get("outcome"))
        for event in coordinator.event_log
        if event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
    ]


def run_twopc(executor, participant_count):
    """Drive one full 2PC over latency-injected participants; return
    (elapsed_seconds, outcome, logical trace)."""
    plan = FaultPlan(latency=HOP_LATENCY)
    coordinator = ActivityCoordinator("fig15", executor=executor)
    coordinator.event_log.attach()
    for index in range(participant_count):
        coordinator.add_action(
            "repro.2pc", RemoteParticipant(f"p{index}", plan)
        )
    begin = time.perf_counter()
    outcome = coordinator.process_signal_set(TwoPhaseCommitSignalSet())
    elapsed = time.perf_counter() - begin
    return elapsed, outcome, protocol_trace(coordinator)


class TestFig15ParallelBroadcast:
    @pytest.mark.parametrize("mode", ["serial", "pool"])
    def test_bench_twopc_broadcast_16_participants(self, benchmark, mode):
        def run():
            if mode == "serial":
                return run_twopc(SerialBroadcastExecutor(), 16)
            with ThreadPoolBroadcastExecutor(max_workers=POOL_WORKERS) as executor:
                return run_twopc(executor, 16)

        _, outcome, _ = benchmark.pedantic(run, rounds=1 if QUICK else 3, iterations=1)
        assert outcome.name == "committed"

    def test_latency_scaling_series(self, emit):
        rows = []
        for count in PARTICIPANTS:
            serial_elapsed, serial_outcome, serial_trace = run_twopc(
                SerialBroadcastExecutor(), count
            )
            with ThreadPoolBroadcastExecutor(max_workers=POOL_WORKERS) as executor:
                pool_elapsed, pool_outcome, pool_trace = run_twopc(executor, count)
            # Determinism: identical outcomes, identical logical traces.
            assert pool_outcome == serial_outcome
            assert pool_outcome.name == "committed"
            assert pool_trace == serial_trace
            rows.append((count, serial_elapsed, pool_elapsed))

        emit(
            "fig15",
            ["fig 15 — 2PC broadcast latency vs participants "
             f"({HOP_LATENCY * 1000:.0f} ms/hop injected):",
             "  participants  serial_ms  pool_ms  speedup"]
            + [
                f"  {count:12d}  {serial * 1000:9.1f}  {pool * 1000:7.1f}"
                f"  {serial / pool:7.2f}x"
                for count, serial, pool in rows
            ],
            data={
                "max_participants": rows[-1][0],
                "serial_latency_s": rows[-1][1],
                "pool_latency_s": rows[-1][2],
                "pool_speedup": rows[-1][1] / rows[-1][2],
            },
        )

        # Acceptance: ≥ 4x latency reduction at 16 registered actions.
        count, serial_elapsed, pool_elapsed = rows[-1]
        assert count == 16
        assert serial_elapsed / pool_elapsed >= 4.0

    def test_no_vote_pivot_identical_under_parallelism(self):
        """The fault path parallelism stresses hardest: a no-vote pivots
        prepare → rollback identically under both executors."""

        def run(executor):
            plan = FaultPlan(latency=0.001)
            coordinator = ActivityCoordinator("fig15-pivot", executor=executor)
            coordinator.event_log.attach()
            participants = []
            for index in range(8):
                participant = RemoteParticipant(f"p{index}", plan)
                if index == 5:
                    participant.inner._on_prepare = lambda: False
                participants.append(participant)
                coordinator.add_action("repro.2pc", participant)
            outcome = coordinator.process_signal_set(TwoPhaseCommitSignalSet())
            return outcome, protocol_trace(coordinator)

        serial_outcome, serial_trace = run(SerialBroadcastExecutor())
        with ThreadPoolBroadcastExecutor(max_workers=POOL_WORKERS) as executor:
            pool_outcome, pool_trace = run(executor)
        assert serial_outcome == pool_outcome
        assert pool_outcome.name == "rolled_back"
        serial_responses = [e for e in serial_trace if e[0] == "set_response"]
        pool_responses = [e for e in pool_trace if e[0] == "set_response"]
        assert pool_responses == serial_responses
