"""Figure 8 — two-phase commit via Signals, SignalSets and Actions.

Regenerated artefact: the figure's exact message-sequence chart
(get_signal → prepare→A1 → set_response → prepare→A2 → … → commit → …
→ get_outcome), then commit latency swept over the participant count,
locally and with remote participants under wire latency, plus the vote
mix (rollback pivot) variants.
"""

import pytest

from repro.core import ActivityManager, CompletionStatus, IdempotentAction
from repro.models import TwoPhaseCommitSignalSet, TwoPhaseParticipant
from repro.models.twopc import SET_NAME
from repro.orb import FaultPlan, Orb

PARTICIPANT_COUNTS = [1, 2, 8, 32]


def run_protocol(manager, participants, status=CompletionStatus.SUCCESS):
    activity = manager.begin("2pc")
    for participant in participants:
        activity.add_action(SET_NAME, participant)
    activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
    return activity.complete(status), activity


class TestFig8Trace:
    def test_exact_sequence_regenerated(self, benchmark, emit):
        def scenario_run():
            manager = ActivityManager()
            manager.event_log.attach()
            return run_protocol(
                manager,
                [TwoPhaseParticipant("Action-1"), TwoPhaseParticipant("Action-2")],
            )

        outcome, activity = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        assert outcome.name == "committed"
        trace = [
            (event.kind, event.detail.get("signal"), event.detail.get("action"),
             event.detail.get("outcome"))
            for event in activity.event_log
            if event.detail.get("signal_set") == SET_NAME
            and event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
        ]
        expected = [
            ("get_signal", None, None, None),
            ("transmit", "prepare", "Action-1", None),
            ("set_response", "prepare", "Action-1", "vote_commit"),
            ("transmit", "prepare", "Action-2", None),
            ("set_response", "prepare", "Action-2", "vote_commit"),
            ("get_signal", None, None, None),
            ("transmit", "commit", "Action-1", None),
            ("set_response", "commit", "Action-1", "done"),
            ("transmit", "commit", "Action-2", None),
            ("set_response", "commit", "Action-2", "done"),
            ("get_outcome", None, None, "committed"),
        ]
        assert trace == expected
        emit(
            "fig08",
            ["fig 8 — exact 2PC message sequence (matches the chart):"]
            + [f"  {step}" for step in trace],
            data={"commit_protocol_steps": len(trace)},
        )

    def test_rollback_pivot_regenerated(self, benchmark, emit):
        def scenario_run():
            manager = ActivityManager()
            manager.event_log.attach()
            return run_protocol(
                manager,
                [
                    TwoPhaseParticipant("A1"),
                    TwoPhaseParticipant("A2", on_prepare=lambda: False),
                    TwoPhaseParticipant("A3"),
                ],
            )

        outcome, activity = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        assert outcome.name == "rolled_back"
        signals = [
            (event.detail["signal"], event.detail["action"])
            for event in activity.event_log
            if event.kind == "transmit" and event.detail.get("signal_set") == SET_NAME
        ]
        # Prepare stops at the no-voter; rollback goes to everyone.
        assert signals == [
            ("prepare", "A1"),
            ("prepare", "A2"),
            ("rollback", "A1"),
            ("rollback", "A2"),
            ("rollback", "A3"),
        ]
        emit(
            "fig08",
            ["fig 8 variant — no-vote pivots prepare → rollback:"]
            + [f"  {signal} -> {action}" for signal, action in signals],
        )

    @pytest.mark.parametrize("participants", PARTICIPANT_COUNTS)
    def test_bench_local_commit(self, benchmark, participants):
        manager = ActivityManager()

        def run():
            run_protocol(
                manager,
                [TwoPhaseParticipant(f"p{i}") for i in range(participants)],
            )

        benchmark(run)

    @pytest.mark.parametrize("participants", [2, 8])
    def test_bench_remote_commit_with_latency(self, benchmark, participants):
        orb = Orb(fault_plan=FaultPlan(latency=0.0005))
        manager = ActivityManager(clock=orb.clock)
        manager.install(orb)
        nodes = [orb.create_node(f"n{i}") for i in range(participants)]

        def run():
            activity = manager.begin()
            for index, node in enumerate(nodes):
                participant = IdempotentAction(TwoPhaseParticipant(f"p{index}"))
                ref = node.activate(participant, interface="Action")
                activity.add_action(SET_NAME, ref)
            activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
            activity.complete(CompletionStatus.SUCCESS)

        benchmark(run)

    def test_simulated_wire_cost_series(self, benchmark, emit):
        """Simulated-time view: messages and simulated latency per commit,
        swept over participants (2 hops per transmission, 2 signals)."""

        def scenario_run():
            rows = []
            for count in PARTICIPANT_COUNTS:
                orb = Orb(fault_plan=FaultPlan(latency=0.001))
                manager = ActivityManager(clock=orb.clock)
                manager.install(orb)
                activity = manager.begin()
                for index in range(count):
                    node = orb.create_node(f"n{index}")
                    ref = node.activate(
                        TwoPhaseParticipant(f"p{index}"), interface="Action"
                    )
                    activity.add_action(SET_NAME, ref)
                activity.register_signal_set(
                    TwoPhaseCommitSignalSet(), completion=True
                )
                before = orb.clock.now()
                activity.complete(CompletionStatus.SUCCESS)
                rows.append(
                    (count, orb.transport.stats.requests_sent,
                     round(orb.clock.now() - before, 6))
                )
            return rows

        rows = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        # Shape: both messages and simulated latency grow linearly.
        messages = [row[1] for row in rows]
        latencies = [row[2] for row in rows]
        assert messages == sorted(messages) and latencies == sorted(latencies)
        assert messages[-1] == 2 * PARTICIPANT_COUNTS[-1]  # prepare + commit each
        emit(
            "fig08",
            ["fig 8 — commit cost vs participants (simulated wire):",
             "  participants  messages  simulated_seconds"]
            + [f"  {c:12d}  {m:8d}  {s:17.6f}" for c, m, s in rows],
            data={
                "max_participants": rows[-1][0],
                "messages_at_max": rows[-1][1],
                "simulated_latency_at_max_s": rows[-1][2],
            },
        )
