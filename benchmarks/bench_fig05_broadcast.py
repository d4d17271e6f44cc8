"""Figure 5 — the coordinator signalling registered actions.

Regenerated artefact: the fig. 5 interaction (get signal → transmit to
each action → responses collated into the set), plus broadcast cost as
the number of registered actions grows, locally and across the simulated
wire.  Shape: cost grows linearly in the action count; remote actions pay
the marshalling/transport overhead per transmission.
"""

import pytest

from repro.core import (
    ActivityCoordinator,
    ActivityManager,
    BroadcastSignalSet,
    RecordingAction,
)
from repro.orb import Orb

ACTION_COUNTS = [1, 4, 16, 64]


class TestFig5:
    def test_interaction_regenerated(self, benchmark, emit):
        def scenario_run():
            coordinator = ActivityCoordinator("fig5")
            coordinator.event_log.attach()
            for index in range(4):
                coordinator.add_action("set", RecordingAction(f"action-{index}"))
            coordinator.process_signal_set(
                BroadcastSignalSet("signal", signal_set_name="set")
            )
            return coordinator

        coordinator = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        kinds = [
            event.kind
            for event in coordinator.event_log
            if event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
        ]
        assert kinds == (
            ["get_signal"] + ["transmit", "set_response"] * 4 + ["get_outcome"]
        )
        emit(
            "fig05",
            ["fig 5 — coordinator/action interaction:"]
            + [f"  {event.brief()}" for event in coordinator.event_log
               if event.kind in ("get_signal", "transmit", "set_response", "get_outcome")],
            data={
                "protocol_steps": len(kinds),
                "transmissions": kinds.count("transmit"),
            },
        )

    @pytest.mark.parametrize("actions", ACTION_COUNTS)
    def test_bench_local_broadcast(self, benchmark, actions):
        coordinator = ActivityCoordinator("bench")
        for index in range(actions):
            coordinator.add_action("set", RecordingAction(f"a{index}"))

        def run():
            coordinator.process_signal_set(
                BroadcastSignalSet("tick", signal_set_name="set")
            )

        benchmark(run)

    @pytest.mark.parametrize("actions", [1, 4, 16])
    def test_bench_remote_broadcast(self, benchmark, actions):
        orb = Orb()
        manager = ActivityManager(clock=orb.clock)
        manager.install(orb)
        activity = manager.begin("remote-bench")
        for index in range(actions):
            node = orb.create_node(f"n{index}")
            ref = node.activate(RecordingAction(f"a{index}"), interface="Action")
            activity.add_action("set", ref)

        def run():
            activity.register_signal_set(
                BroadcastSignalSet("tick", signal_set_name="set")
            )
            activity.signal("set")

        benchmark(run)
