"""Figure 11 — the BTP PrepareSignalSet.

Regenerated artefact: the figure's message sequence (user-driven prepare
broadcast, outcome via get_outcome), plus prepare latency vs enrolled
participants and the hold-placement behaviour on real inventory.
"""

import pytest

from repro.apps import TravelScenario
from repro.core import ActivityManager
from repro.models import BtpAtom, BtpParticipant
from repro.models.btp import PREPARE_SET


class TestFig11:
    def test_prepare_trace_regenerated(self, benchmark, emit):
        def scenario_run():
            manager = ActivityManager()
            manager.event_log.attach()
            atom = BtpAtom(manager, "atom")
            atom.enroll(BtpParticipant("Action-1"))
            atom.enroll(BtpParticipant("Action-2"))
            prepared = atom.prepare()
            return manager, prepared

        manager, prepared = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        assert prepared
        trace = [
            (event.kind, event.detail.get("signal"), event.detail.get("action"),
             event.detail.get("outcome"))
            for event in manager.event_log
            if event.detail.get("signal_set") == PREPARE_SET
            and event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
        ]
        assert trace == [
            ("get_signal", None, None, None),
            ("transmit", "prepare", "Action-1", None),
            ("set_response", "prepare", "Action-1", "prepared"),
            ("transmit", "prepare", "Action-2", None),
            ("set_response", "prepare", "Action-2", "prepared"),
            ("get_outcome", None, None, "prepared"),
        ]
        emit(
            "fig11",
            ["fig 11 — BTP PrepareSignalSet sequence (matches the chart):"]
            + [f"  {step}" for step in trace],
            data={"prepare_protocol_steps": len(trace)},
        )

    def test_prepare_places_holds_not_bookings(self, benchmark, emit):
        """§4.5: 'the taxi is reserved (prepared) and not booked'."""

        def scenario_run():
            scenario = TravelScenario(capacity=3)
            manager = ActivityManager()
            atom = BtpAtom(manager, "taxi")
            holds = {}
            atom.enroll(
                BtpParticipant(
                    "taxi",
                    on_prepare=lambda: holds.setdefault(
                        "id", scenario.taxi.prepare_booking("client")
                    ) is not None,
                )
            )
            atom.prepare()
            return scenario

        scenario = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        assert scenario.taxi.holds_outstanding == 1
        assert scenario.taxi.booking_count() == 0
        assert scenario.taxi.available() == 2
        emit(
            "fig11",
            [
                "fig 11 — prepare semantics on inventory: "
                f"holds={scenario.taxi.holds_outstanding} "
                f"bookings={scenario.taxi.booking_count()} "
                f"available={scenario.taxi.available()}",
            ],
            data={
                "holds_after_prepare": scenario.taxi.holds_outstanding,
                "bookings_after_prepare": scenario.taxi.booking_count(),
            },
        )

    @pytest.mark.parametrize("participants", [1, 4, 16, 64])
    def test_bench_prepare_latency(self, benchmark, participants):
        def run():
            manager = ActivityManager()
            atom = BtpAtom(manager, "atom")
            for index in range(participants):
                atom.enroll(BtpParticipant(f"p{index}"))
            atom.prepare()

        benchmark(run)

    def test_bench_prepare_with_refusal(self, benchmark):
        """The cancel path: one refusing participant mid-list."""

        def run():
            manager = ActivityManager()
            atom = BtpAtom(manager, "atom")
            atom.enroll(BtpParticipant("ok-1"))
            atom.enroll(BtpParticipant("refuses", on_prepare=lambda: False))
            atom.enroll(BtpParticipant("ok-2"))
            atom.prepare()

        benchmark(run)
