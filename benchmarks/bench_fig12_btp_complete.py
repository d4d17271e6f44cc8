"""Figure 12 — the BTP CompleteSignalSet, and cohesion termination.

Regenerated artefact: the confirm trace of fig. 12 (and its cancel
variant), plus the cohesion confirm-set sweep: k of n members confirm,
the rest cancel, in one atomic termination.
"""

import pytest

from repro.core import ActivityManager, CompletionStatus
from repro.models import BtpAtom, BtpCohesion, BtpParticipant, BtpStatus
from repro.models.btp import COMPLETE_SET


def complete_trace(manager):
    return [
        (event.kind, event.detail.get("signal"), event.detail.get("action"),
         event.detail.get("outcome"))
        for event in manager.event_log
        if event.detail.get("signal_set") == COMPLETE_SET
        and event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
    ]


class TestFig12:
    def test_confirm_trace_regenerated(self, benchmark, emit):
        def scenario_run():
            manager = ActivityManager()
            manager.event_log.attach()
            atom = BtpAtom(manager, "atom")
            atom.enroll(BtpParticipant("Action-1"))
            atom.enroll(BtpParticipant("Action-2"))
            atom.prepare()
            atom.confirm()
            return manager

        manager = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        trace = complete_trace(manager)
        assert trace == [
            ("get_signal", None, None, None),
            ("transmit", "confirm", "Action-1", None),
            ("set_response", "confirm", "Action-1", "confirmed"),
            ("transmit", "confirm", "Action-2", None),
            ("set_response", "confirm", "Action-2", "confirmed"),
            ("get_outcome", None, None, "confirmed"),
        ]
        emit(
            "fig12",
            ["fig 12 — BTP CompleteSignalSet confirm sequence:"]
            + [f"  {step}" for step in trace],
            data={"confirm_protocol_steps": len(trace)},
        )

    def test_cancel_variant_regenerated(self, benchmark, emit):
        """'If the atom is instructed to cancel, the confirm Signal is
        replaced by cancel.'"""

        def scenario_run():
            manager = ActivityManager()
            manager.event_log.attach()
            atom = BtpAtom(manager, "atom")
            atom.enroll(BtpParticipant("Action-1"))
            atom.prepare()
            atom.activity.complete(CompletionStatus.FAIL)
            return manager

        manager = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        signals = [step[1] for step in complete_trace(manager) if step[0] == "transmit"]
        assert signals == ["cancel"]
        emit("fig12", [f"fig 12 variant — cancel replaces confirm: {signals}"])

    def test_cohesion_confirm_set_sweep(self, benchmark, emit):
        def scenario_run():
            rows = []
            for members, confirmed in ((4, 4), (4, 3), (4, 1), (6, 2)):
                manager = ActivityManager()
                cohesion = BtpCohesion(manager, "c")
                for index in range(members):
                    atom = BtpAtom(manager, f"m{index}")
                    atom.enroll(BtpParticipant(f"m{index}"))
                    cohesion.enroll(atom)
                outcomes = cohesion.confirm([f"m{i}" for i in range(confirmed)])
                confirmed_count = sum(
                    1 for status in outcomes.values() if status is BtpStatus.CONFIRMED
                )
                cancelled_count = sum(
                    1 for status in outcomes.values() if status is BtpStatus.CANCELLED
                )
                rows.append((members, confirmed, confirmed_count, cancelled_count))
            return rows

        rows = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        for members, chosen, confirmed_count, cancelled_count in rows:
            assert confirmed_count == chosen
            assert cancelled_count == members - chosen
        emit(
            "fig12",
            ["fig 12 — cohesion confirm-set selection:",
             "  members  confirm_set  confirmed  cancelled"]
            + [f"  {m:7d}  {s:11d}  {c:9d}  {x:9d}" for m, s, c, x in rows],
            data={"cohesion_rows": len(rows)},
        )

    @pytest.mark.parametrize("members", [2, 8, 32])
    def test_bench_cohesion_termination(self, benchmark, members):
        def run():
            manager = ActivityManager()
            cohesion = BtpCohesion(manager, "c")
            for index in range(members):
                atom = BtpAtom(manager, f"m{index}")
                atom.enroll(BtpParticipant(f"m{index}"))
                cohesion.enroll(atom)
            cohesion.confirm([f"m{i}" for i in range(members // 2)])

        benchmark(run)
