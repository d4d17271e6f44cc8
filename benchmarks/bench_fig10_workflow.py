"""Figure 10 — workflow coordination (a starts b ∥ c, then d).

Regenerated artefact: the figure's start/start_ack/outcome/outcome_ack
choreography in exact order, plus engine throughput swept over fan-out
and chain depth.
"""

import pytest

from repro.core import ActivityManager
from repro.models import Workflow, WorkflowEngine


def fig10_workflow():
    workflow = Workflow("fig10")
    workflow.add_task("b", lambda c: "b")
    workflow.add_task("c", lambda c: "c")
    workflow.add_task("d", lambda c: "d", deps=["b", "c"])
    return workflow


class TestFig10:
    def test_choreography_regenerated(self, benchmark, emit):
        def scenario_run():
            manager = ActivityManager()
            manager.event_log.attach()
            engine = WorkflowEngine(manager)
            engine.run(fig10_workflow())
            return manager

        manager = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        exchange = [
            (event.detail.get("signal"), event.detail.get("outcome"))
            for event in manager.event_log
            if event.kind == "set_response"
            and event.detail.get("signal") in ("start", "outcome")
        ]
        assert exchange == [
            ("start", "start_ack"),       # a -> b
            ("start", "start_ack"),       # a -> c
            ("outcome", "outcome_ack"),   # b -> a
            ("outcome", "outcome_ack"),   # c -> a
            ("start", "start_ack"),       # a -> d
            ("outcome", "outcome_ack"),   # d -> a
        ]
        emit(
            "fig10",
            ["fig 10 — start/start_ack/outcome/outcome_ack exchange:"]
            + [f"  {signal:8s} -> {ack}" for signal, ack in exchange],
            data={"exchange_steps": len(exchange)},
        )

    @pytest.mark.parametrize("fanout", [2, 8, 32])
    def test_bench_fanout(self, benchmark, fanout):
        def run():
            workflow = Workflow("fanout")
            workflow.add_task("root", lambda c: None)
            for index in range(fanout):
                workflow.add_task(f"leaf-{index}", lambda c: None, deps=["root"])
            WorkflowEngine(ActivityManager()).run(workflow)

        benchmark(run)

    @pytest.mark.parametrize("depth", [2, 8, 32])
    def test_bench_chain_depth(self, benchmark, depth):
        def run():
            workflow = Workflow("chain")
            previous = None
            for index in range(depth):
                deps = [previous] if previous else []
                workflow.add_task(f"step-{index}", lambda c: None, deps=deps)
                previous = f"step-{index}"
            WorkflowEngine(ActivityManager()).run(workflow)

        benchmark(run)

    def test_wave_structure_series(self, benchmark, emit):
        def scenario_run():
            rows = []
            for fanout in (1, 2, 4, 8):
                workflow = Workflow(f"waves-{fanout}")
                workflow.add_task("start", lambda c: None)
                for index in range(fanout):
                    workflow.add_task(f"par-{index}", lambda c: None, deps=["start"])
                workflow.add_task(
                    "join", lambda c: None,
                    deps=[f"par-{i}" for i in range(fanout)],
                )
                result = WorkflowEngine(ActivityManager()).run(workflow)
                rows.append((fanout, len(result.waves), len(result.waves[1])))
            return rows

        rows = benchmark.pedantic(scenario_run, rounds=1, iterations=1)
        # Shape: always 3 waves; middle wave width equals the fan-out.
        assert all(waves == 3 for _, waves, __ in rows)
        assert [width for _, __, width in rows] == [1, 2, 4, 8]
        emit(
            "fig10",
            ["fig 10 — wave structure vs fan-out:",
             "  fanout  waves  middle_wave_width"]
            + [f"  {f:6d}  {w:5d}  {m:17d}" for f, w, m in rows],
            data={
                "max_fanout": rows[-1][0],
                "waves_at_max_fanout": rows[-1][1],
            },
        )
