"""Workflow coordination (§4.4): graphs, fig. 10 trace, fig. 2 recovery."""

import pytest

from repro.core import ActivityManager
from repro.models import TaskState, Workflow, WorkflowEngine
from repro.models.workflow import WorkflowError
from repro.ots import TransactionFactory, TransactionalCell


@pytest.fixture
def manager():
    return ActivityManager()


@pytest.fixture
def engine(manager):
    return WorkflowEngine(manager)


class TestDefinition:
    def test_duplicate_task_rejected(self):
        workflow = Workflow("w")
        workflow.add_task("a", lambda c: None)
        with pytest.raises(WorkflowError):
            workflow.add_task("a", lambda c: None)

    def test_unknown_dependency_rejected(self):
        workflow = Workflow("w")
        with pytest.raises(WorkflowError):
            workflow.add_task("a", lambda c: None, deps=["ghost"])

    def test_recovery_plan_validation(self):
        workflow = Workflow("w")
        workflow.add_task("a", lambda c: None)
        with pytest.raises(WorkflowError):
            workflow.on_failure("ghost")
        with pytest.raises(WorkflowError):
            workflow.on_failure("a", compensate=["ghost"])
        with pytest.raises(WorkflowError):
            workflow.on_failure("a", compensate=["a"])  # no compensation defined


class TestExecution:
    def test_linear_chain(self, engine):
        workflow = Workflow("chain")
        workflow.add_task("a", lambda c: 1)
        workflow.add_task("b", lambda c: c["results"]["a"] + 1, deps=["a"])
        workflow.add_task("c", lambda c: c["results"]["b"] + 1, deps=["b"])
        result = engine.run(workflow)
        assert result.succeeded
        assert result.outputs == {"a": 1, "b": 2, "c": 3}
        assert result.waves == [["a"], ["b"], ["c"]]

    def test_parallel_wave(self, engine):
        workflow = Workflow("diamond")
        workflow.add_task("a", lambda c: "a")
        workflow.add_task("b", lambda c: "b", deps=["a"])
        workflow.add_task("c", lambda c: "c", deps=["a"])
        workflow.add_task("d", lambda c: "d", deps=["b", "c"])
        result = engine.run(workflow)
        assert result.succeeded
        assert result.waves == [["a"], ["b", "c"], ["d"]]

    def test_params_passed_to_work(self, engine):
        workflow = Workflow("p")
        workflow.add_task(
            "a", lambda c: c["params"]["value"] * 2, params={"value": 21}
        )
        result = engine.run(workflow)
        assert result.outputs["a"] == 42

    def test_failure_skips_dependants(self, engine):
        workflow = Workflow("f")

        def boom(c):
            raise RuntimeError("fail")

        workflow.add_task("a", boom)
        workflow.add_task("b", lambda c: "b", deps=["a"])
        workflow.add_task("c", lambda c: "c")
        result = engine.run(workflow)
        assert not result.succeeded
        assert result.state("a") is TaskState.FAILED
        assert result.state("b") is TaskState.SKIPPED
        assert result.state("c") is TaskState.COMPLETED
        assert "a" in result.errors

    def test_fallback_tasks_inert_without_plan(self, engine):
        workflow = Workflow("fb")
        workflow.add_task("a", lambda c: "a")
        workflow.add_task("alt", lambda c: "alt", fallback=True)
        result = engine.run(workflow)
        assert result.state("alt") is TaskState.SKIPPED


class TestFig2Recovery:
    def build(self, fail_at="t4"):
        log = []
        workflow = Workflow("trip")

        def work(name):
            def run(c):
                if name == fail_at:
                    raise RuntimeError(f"{name} aborted")
                log.append(name)
                return name

            return run

        def compensate(name):
            def run(c):
                log.append(f"undo-{name}")
                return f"undo-{name}"

            return run

        workflow.add_task("t1", work("t1"))
        workflow.add_task("t2", work("t2"), deps=["t1"], compensation=compensate("t2"))
        workflow.add_task("t3", work("t3"), deps=["t1"])
        workflow.add_task("t4", work("t4"), deps=["t2", "t3"])
        workflow.add_task("t5p", work("t5p"), fallback=True)
        workflow.add_task("t6p", work("t6p"), deps=["t5p"], fallback=True)
        workflow.on_failure("t4", compensate=["t2"], continue_with=["t5p"])
        return workflow, log

    def test_failure_compensates_and_continues(self, engine):
        workflow, log = self.build()
        result = engine.run(workflow)
        assert result.state("t4") is TaskState.FAILED
        assert result.state("t2") is TaskState.COMPENSATED
        assert result.state("t5p") is TaskState.COMPLETED
        assert result.state("t6p") is TaskState.COMPLETED
        assert result.compensated == ["t2"]
        # Compensation runs before the continuation.
        assert log.index("undo-t2") < log.index("t5p")

    def test_no_failure_means_no_compensation(self, engine):
        workflow, log = self.build(fail_at="none")
        result = engine.run(workflow)
        assert result.succeeded
        assert result.state("t5p") is TaskState.SKIPPED
        assert "undo-t2" not in log

    def test_compensation_only_for_completed_tasks(self, engine):
        """If t2 itself failed, its compensation must not run."""
        workflow, log = self.build(fail_at="t2")
        workflow.on_failure("t2", compensate=[], continue_with=["t5p"])
        result = engine.run(workflow)
        assert result.state("t2") is TaskState.FAILED
        assert "undo-t2" not in log
        assert result.state("t5p") is TaskState.COMPLETED


class TestFig10Trace:
    def test_start_ack_outcome_ack_choreography(self, manager):
        """Fig. 10: a starts b∥c (start/start_ack), then d after outcomes."""
        manager.event_log.attach()
        engine = WorkflowEngine(manager)
        workflow = Workflow("fig10")
        workflow.add_task("b", lambda c: "b")
        workflow.add_task("c", lambda c: "c")
        workflow.add_task("d", lambda c: "d", deps=["b", "c"])
        engine.run(workflow)
        events = [
            (event.detail.get("signal"), event.detail.get("outcome"))
            for event in manager.event_log
            if event.kind == "set_response"
            and event.detail.get("signal") in ("start", "outcome")
        ]
        assert events == [
            ("start", "start_ack"),      # b
            ("start", "start_ack"),      # c
            ("outcome", "outcome_ack"),  # b completed
            ("outcome", "outcome_ack"),  # c completed
            ("start", "start_ack"),      # d
            ("outcome", "outcome_ack"),  # d completed
        ]

    def test_outcome_signal_carries_result(self, manager):
        manager.event_log.attach()
        engine = WorkflowEngine(manager)
        workflow = Workflow("data")
        workflow.add_task("a", lambda c: {"price": 42})
        engine.run(workflow)
        outcome_transmits = [
            event
            for event in manager.event_log
            if event.kind == "transmit" and event.detail.get("signal") == "outcome"
        ]
        assert len(outcome_transmits) == 1

    def test_child_activities_under_parent(self, manager):
        manager.event_log.attach()
        engine = WorkflowEngine(manager)
        workflow = Workflow("tree")
        workflow.add_task("a", lambda c: None)
        workflow.add_task("b", lambda c: None, deps=["a"])
        engine.run(workflow)
        begins = manager.event_log.of_kind("activity_begin")
        parents = {
            event.detail["name"]: event.detail["parent"] for event in begins
        }
        assert parents["wf:tree"] is None
        assert parents["a"] is not None and parents["b"] is not None


class TestTransactionalTasks:
    def test_each_task_gets_own_top_level_transaction(self, manager):
        factory = TransactionFactory()
        cell = TransactionalCell("inventory", 10, factory)
        engine = WorkflowEngine(manager, tx_factory=factory)
        workflow = Workflow("fig1")
        workflow.add_task(
            "take2", lambda c: cell.write(c["tx"], cell.read(c["tx"]) - 2)
        )
        workflow.add_task(
            "take3",
            lambda c: cell.write(c["tx"], cell.read(c["tx"]) - 3),
            deps=["take2"],
        )
        result = engine.run(workflow)
        assert result.succeeded
        assert cell.read() == 5
        assert factory.committed == 2

    def test_failed_task_transaction_rolls_back(self, manager):
        factory = TransactionFactory()
        cell = TransactionalCell("inventory", 10, factory)
        engine = WorkflowEngine(manager, tx_factory=factory)

        def write_then_fail(c):
            cell.write(c["tx"], 0)
            raise RuntimeError("abort me")

        workflow = Workflow("rollback")
        workflow.add_task("bad", write_then_fail)
        result = engine.run(workflow)
        assert result.state("bad") is TaskState.FAILED
        assert cell.read() == 10, "the task's transaction rolled back"
        assert factory.rolled_back == 1


class TestPerModelExecutor:
    """WorkflowEngine accepts ``executor=`` (ROADMAP: mirror Saga from PR 3)."""

    def build(self):
        workflow = Workflow("trip")
        workflow.add_task("t1", lambda c: "r1")
        workflow.add_task("t2", lambda c: c["results"]["t1"] + "+r2", deps=["t1"])
        workflow.add_task("t3", lambda c: "r3", deps=["t1"])
        return workflow

    def fig10_trace(self, manager):
        return [
            (event.kind, event.detail.get("signal"), event.detail.get("outcome"))
            for event in manager.event_log
            if event.kind in ("get_signal", "transmit", "set_response", "get_outcome")
        ]

    def test_thread_pool_executor_matches_serial_run(self):
        from repro.core import ThreadPoolBroadcastExecutor

        serial_manager = ActivityManager()
        serial_manager.event_log.attach()
        serial = WorkflowEngine(serial_manager).run(self.build())
        with ThreadPoolBroadcastExecutor(max_workers=4) as executor:
            pool_manager = ActivityManager()
            pool_manager.event_log.attach()
            pooled = WorkflowEngine(pool_manager, executor=executor).run(self.build())
        assert pooled.succeeded and serial.succeeded
        assert pooled.states == serial.states
        assert pooled.outputs == serial.outputs
        assert pooled.waves == serial.waves
        assert self.fig10_trace(pool_manager) == self.fig10_trace(serial_manager)

    def test_recovery_plan_parity_under_pool_executor(self):
        from repro.core import ThreadPoolBroadcastExecutor

        def build():
            log = []
            workflow = Workflow("fig2")
            workflow.add_task("t1", lambda c: log.append("t1") or "t1")
            workflow.add_task(
                "t2",
                lambda c: log.append("t2") or "t2",
                deps=["t1"],
                compensation=lambda c: log.append("undo-t2"),
            )
            workflow.add_task(
                "t4", lambda c: (_ for _ in ()).throw(RuntimeError("boom")),
                deps=["t2"],
            )
            workflow.add_task("t5p", lambda c: log.append("t5p") or "t5p", fallback=True)
            workflow.on_failure("t4", compensate=["t2"], continue_with=["t5p"])
            return workflow, log

        workflow, serial_log = build()
        serial = WorkflowEngine(ActivityManager()).run(workflow)
        workflow, pool_log = build()
        with ThreadPoolBroadcastExecutor(max_workers=4) as executor:
            pooled = WorkflowEngine(
                ActivityManager(), executor=executor
            ).run(workflow)
        assert pooled.states == serial.states
        assert pooled.compensated == serial.compensated == ["t2"]
        assert pool_log == serial_log
