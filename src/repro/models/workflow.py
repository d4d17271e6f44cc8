"""Workflow coordination (§4.4, figs 1, 2 and 10).

The paper's workflow signal set has four signals: a parent sends ``start``
(with parameterisation data) to a child and receives ``start_ack`` as the
return part; a completing child sends ``outcome`` (with its result) to the
parent and receives ``outcome_ack``.  Task coordination follows the
OPENflow scheme: a per-task controller receives notifications of other
tasks' outputs and decides when its task can start.

This module provides:

- :class:`Task` / :class:`Workflow` — a task graph with dependencies,
  optional per-task compensation, and *recovery plans* ("if t4 fails,
  compensate t2 then continue with t5', t6'" — exactly fig. 2);
- :class:`WorkflowEngine` — runs a workflow over the Activity Service:
  one parent (coordinating) activity, one child activity per task, with
  the start/start_ack/outcome/outcome_ack choreography producing the
  fig. 10 message trace in the event log;
- optional *transactional* tasks: each task runs inside its own top-level
  OTS transaction (fig. 1's "tie an activity to a single top-level
  transaction").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.action import Action
from repro.core.activity import Activity
from repro.core.predefined import BroadcastSignalSet
from repro.core.signals import Outcome, Signal
from repro.core.status import CompletionStatus
from repro.exceptions import ReproError

SIGNAL_START = "start"
SIGNAL_OUTCOME = "outcome"
OUTCOME_START_ACK = "start_ack"
OUTCOME_OUTCOME_ACK = "outcome_ack"
COMPLETED_SET = "workflow.completed"


class WorkflowError(ReproError):
    """Definition or execution error in a workflow."""


class TaskState(Enum):
    PENDING = "pending"
    STARTED = "started"
    COMPLETED = "completed"
    FAILED = "failed"
    COMPENSATED = "compensated"
    SKIPPED = "skipped"


@dataclass
class Task:
    """One unit of workflow work.

    ``work(ctx)`` receives a context dict carrying ``results`` (outputs of
    completed tasks), ``params`` and, for transactional workflows, the
    task's live ``tx``.  ``compensation(ctx)`` undoes the task's committed
    effects when a recovery plan names it.
    """

    name: str
    work: Callable[[Dict[str, Any]], Any]
    deps: Tuple[str, ...] = ()
    compensation: Optional[Callable[[Dict[str, Any]], Any]] = None
    params: Dict[str, Any] = field(default_factory=dict)
    fallback: bool = False  # only runs when activated by a recovery plan


@dataclass
class RecoveryPlan:
    """What to do when a given task fails (fig. 2)."""

    compensate: Tuple[str, ...] = ()  # completed tasks to undo, in order
    continue_with: Tuple[str, ...] = ()  # fallback tasks to activate


@dataclass
class WorkflowResult:
    states: Dict[str, TaskState] = field(default_factory=dict)
    outputs: Dict[str, Any] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    compensated: List[str] = field(default_factory=list)
    waves: List[List[str]] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return not any(state is TaskState.FAILED for state in self.states.values())

    def state(self, name: str) -> TaskState:
        return self.states[name]


class Workflow:
    """A task graph definition."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.tasks: Dict[str, Task] = {}
        self.recovery_plans: Dict[str, RecoveryPlan] = {}

    def add_task(
        self,
        name: str,
        work: Callable[[Dict[str, Any]], Any],
        deps: Sequence[str] = (),
        compensation: Optional[Callable[[Dict[str, Any]], Any]] = None,
        params: Optional[Dict[str, Any]] = None,
        fallback: bool = False,
    ) -> Task:
        if name in self.tasks:
            raise WorkflowError(f"duplicate task {name!r}")
        for dep in deps:
            if dep not in self.tasks:
                raise WorkflowError(f"task {name!r} depends on unknown task {dep!r}")
        task = Task(
            name=name,
            work=work,
            deps=tuple(deps),
            compensation=compensation,
            params=dict(params) if params else {},
            fallback=fallback,
        )
        self.tasks[name] = task
        return task

    def on_failure(
        self,
        task_name: str,
        compensate: Sequence[str] = (),
        continue_with: Sequence[str] = (),
    ) -> None:
        """Attach a fig. 2 style recovery plan to ``task_name``."""
        if task_name not in self.tasks:
            raise WorkflowError(f"unknown task {task_name!r}")
        for name in list(compensate) + list(continue_with):
            if name not in self.tasks:
                raise WorkflowError(f"recovery plan references unknown task {name!r}")
        for name in compensate:
            if self.tasks[name].compensation is None:
                raise WorkflowError(f"task {name!r} has no compensation to run")
        self.recovery_plans[task_name] = RecoveryPlan(
            compensate=tuple(compensate), continue_with=tuple(continue_with)
        )


class _StartAction(Action):
    """Child-side receiver of the parent's ``start`` signal."""

    def __init__(self, controller: "_TaskController") -> None:
        self.controller = controller
        self.name = f"start:{controller.task.name}"

    def process_signal(self, signal: Signal) -> Outcome:
        if signal.signal_name != SIGNAL_START:
            return Outcome.error(data=f"unexpected signal {signal.signal_name}")
        self.controller.scheduled = True
        return Outcome.of(OUTCOME_START_ACK)


class _OutcomeAction(Action):
    """Parent-side receiver of a child's ``outcome`` signal."""

    def __init__(self, engine: "WorkflowEngine", task: Task) -> None:
        self.engine = engine
        self.task = task
        self.name = f"outcome:{task.name}"

    def process_signal(self, signal: Signal) -> Outcome:
        if signal.signal_name != SIGNAL_OUTCOME:
            return Outcome.error(data=f"unexpected signal {signal.signal_name}")
        data = signal.application_specific_data or {}
        self.engine._record_outcome(
            self.task,
            success=bool(data.get("success")),
            result=data.get("result"),
            error=data.get("error"),
        )
        return Outcome.of(OUTCOME_OUTCOME_ACK)


class _TaskController:
    """OPENflow-style transactional task controller for one task."""

    def __init__(self, engine: "WorkflowEngine", task: Task) -> None:
        self.engine = engine
        self.task = task
        self.scheduled = False
        self.start_action = _StartAction(self)

    def execute(self, parent_activity: Activity, as_compensation: bool = False) -> None:
        """Run the task in its own child activity (+ optional transaction)."""
        engine = self.engine
        child = engine.manager.begin(
            name=self.task.name, parent=parent_activity, executor=engine.executor
        )
        outcome_action = _OutcomeAction(engine, self.task)
        completed_set = BroadcastSignalSet(
            SIGNAL_OUTCOME, signal_set_name=COMPLETED_SET
        )
        child.add_action(COMPLETED_SET, outcome_action)
        context = {
            "results": dict(engine.result.outputs),
            "params": dict(self.task.params),
            "task": self.task.name,
            "tx": None,
        }
        tx = None
        if engine.tx_factory is not None:
            tx = engine.tx_factory.create(name=f"tx:{self.task.name}")
            context["tx"] = tx
        success = True
        result: Any = None
        error: Optional[str] = None
        work = self.task.compensation if as_compensation else self.task.work
        assert work is not None
        try:
            result = work(context)
            if tx is not None:
                tx.commit()
        except Exception as exc:  # noqa: BLE001 - task failures are data here
            success = False
            error = f"{type(exc).__name__}: {exc}"
            if tx is not None and not tx.status.is_terminal:
                tx.rollback()
        # Completion broadcasts the outcome signal to the parent's action.
        completed_set_data = {
            "task": self.task.name,
            "success": success,
            "result": result,
            "error": error,
            "compensation": as_compensation,
        }
        child.register_signal_set(
            BroadcastSignalSet(
                SIGNAL_OUTCOME,
                data=completed_set_data,
                signal_set_name=COMPLETED_SET,
            ),
            completion=True,
        )
        child.complete(
            CompletionStatus.SUCCESS if success else CompletionStatus.FAIL
        )


class WorkflowEngine:
    """Runs workflows over the Activity Service.

    ``executor`` (optional) routes every activity this engine begins —
    the parent coordinating activity and each task's child activity —
    through a specific :class:`~repro.core.broadcast.SerialBroadcastExecutor`
    instead of the manager-wide default (mirroring ``Saga(executor=...)``).
    The fig. 10 start/start_ack/outcome/outcome_ack choreography is
    executor-independent: traces stay identical to the serial sweep.
    """

    def __init__(
        self,
        manager: Any,
        tx_factory: Optional[Any] = None,
        executor: Optional[Any] = None,
    ) -> None:
        self.manager = manager
        self.tx_factory = tx_factory
        self.executor = executor
        self.result = WorkflowResult()
        self._workflow: Optional[Workflow] = None
        self._activated: Set[str] = set()
        self._wave_counter = 0

    # -- outcome recording (called from _OutcomeAction) --------------------------

    def _record_outcome(
        self, task: Task, success: bool, result: Any, error: Optional[str]
    ) -> None:
        if success:
            self.result.outputs[task.name] = result
            if self.result.states.get(task.name) is not TaskState.COMPENSATED:
                self.result.states[task.name] = TaskState.COMPLETED
        else:
            self.result.states[task.name] = TaskState.FAILED
            if error is not None:
                self.result.errors[task.name] = error

    # -- execution ------------------------------------------------------------------

    def run(self, workflow: Workflow) -> WorkflowResult:
        self._workflow = workflow
        self.result = WorkflowResult()
        self._activated = {
            name for name, task in workflow.tasks.items() if not task.fallback
        }
        for name in workflow.tasks:
            self.result.states[name] = (
                TaskState.PENDING if name in self._activated else TaskState.SKIPPED
            )
        parent = self.manager.begin(
            name=f"wf:{workflow.name}", executor=self.executor
        )
        failed_handled: Set[str] = set()
        while True:
            wave = self._ready_tasks()
            if not wave:
                new_failures = [
                    name
                    for name, state in self.result.states.items()
                    if state is TaskState.FAILED
                    and name not in failed_handled
                    and name in workflow.recovery_plans
                ]
                if not new_failures:
                    break
                for name in new_failures:
                    failed_handled.add(name)
                    self._apply_recovery(parent, workflow.recovery_plans[name])
                continue
            self._run_wave(parent, wave)
            for name in [
                task
                for task, state in self.result.states.items()
                if state is TaskState.FAILED and task not in failed_handled
            ]:
                plan = workflow.recovery_plans.get(name)
                if plan is not None:
                    failed_handled.add(name)
                    self._apply_recovery(parent, plan)
        self._skip_unreachable()
        parent.complete(
            CompletionStatus.SUCCESS
            if self.result.succeeded
            else CompletionStatus.FAIL
        )
        return self.result

    def _ready_tasks(self) -> List[Task]:
        assert self._workflow is not None
        ready = []
        for name in self._activated:
            if self.result.states.get(name) is not TaskState.PENDING:
                continue
            task = self._workflow.tasks[name]
            deps_done = all(
                self.result.states.get(dep) is TaskState.COMPLETED
                for dep in task.deps
            )
            if deps_done:
                ready.append(task)
        return sorted(ready, key=lambda t: t.name)

    def _run_wave(self, parent: Activity, wave: List[Task]) -> None:
        """Start every ready task (fig. 10: start/start_ack then outcomes)."""
        self._wave_counter += 1
        set_name = f"workflow.start.{self._wave_counter}"
        controllers = []
        for task in wave:
            controller = _TaskController(self, task)
            controllers.append(controller)
            parent.add_action(set_name, controller.start_action)
            self.result.states[task.name] = TaskState.STARTED
        parent.register_signal_set(
            BroadcastSignalSet(
                SIGNAL_START,
                data={"tasks": [task.name for task in wave]},
                signal_set_name=set_name,
            )
        )
        parent.signal(set_name)
        self.result.waves.append([task.name for task in wave])
        for controller in controllers:
            if controller.scheduled:
                controller.execute(parent)

    def _apply_recovery(self, parent: Activity, plan: RecoveryPlan) -> None:
        assert self._workflow is not None
        # Compensations run as ordinary (started) tasks, newest first.
        for name in plan.compensate:
            if self.result.states.get(name) is not TaskState.COMPLETED:
                continue
            task = self._workflow.tasks[name]
            self.result.states[name] = TaskState.COMPENSATED
            self._wave_counter += 1
            set_name = f"workflow.start.{self._wave_counter}"
            controller = _TaskController(self, task)
            parent.add_action(set_name, controller.start_action)
            parent.register_signal_set(
                BroadcastSignalSet(
                    SIGNAL_START,
                    data={"tasks": [f"tc:{name}"]},
                    signal_set_name=set_name,
                )
            )
            parent.signal(set_name)
            if controller.scheduled:
                controller.execute(parent, as_compensation=True)
            self.result.states[name] = TaskState.COMPENSATED
            self.result.compensated.append(name)
        for name in plan.continue_with:
            self._activate(name)
        # A continuation pulls in the fallback tasks that build on it
        # (t6' depends on t5' in fig. 2 and runs without being named).
        changed = True
        while changed:
            changed = False
            for name, task in self._workflow.tasks.items():
                if not task.fallback or name in self._activated:
                    continue
                deps_activated = all(dep in self._activated for dep in task.deps)
                rides_on_fallback = any(
                    self._workflow.tasks[dep].fallback for dep in task.deps
                )
                if deps_activated and rides_on_fallback:
                    self._activate(name)
                    changed = True

    def _activate(self, name: str) -> None:
        self._activated.add(name)
        if self.result.states.get(name) in (None, TaskState.SKIPPED):
            self.result.states[name] = TaskState.PENDING

    def _skip_unreachable(self) -> None:
        assert self._workflow is not None
        for name in self._activated:
            if self.result.states.get(name) is TaskState.PENDING:
                self.result.states[name] = TaskState.SKIPPED
