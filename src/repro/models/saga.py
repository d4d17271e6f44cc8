"""Sagas [Garcia-Molina & Salem 1987] on the Activity Service.

A saga is a sequence of independent (sub-)transactions T1…Tn, each with a
compensating transaction C1…Cn.  If Tk fails, the saga runs
C(k-1)…C1 in *reverse* order, undoing the committed prefix.

The paper names Sagas as the canonical model a compensation SignalSet
serves ("if a Sagas type model is in use then a compensation Signal may
be required to be sent to Actions if a failure has happened", §3.2.3).
The mapping here:

- each completed step registers a compensation Action with the saga
  activity's compensation SignalSet;
- on failure, the :class:`SagaCompensationSignalSet` emits one
  ``compensate`` signal *per completed step, newest first*; each signal
  names its target step so only that step's action performs work — this
  is how reverse ordering is expressed without touching the coordinator's
  registration-order broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.action import Action
from repro.core.activity import Activity
from repro.core.signal_set import SignalSet
from repro.core.signals import Outcome, Signal
from repro.core.status import CompletionStatus
from repro.exceptions import ReproError

COMPENSATION_SET = "saga.compensation"
SIGNAL_COMPENSATE = "compensate"
SIGNAL_FORGET = "forget"
OUTCOME_COMPENSATED = "compensated"
OUTCOME_NOT_MINE = "not-mine"
OUTCOME_FORGOTTEN = "forgotten"


class SagaAbortedError(ReproError):
    """The saga failed and its completed prefix was compensated."""

    def __init__(self, failed_step: str, compensated: List[str]) -> None:
        super().__init__(
            f"saga aborted at step {failed_step!r}; compensated {compensated}"
        )
        self.failed_step = failed_step
        self.compensated = compensated


@dataclass
class SagaStep:
    name: str
    work: Callable[[Dict[str, Any]], Any]
    compensation: Optional[Callable[[Dict[str, Any]], Any]] = None


@dataclass
class SagaResult:
    completed: List[str] = field(default_factory=list)
    compensated: List[str] = field(default_factory=list)
    failed_step: Optional[str] = None
    outputs: Dict[str, Any] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.failed_step is None


class SagaCompensationSignalSet(SignalSet):
    """Emits per-step compensate signals in reverse completion order.

    On success (completion status SUCCESS) it instead emits a single
    ``forget`` signal so actions can discard their compensation records.
    """

    def __init__(self, completed_steps: List[str]) -> None:
        self.signal_set_name = COMPENSATION_SET
        self._queue: List[str] = list(reversed(completed_steps))
        self._position = -1
        self._forget_sent = False
        self.responses: List[Tuple[str, Outcome]] = []

    def get_signal(self) -> Tuple[Optional[Signal], bool]:
        if self.get_completion_status() is CompletionStatus.SUCCESS:
            if self._forget_sent:
                return None, True
            self._forget_sent = True
            return Signal(SIGNAL_FORGET, self.signal_set_name), True
        self._position += 1
        if self._position >= len(self._queue):
            return None, True
        step = self._queue[self._position]
        last = self._position == len(self._queue) - 1
        return (
            Signal(
                SIGNAL_COMPENSATE,
                self.signal_set_name,
                application_specific_data={"step": step},
            ),
            last,
        )

    def set_response(self, response: Outcome) -> bool:
        current = (
            SIGNAL_FORGET
            if self._forget_sent
            else self._queue[self._position]
            if 0 <= self._position < len(self._queue)
            else "?"
        )
        self.responses.append((current, response))
        return False

    def get_outcome(self) -> Outcome:
        compensated = sorted(
            {
                step
                for step, response in self.responses
                if response.name == OUTCOME_COMPENSATED
            }
        )
        if self.get_completion_status() is CompletionStatus.SUCCESS:
            return Outcome.done(data=compensated)
        return Outcome.of("saga.compensated", data=compensated)


class _StepCompensationAction(Action):
    """Performs one step's compensation when its own signal arrives."""

    def __init__(self, saga: "Saga", step: SagaStep) -> None:
        self.saga = saga
        self.step = step
        self.name = f"compensate:{step.name}"
        self.compensated = False

    def process_signal(self, signal: Signal) -> Outcome:
        if signal.signal_name == SIGNAL_FORGET:
            return Outcome.of(OUTCOME_FORGOTTEN)
        if signal.signal_name != SIGNAL_COMPENSATE:
            return Outcome.error(data=f"unexpected signal {signal.signal_name}")
        target = (signal.application_specific_data or {}).get("step")
        if target != self.step.name:
            return Outcome.of(OUTCOME_NOT_MINE)
        if not self.compensated and self.step.compensation is not None:
            self.step.compensation(self.saga.context)
            self.compensated = True
            self.saga.result.compensated.append(self.step.name)
        return Outcome.of(OUTCOME_COMPENSATED)


class Saga:
    """Sequential saga executor over the Activity Service.

    ``executor`` (optional) routes the compensation sweep's per-signal
    fan-out through a specific
    :class:`~repro.core.broadcast.SerialBroadcastExecutor` instead of the
    manager-wide default — a thread-pool executor overlaps the
    not-mine/compensated replies of all registered step actions while
    preserving the serial sweep's logical trace and reverse ordering
    (the per-step signals themselves stay sequential by construction).
    """

    def __init__(
        self, manager: Any, name: str = "saga", executor: Optional[Any] = None
    ) -> None:
        self.manager = manager
        self.name = name
        self.executor = executor
        self.steps: List[SagaStep] = []
        self.context: Dict[str, Any] = {"results": {}}
        self.result = SagaResult()
        self.activity: Optional[Activity] = None

    def add_step(
        self,
        name: str,
        work: Callable[[Dict[str, Any]], Any],
        compensation: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> "Saga":
        self.steps.append(SagaStep(name=name, work=work, compensation=compensation))
        return self

    def run(self, raise_on_abort: bool = False) -> SagaResult:
        """Execute steps; compensate the completed prefix on failure."""
        self.result = SagaResult()
        begin_kwargs = {"executor": self.executor} if self.executor is not None else {}
        self.activity = self.manager.begin(name=f"saga:{self.name}", **begin_kwargs)
        failed: Optional[str] = None
        for step in self.steps:
            try:
                output = step.work(self.context)
            except Exception:  # noqa: BLE001 - step failure triggers compensation
                failed = step.name
                break
            self.result.completed.append(step.name)
            self.result.outputs[step.name] = output
            self.context["results"][step.name] = output
            if step.compensation is not None:
                self.activity.add_action(
                    COMPENSATION_SET, _StepCompensationAction(self, step)
                )
        compensation_set = SagaCompensationSignalSet(
            [
                name
                for name in self.result.completed
                if self._step(name).compensation is not None
            ]
        )
        self.activity.register_signal_set(compensation_set, completion=True)
        if failed is None:
            self.activity.complete(CompletionStatus.SUCCESS)
        else:
            self.result.failed_step = failed
            self.activity.complete(CompletionStatus.FAIL)
            if raise_on_abort:
                raise SagaAbortedError(failed, list(self.result.compensated))
        return self.result

    def _step(self, name: str) -> SagaStep:
        for step in self.steps:
            if step.name == name:
                return step
        raise KeyError(name)
