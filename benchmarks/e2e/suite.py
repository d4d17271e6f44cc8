"""One benchmark run: set up, measure untraced, measure traced, audit.

``run_workload`` is the only entry point; ``run.py`` calls it once per
driver invocation (``--workload``) or once per workload for the whole
suite.  End-to-end metrics come from the untraced window alone; the
traced window that follows on the same deployment feeds the per-layer
metrics, and the gap between the two rates is the tracing overhead.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import harness
import metrics
import tracer as tracing
from workloads import E2E_DIR, WORKLOADS, Audit, Workload

RESULTS_DIR = os.path.join(E2E_DIR, "results")

SETUP_REPEATS = 3  # setup_s is their median
SETUP_TIMEOUT_S = 60.0
AUDIT_TIMEOUT_S = 60.0
WINDOW_GRACE_S = 30.0
TRACE_FILE_OPS = 200  # operations whose spans go to results/trace-<workload>.jsonl
# A traced run splits its seconds: two untraced reference halves around
# the traced window; the rest is left for draining and analysing spans.
REFERENCE_SHARE = 0.3
TRACED_SHARE = 0.5


class RunResult(NamedTuple):
    workload: str
    correct: bool
    attempted: int
    failed: int
    end_to_end: Optional[Dict[str, float]]
    per_layer: Optional[Dict[str, float]]
    budget: List[Tuple[str, float]]  # layer -> share of client op time
    problems: List[str]
    wall_s: float
    host_spin_ms: float  # median of the probes taken around the windows


class PhaseFailed(Exception):
    """A phase ended in a way that makes the rest of the run pointless."""


def _site_children() -> List[int]:
    """Pids of live ``repro.site`` daemons spawned by this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue  # raced with an exit
        if int(fields[1]) == me and fields[0] != "Z" and b"repro.site" in cmdline:
            found.append(int(entry))
    return found


class _Run:
    """State of one run; phases append to ``problems`` as they go."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.spins: List[float] = []

    def phase(self, name: str, seconds: float, body: Callable[[], Any]) -> Any:
        """Run ``body`` under a watchdog; a timeout or an exception ends
        the run (after printing what the daemons last said)."""
        workload = self.workload

        def on_expiry() -> None:
            print(workload.debug_dump(), file=sys.stderr, flush=True)
            workload.abort()

        with harness.Watchdog(name, seconds, on_expiry) as watchdog:
            try:
                result = body()
            except Exception as exc:  # noqa: BLE001 - reported, then the run ends
                if not watchdog.expired:
                    traceback.print_exc()
                    print(workload.debug_dump(), file=sys.stderr, flush=True)
                self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
                raise PhaseFailed(name) from exc
        if watchdog.expired:
            self.problems.append(f"{name}: timed out after {seconds:.0f} s")
            raise PhaseFailed(name)
        return result

    def window(
        self,
        name: str,
        seconds: float,
        execute: Callable[[Any], Any],
        cpu: Optional[Callable[[], harness.CpuSample]] = None,
    ) -> harness.Window:
        workload = self.workload
        self.spins.append(harness.host_spin_ms())
        window = self.phase(
            name,
            seconds + WINDOW_GRACE_S,
            lambda: harness.run_window(workload.next_op, execute, seconds, cpu=cpu),
        )
        self.spins.append(harness.host_spin_ms())
        self.attempted += window.ok + window.failed
        self.failed += window.failed
        for error in window.errors:
            self.problems.append(f"{name}: {error}")
        if window.aborted or window.ok == 0:
            self.problems.append(f"{name}: gave up after repeated failures")
            raise PhaseFailed(name)
        return window


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """One complete run of workload ``name``, as the benchmark driver
    asks for it.

    Untraced (``trace`` false): one window of ``seconds`` gives the
    end-to-end metrics.  Traced: a traced window between two untraced
    reference halves (so that drift over the run does not pass for
    tracing overhead) gives the per-layer metrics, and the audit also
    runs the report-only probe.
    """
    began = time.perf_counter()
    workdir = os.path.join(RESULTS_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir)
    run = _Run(workload)
    end_to_end: Optional[Dict[str, float]] = None
    per_layer: Optional[Dict[str, float]] = None
    budget: List[Tuple[str, float]] = []
    try:
        setup_s = _setup(run)
        if not trace:
            window = _untraced_window(run, seconds)
            pids = [os.getpid()] + workload.daemon_pids()
            peak = sum(harness.peak_rss_mb(pid) for pid in pids)
            end_to_end = metrics.end_to_end(window, peak, setup_s)
            _audit(run, probe=False)
        else:
            half = seconds * REFERENCE_SHARE / 2
            before = _untraced_window(run, half)
            traced = _traced_window(run, seconds * TRACED_SHARE)
            after = _untraced_window(run, half)
            audit = _audit(run, probe=True)
            per_layer = metrics.per_layer(
                workload=name,
                kinds=workload.kinds,
                analysis=traced.analysis,
                client_pid=os.getpid(),
                counters=traced.counters,
                reference=harness.Window(
                    before.slices + after.slices, before.errors + after.errors, False
                ),
                traced=traced.window,
                daemon_rss_mb=traced.daemon_rss_mb,
                written_bytes=traced.written_bytes,
                restart_recover_ms=audit.restart_recover_ms,
                wal_replay_ms=audit.wal_replay_ms,
                wal_replay_records=audit.wal_replay_records,
                probe_ok=audit.concurrent_probe_ok,
                host_spin_ms=statistics.median(run.spins),
            )
            budget = metrics.layer_budget(traced.analysis)
    except PhaseFailed:
        pass
    finally:
        try:
            workload.teardown()
        except Exception as exc:  # noqa: BLE001 - still check for leaked daemons
            run.problems.append(f"teardown: {type(exc).__name__}: {exc}")
        leaked = _site_children()
        for pid in leaked:
            os.kill(pid, 9)
        if leaked:
            run.problems.append(f"teardown: site daemons still alive: {leaked}")
        try:
            os.rmdir(workdir)
        except OSError:
            pass  # another run's directories are still in it
    return RunResult(
        workload=name,
        correct=not run.problems and run.failed == 0,
        attempted=max(1, run.attempted),
        failed=run.failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        budget=budget,
        problems=run.problems,
        wall_s=time.perf_counter() - began,
        host_spin_ms=statistics.median(run.spins) if run.spins else 0.0,
    )


def _audit(run: _Run, probe: bool) -> Audit:
    audit: Audit = run.phase(
        "audit", AUDIT_TIMEOUT_S, lambda: run.workload.audit(probe=probe)
    )
    run.problems.extend(audit.problems)
    return audit


def _untraced_window(run: _Run, seconds: float) -> harness.Window:
    return run.window(
        "untraced window",
        seconds,
        run.workload.execute,
        cpu=harness.cpu_sampler(run.workload.daemon_pids()),
    )


def _setup(run: _Run) -> float:
    """Boot + warm up ``SETUP_REPEATS`` times; the last deployment stays
    up for the measurement.  Returns the median set-up time."""
    workload = run.workload
    samples = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        began = time.perf_counter()
        run.phase("setup", SETUP_TIMEOUT_S, workload.setup)
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


class Traced(NamedTuple):
    window: harness.Window
    analysis: tracing.Analysis
    counters: Dict[str, float]  # summed over the processes, across the window
    written_bytes: int
    daemon_rss_mb: float


def _traced_window(run: _Run, seconds: float) -> Traced:
    workload = run.workload
    pids = workload.daemon_pids()
    recorder = tracing.Tracer()

    def start() -> Tuple[List[Dict[str, Any]], int]:
        before = workload.counters()
        written = sum(harness.written_bytes(pid) for pid in pids)
        workload.trace_start()
        return before, written

    before, written_before = run.phase("trace start", SETUP_TIMEOUT_S, start)
    recorder.install()
    try:
        window = run.window(
            "traced window", seconds, recorder.wrap(workload.execute, tracing.OP_SPAN)
        )
    finally:
        recorder.uninstall()

    def stop() -> Tuple[List[Tuple[int, bytes]], List[Dict[str, Any]]]:
        return workload.trace_stop(), workload.counters()

    daemon_spans, after = run.phase("trace stop", SETUP_TIMEOUT_S, stop)
    written = sum(harness.written_bytes(pid) for pid in pids) - written_before
    daemon_rss = sum(harness.rss_mb(pid) for pid in pids)

    spans = tracing.decode_spans(os.getpid(), recorder.drain())
    for pid, raw in daemon_spans:
        spans.extend(tracing.decode_spans(pid, raw))
    analysis = tracing.analyze(spans)
    _write_trace_file(workload.name, spans)
    return Traced(
        window, analysis, metrics.counter_delta(before, after), written, daemon_rss
    )


def _write_trace_file(name: str, spans: List[tracing.Span]) -> None:
    """The spans of the first ``TRACE_FILE_OPS`` operations, by start time."""
    ops = sorted(s.end_ns for s in spans if s.name == tracing.OP_SPAN)
    if not ops:
        return
    cutoff = ops[min(len(ops), TRACE_FILE_OPS) - 1]
    chosen = sorted((s for s in spans if s.end_ns <= cutoff), key=lambda s: s.start_ns)
    tracing.write_trace(os.path.join(RESULTS_DIR, f"trace-{name}.jsonl"), chosen)
