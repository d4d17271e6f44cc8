"""Measurement plumbing: closed-loop windows, slice statistics, /proc
sampling and the phase watchdog.

Everything here is independent of the system under test, so the maths
can be unit-tested on synthetic numbers (``tests/test_harness.py``).
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

SLICE_SECONDS = 0.5
# The share of a window's slices, fastest first, that the timing metrics
# are computed over (see steady_slices).
STEADY_SHARE = 0.25
MAX_CONSECUTIVE_FAILURES = 20  # the deployment is gone; stop burning the window
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

CpuSample = Tuple[float, float]  # cumulative (client, daemons) CPU seconds


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[rank]


class Slice(NamedTuple):
    elapsed_s: float
    latencies_s: List[float]  # successful ops only, in completion order
    kinds: List[int]  # op kind of each latency
    failed: int
    client_cpu_s: float = 0.0
    daemon_cpu_s: float = 0.0

    @property
    def rate(self) -> float:
        return len(self.latencies_s) / self.elapsed_s if self.elapsed_s > 0 else 0.0


class Window(NamedTuple):
    slices: List[Slice]
    errors: List[str]  # first few failure descriptions
    aborted: bool

    @property
    def ok(self) -> int:
        return sum(len(s.latencies_s) for s in self.slices)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.slices)


def run_window(
    next_op: Callable[[], Any],
    execute: Callable[[Any], Tuple[int, bool]],
    seconds: float,
    slice_seconds: float = SLICE_SECONDS,
    clock: Callable[[], float] = time.perf_counter,
    cpu: Optional[Callable[[], CpuSample]] = None,
) -> Window:
    """Drive one closed-loop client for ``seconds``, cut into slices.

    ``execute(spec)`` returns ``(kind, correct)``; raising counts as a
    failed op.  The next op is issued when the previous one returned.
    ``cpu`` (cumulative CPU seconds) is sampled at the slice boundaries.
    """
    count = max(1, round(seconds / slice_seconds))
    length = seconds / count
    slices: List[Slice] = []
    errors: List[str] = []
    streak = 0
    begin = now = clock()
    cpu_now = cpu() if cpu is not None else (0.0, 0.0)
    for k in range(count):
        deadline = begin + (k + 1) * length
        latencies: List[float] = []
        kinds: List[int] = []
        failed = 0
        slice_begin, cpu_begin = now, cpu_now
        while now < deadline and streak < MAX_CONSECUTIVE_FAILURES:
            spec = next_op()
            started = clock()
            try:
                kind, correct = execute(spec)
                problem = None if correct else f"wrong result for {spec!r}"
            except Exception as exc:  # noqa: BLE001 - an op failure is data
                problem = f"{type(exc).__name__}: {exc} (op {spec!r})"
            now = clock()
            if problem is None:
                latencies.append(now - started)
                kinds.append(kind)
                streak = 0
            else:
                failed += 1
                streak += 1
                if len(errors) < 5:
                    errors.append(problem)
        if cpu is not None:
            cpu_now = cpu()
        slices.append(
            Slice(
                now - slice_begin,
                latencies,
                kinds,
                failed,
                cpu_now[0] - cpu_begin[0],
                cpu_now[1] - cpu_begin[1],
            )
        )
        if streak >= MAX_CONSECUTIVE_FAILURES:
            return Window(slices, errors, aborted=True)
    return Window(slices, errors, aborted=False)


def steady_slices(window: Window) -> List[Slice]:
    """The fastest ``STEADY_SHARE`` of the window's slices.

    On a shared host a neighbour's burst slows whole stretches of a run,
    sometimes most of it.  The slices with the highest throughput are
    the ones the host left alone; every timing metric is computed over
    them pooled, which repeats from run to run far better than a figure
    over the whole window (README, "Calibration").
    """
    ranked = sorted(
        (s for s in window.slices if s.latencies_s), key=lambda s: -s.rate
    )
    if not ranked:
        raise ValueError("no slice completed an operation")
    return ranked[: max(1, round(len(ranked) * STEADY_SHARE))]


def steady_metrics(window: Window) -> Dict[str, float]:
    """Rate, latency percentiles and CPU per op over the steady slices."""
    chosen = steady_slices(window)
    latencies = sorted(latency for s in chosen for latency in s.latencies_s)
    return {
        "ops_per_s": len(latencies) / sum(s.elapsed_s for s in chosen),
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p95_ms": percentile(latencies, 0.95) * 1000.0,
        "cpu_ms_per_op": sum(s.client_cpu_s + s.daemon_cpu_s for s in chosen)
        * 1000.0
        / len(latencies),
        "daemon_cpu_us_per_op": sum(s.daemon_cpu_s for s in chosen) * 1e6 / len(latencies),
    }


def whole_window(window: Window) -> Dict[str, float]:
    """Figures over every slice, disturbed or not (honesty checks)."""
    latencies = sorted(latency for s in window.slices for latency in s.latencies_s)
    rates = [s.rate for s in window.slices if s.latencies_s]
    return {
        "p99_ms": percentile(latencies, 0.99) * 1000.0,
        "slice_spread_pct": (max(rates) - min(rates)) / statistics.median(rates) * 100.0,
    }


def kind_p50_ms(window: Window, kind: int) -> float:
    """Median client latency of one op kind over the whole window (0.0
    when the window saw none)."""
    values = [
        latency
        for piece in window.slices
        for latency, k in zip(piece.latencies_s, piece.kinds)
        if k == kind
    ]
    return statistics.median(values) * 1000.0 if values else 0.0


# -- /proc sampling ------------------------------------------------------------


def _status_kb(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` so far, all threads."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # comm may contain spaces; the fields after the closing paren don't.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    return _status_kb(pid, "VmHWM") / 1024.0


def rss_mb(pid: int) -> float:
    return _status_kb(pid, "VmRSS") / 1024.0


def written_bytes(pid: int) -> int:
    """Bytes ``pid`` passed to write(2)-family calls (files, not sockets
    sent with send(2)); 0 where /proc/<pid>/io is not readable."""
    try:
        with open(f"/proc/{pid}/io", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def host_spin_ms(iterations: int = 100_000, repeats: int = 3) -> float:
    """Best of a few fixed pure-Python loops: how fast the host runs
    this process right now.  Tells a slower host from slower code."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0
        for i in range(iterations):
            total += i * i
        best = min(best, time.perf_counter() - began)
    return best * 1000.0


def cpu_sampler(daemon_pids: Sequence[int]) -> Callable[[], CpuSample]:
    """Cumulative CPU of this process and of the daemons, for run_window."""
    pids = list(daemon_pids)

    def sample() -> CpuSample:
        return time.process_time(), sum(cpu_seconds(pid) for pid in pids)

    return sample


# -- watchdog ------------------------------------------------------------------


class Watchdog:
    """Bounds one phase: on expiry run ``on_expiry`` (kill the cluster,
    which fails whatever socket call the main thread is blocked in) and,
    should the main thread still not come back, end the process."""

    GRACE_SECONDS = 15.0

    def __init__(
        self, phase: str, seconds: float, on_expiry: Callable[[], None]
    ) -> None:
        self.phase = phase
        self.expired = False
        self._on_expiry = on_expiry
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True
        self._last_resort: Optional[threading.Timer] = None

    def _fire(self) -> None:
        self.expired = True
        print(f"e2e: phase {self.phase!r} timed out", file=sys.stderr, flush=True)
        self._last_resort = threading.Timer(self.GRACE_SECONDS, os._exit, args=(3,))
        self._last_resort.daemon = True
        self._last_resort.start()
        self._on_expiry()

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._timer.cancel()
        if self._last_resort is not None:
            self._last_resort.cancel()
