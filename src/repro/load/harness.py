"""Deterministic load harnesses over the simulated clock.

The knee of a loaded system — where latency departs from flat and
goodput from linear — is miserable to find with wall-clock load tests:
noisy, slow, machine-dependent.  These harnesses find it exactly, by
pairing the open-loop driver with a :class:`CapacityModel` (k identical
workers, fixed service time — a deterministic G/D/k station) on a
:class:`~repro.util.clock.SimulatedClock`.  Arrival times, queueing,
completion times, and therefore every latency quantile are pure
functions of the seed, so the fig. 22 bench can assert *ratios* between
the admission-controlled and ungated runs instead of machine-speed
numbers.

The station is the *model* of servant work; the activities flowing
through it are real — real :meth:`ActivityManager.begin`, real admission
gate, real completion broadcast — so what the harness measures is the
control plane's behaviour under load, not a simulation of it.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

from repro.core.manager import ActivityManager
from repro.exceptions import AdmissionRejected
from repro.load.collector import LoadCollector, peak_rss_bytes
from repro.load.generator import OpenLoopDriver, TrafficMix
from repro.util.rng import SeededRng


class CapacityModel:
    """k identical workers with fixed per-op service time (G/D/k).

    ``schedule(now)`` assigns the op to the earliest-free worker and
    returns its completion time; the queue is implicit in how far the
    worker pool has fallen behind the arrival stream.
    """

    def __init__(self, workers: int, service_time: float) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if service_time <= 0.0:
            raise ValueError("service time must be positive")
        self.workers = workers
        self.service_time = service_time
        self._free: List[float] = [0.0] * workers
        heapq.heapify(self._free)
        self.scheduled = 0

    @property
    def capacity(self) -> float:
        """Sustainable ops/s: workers / service_time."""
        return self.workers / self.service_time

    def schedule(self, now: float) -> float:
        """Admit one op at ``now``; return its completion time."""
        free = heapq.heappop(self._free)
        start = free if free > now else now
        finish = start + self.service_time
        heapq.heappush(self._free, finish)
        self.scheduled += 1
        return finish

    def backlog(self, now: float) -> float:
        """Seconds until the earliest worker frees up (0 when idle)."""
        return max(0.0, self._free[0] - now)

    def describe(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "service_time": self.service_time,
            "capacity_ops_s": self.capacity,
            "scheduled": self.scheduled,
        }


def run_open_loop_activities(
    manager: ActivityManager,
    *,
    rate: float,
    duration: float,
    workers: int,
    service_time: float,
    deadline: Optional[float] = None,
    rng: Optional[SeededRng] = None,
    mix: Optional[TrafficMix] = None,
    collector: Optional[LoadCollector] = None,
    sample_every: int = 1024,
) -> LoadCollector:
    """Poisson arrivals at ``rate`` through real activities, exactly.

    Each admitted arrival begins a real activity, occupies the capacity
    station, and completes (really — the gate slot is released through
    the manager's completion path) at the station's computed finish
    time.  Rejections (:class:`AdmissionRejected`) are collected as
    shed traffic.  With no
    admission gate configured the live population grows without bound
    past the knee — which is the point of the comparison.

    The manager must be on a :class:`SimulatedClock`; the whole run
    happens inside ``run_until_idle`` and takes no wall time
    proportional to ``duration``.
    """
    clock = manager.clock
    station = CapacityModel(workers, service_time)
    out = collector if collector is not None else LoadCollector("open-loop")
    seed = rng if rng is not None else SeededRng(22)

    def issue(kind: str, index: int, now: float) -> None:
        try:
            activity = manager.begin(name=f"load-{kind}")
        except AdmissionRejected as exc:
            out.rejected(now, exc)
            return
        out.started(now)
        finish = station.schedule(now)

        def complete() -> None:
            activity.complete()
            out.finished(finish, finish - now, deadline)
            if out.completed % sample_every == 0:
                out.sample_memory()

        clock.call_at(finish, complete)
        if out.live % sample_every == 0:
            out.sample_memory()

    driver = OpenLoopDriver(
        clock,
        seed.fork("arrivals"),
        rate,
        issue,
        mix=mix,
        duration=duration,
    )
    driver.start()
    clock.run_until_idle()
    out.sample_memory()
    return out


def run_population_hold(
    manager: ActivityManager,
    population: int,
    *,
    probe_extra: int = 16,
    sample_every: int = 8192,
) -> Dict[str, Any]:
    """Hold ``population`` concurrent live activities, then drain.

    The scaling claim behind fig. 22: the control plane sustains the
    target live population (10⁵–10⁶) with bounded per-activity memory,
    and — when an admission gate caps the population at exactly that
    size — begin number ``population + 1`` is shed instead of growing
    the heap.  Returns the evidence: peak live, sheds observed at the
    ceiling, and allocator-block / RSS ceilings.
    """
    clock = manager.clock
    out = LoadCollector("population")
    held = []
    for index in range(population):
        activity = manager.begin(name="hold")
        out.started(clock.now())
        held.append(activity)
        if index % sample_every == 0:
            out.sample_memory()
    out.sample_memory()

    shed = 0
    overflow = []
    for _ in range(probe_extra):
        try:
            overflow.append(manager.begin(name="hold-extra"))
        except AdmissionRejected as exc:
            shed += 1
            out.rejected(clock.now(), exc)
    for activity in overflow:  # ungated managers admit these; drain them
        activity.complete()

    for activity in held:
        activity.complete()
        out.finished(clock.now(), 0.0)
    clock.run_until_idle()

    return {
        "population": population,
        "live_peak": out.peak_live,
        "shed_at_ceiling": shed,
        "peak_blocks": out.peak_blocks,
        "blocks_per_activity": out.peak_blocks / population if population else 0.0,
        "peak_rss_bytes": peak_rss_bytes(),
    }
