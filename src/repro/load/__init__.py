"""Load engine for the admission ceiling (fig. 22 and ``python -m repro.load``).

An open-loop Poisson driver over the deterministic
:class:`~repro.util.clock.SimulatedClock` (with a G/D/k capacity model,
for reproducible knee-finding sweeps), closed-loop client threads over
real ``SocketTransport`` sockets, and the streaming measurement layer
(quantile sketch, shed taxonomy, memory ceilings) that keeps per-op
state O(1) no matter how many operations flow through.

The package deliberately reuses the chaos layer's op-mix idiom
(:mod:`repro.chaos.workload`): weighted draws over sorted keys from a
forked :class:`~repro.util.rng.SeededRng`, so a load profile is replayed
exactly from its seed.
"""

from repro.load.collector import LoadCollector
from repro.load.generator import OpenLoopDriver, TrafficMix, run_closed_loop_threads
from repro.load.harness import (
    CapacityModel,
    run_open_loop_activities,
    run_population_hold,
)
from repro.load.popularity import ZipfPopularity
from repro.load.sketch import QuantileSketch

__all__ = [
    "CapacityModel",
    "LoadCollector",
    "OpenLoopDriver",
    "QuantileSketch",
    "TrafficMix",
    "ZipfPopularity",
    "run_closed_loop_threads",
    "run_open_loop_activities",
    "run_population_hold",
]
