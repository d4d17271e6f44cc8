"""Utility substrate: simulated time and deadline timers, deterministic ids,
event tracing and striped registries."""

from repro.util.clock import Clock, SimulatedClock, Timer, TimerQueue, WallClock
from repro.util.events import EventLog, TraceEvent
from repro.util.idgen import IdGenerator, fresh_uid
from repro.util.rng import SeededRng
from repro.util.sharding import StripedMap

__all__ = [
    "Clock",
    "SimulatedClock",
    "WallClock",
    "Timer",
    "TimerQueue",
    "EventLog",
    "TraceEvent",
    "IdGenerator",
    "fresh_uid",
    "SeededRng",
    "StripedMap",
]
