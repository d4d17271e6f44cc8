"""Load drivers: open-loop Poisson arrivals and closed-loop client threads.

Two classic shapes, both seeded and replayable:

- **Open loop** (:class:`OpenLoopDriver`): arrivals are an external
  Poisson process at rate λ — the generator does not slow down when the
  system does, which is exactly what exposes the overload knee.  Runs on
  any clock with ``call_after`` (the deterministic
  :class:`~repro.util.clock.SimulatedClock` for sweeps, or a real-time
  clock).
- **Closed loop** (:func:`run_closed_loop_threads`): N client threads
  over real time, each issuing one op, thinking for a sampled pause,
  then issuing the next.  Throughput self-limits at
  N / (response + think) — the shape real client fleets have, and the
  one the ``python -m repro.load`` socket harness uses.

Op *kinds* come from a :class:`TrafficMix` — the same sorted-keys
weighted-draw idiom as :data:`repro.chaos.workload.DEFAULT_MIX`, so the
drawn op stream is a pure function of the seed.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from repro.util.clock import Clock
from repro.util.rng import SeededRng

#: Default op mix for load runs: mostly cheap activity begin/complete
#: cycles with a transactional minority, mirroring the chaos campaign's
#: weighting discipline (relative weights, not probabilities).
DEFAULT_LOAD_MIX: Dict[str, float] = {
    "activity": 0.7,
    "transaction": 0.2,
    "query": 0.1,
}


class TrafficMix:
    """Weighted op-kind draws from a seeded stream, replayable.

    The draw walks kinds in sorted order (dict order is an accident of
    construction; sorted order is part of the replay contract — same
    seed, same mix, same op stream, regardless of insertion order).
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self.weights = dict(DEFAULT_LOAD_MIX) if weights is None else dict(weights)
        if not self.weights:
            raise ValueError("traffic mix needs at least one op kind")
        for kind, weight in self.weights.items():
            if weight < 0.0:
                raise ValueError(f"negative weight for op kind {kind!r}")
        self._kinds = sorted(self.weights)
        self._total = sum(self.weights[k] for k in self._kinds)
        if self._total <= 0.0:
            raise ValueError("traffic mix weights sum to zero")

    def draw(self, rng: SeededRng) -> str:
        roll = rng.uniform(0.0, self._total)
        acc = 0.0
        for kind in self._kinds:
            acc += self.weights[kind]
            if roll < acc:
                return kind
        return self._kinds[-1]

    def describe(self) -> Dict[str, Any]:
        return {k: self.weights[k] / self._total for k in self._kinds}


class OpenLoopDriver:
    """Poisson arrivals at ``rate`` ops/s via a self-perpetuating timer.

    ``issue(kind, index, now)`` is called once per arrival; it must not
    block the clock (under ``SimulatedClock`` it runs inline during
    ``advance``).  Arrivals stop after ``duration`` seconds or
    ``max_ops`` issues, whichever comes first.
    """

    def __init__(
        self,
        clock: Clock,
        rng: SeededRng,
        rate: float,
        issue: Callable[[str, int, float], None],
        *,
        mix: Optional[TrafficMix] = None,
        duration: Optional[float] = None,
        max_ops: Optional[int] = None,
    ) -> None:
        if rate <= 0.0:
            raise ValueError("arrival rate must be positive")
        self.clock = clock
        self.rng = rng
        self.rate = rate
        self.issue = issue
        self.mix = mix or TrafficMix()
        self.duration = duration
        self.max_ops = max_ops
        self.issued = 0
        self._deadline: Optional[float] = None
        self._stopped = False

    def start(self) -> None:
        now = self.clock.now()
        if self.duration is not None:
            self._deadline = now + self.duration
        self.clock.call_after(self.rng.expovariate(self.rate), self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _exhausted(self, now: float) -> bool:
        if self._stopped:
            return True
        if self._deadline is not None and now >= self._deadline:
            return True
        return self.max_ops is not None and self.issued >= self.max_ops

    def _tick(self) -> None:
        now = self.clock.now()
        if self._exhausted(now):
            return
        kind = self.mix.draw(self.rng)
        index = self.issued
        self.issued += 1
        self.issue(kind, index, now)
        if not self._exhausted(self.clock.now()):
            self.clock.call_after(self.rng.expovariate(self.rate), self._tick)


def run_closed_loop_threads(
    clients: int,
    duration: float,
    op: Callable[[int, SeededRng], None],
    *,
    rng: Optional[SeededRng] = None,
    think: float = 0.0,
    barrier_timeout: float = 30.0,
) -> List[Optional[str]]:
    """Closed-loop load over *real* time: one OS thread per client.

    Each thread loops ``op(client, rng)`` then sleeps a sampled think
    pause until ``duration`` wall seconds elapse.  ``op`` does its own
    collecting (use one :class:`LoadCollector` per thread and merge).
    Returns one ``None``-or-error-string per client, so a harness can
    tell a clean run from a wedged one.
    """
    import time

    seed_rng = rng or SeededRng(0)
    rngs = [seed_rng.fork(f"thread-{i}") for i in range(clients)]
    errors: List[Optional[str]] = [None] * clients
    barrier = threading.Barrier(clients + 1)

    def client_loop(client: int) -> None:
        local_rng = rngs[client]
        try:
            barrier.wait(timeout=barrier_timeout)
            deadline = time.monotonic() + duration
            while time.monotonic() < deadline:
                op(client, local_rng)
                if think > 0.0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        break
                    time.sleep(min(local_rng.expovariate(1.0 / think), remaining))
        except Exception as exc:  # surfaced per-client, run keeps going
            errors[client] = f"{type(exc).__name__}: {exc}"

    threads = [
        threading.Thread(target=client_loop, args=(i,), name=f"load-client-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=barrier_timeout)
    for thread in threads:
        thread.join(timeout=duration + barrier_timeout)
    return errors
