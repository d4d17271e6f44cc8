"""One retry policy for every loop that waits on a flaky dependency.

Before this module the codebase had three hand-rolled retry loops — the
socket transport's reconnect (`base * 2**(attempt-1)`, no jitter, no
cap), the site daemon's recovery replay (fixed ``poll_interval``), and
the in-doubt resolution poll (the same fixed interval).  Lockstep
backoff is the classic thundering-herd bug: every pool slot of every
client re-dials a dead peer at the same instants, and a fixed poll burns
CPU at the same rate whether the peer died a second or an hour ago.

:class:`RetryPolicy` unifies them: capped exponential backoff, full
jitter (a uniform draw over ``[delay*(1-jitter), delay]``), and an
optional *deadline budget* — the total wall/simulated time the caller is
willing to spend across all attempts.  The policy is a frozen value
object; all state lives in the loop using it, so one policy instance can
be shared by every connection of a transport.

Determinism: jitter draws come from the caller's
:class:`~repro.util.rng.SeededRng` when provided, so chaos campaigns
replay byte-identically from a seed; with no rng the policy falls back
to ``random`` (production jitter does not need to be reproducible).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type

from repro.exceptions import ConfigurationError

_LN10_INV = 0.43429448190325176  # 1/ln(10); kept here for the detector's phi


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter and a deadline budget.

    ``max_attempts``
        Total tries (the first attempt counts).  ``1`` means fail fast.
    ``base_delay`` / ``multiplier`` / ``max_delay``
        Delay before retry *n* (1-based) is
        ``min(base_delay * multiplier**(n-1), max_delay)`` — the hard
        cap keeps a long outage from growing unbounded sleeps.
    ``jitter``
        Fraction of each delay that is randomized: the actual sleep is
        drawn uniformly from ``[delay*(1-jitter), delay]``.  ``0``
        disables jitter (byte-identical un-jittered behaviour), ``1`` is
        full jitter.
    ``deadline``
        Optional total time budget in seconds, measured from the first
        attempt.  A retry whose backoff would land past the budget is
        not attempted: the caller gets the last error *now* instead of
        blocking past its deadline.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"RetryPolicy: max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("RetryPolicy: delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"RetryPolicy: multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"RetryPolicy: jitter must be in [0, 1], got {self.jitter}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"RetryPolicy: deadline must be > 0, got {self.deadline}"
            )

    # -- delay schedule ----------------------------------------------------

    def delay(self, retry_index: int, rng: Optional[object] = None) -> float:
        """The (jittered) sleep before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            return 0.0
        raw = self.base_delay * (self.multiplier ** (retry_index - 1))
        capped = min(raw, self.max_delay)
        if self.jitter == 0.0 or capped == 0.0:
            return capped
        low = capped * (1.0 - self.jitter)
        if rng is not None:
            return rng.uniform(low, capped)
        return random.uniform(low, capped)

    def backoffs(self, rng: Optional[object] = None) -> Iterator[float]:
        """The capped, jittered delay sequence (``max_attempts - 1`` long)."""
        for retry_index in range(1, self.max_attempts):
            yield self.delay(retry_index, rng)

    # -- driving a callable ------------------------------------------------

    def call(
        self,
        fn: Callable[[], object],
        *,
        retry_on: Tuple[Type[BaseException], ...],
        sleep: Optional[Callable[[float], None]] = None,
        now: Optional[Callable[[], float]] = None,
        rng: Optional[object] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> object:
        """Run ``fn`` under this policy, retrying on ``retry_on``.

        ``sleep``/``now`` default to real time; pass a clock's methods
        for simulated time.  ``on_retry(retry_index, error)`` fires
        before each backoff sleep (transports use it to count distinct
        reconnect attempts).  Exhausted attempts or a blown deadline
        re-raise the *last* error — the caller sees the real failure,
        annotated by whoever catches it.
        """
        sleep_fn = sleep if sleep is not None else time.sleep
        now_fn = now if now is not None else time.monotonic
        started = now_fn()
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt:
                pause = self.delay(attempt, rng)
                if self.deadline is not None and (
                    now_fn() - started + pause > self.deadline
                ):
                    break  # the retry would land past the budget
                if on_retry is not None:
                    on_retry(attempt, last)  # type: ignore[arg-type]
                if pause > 0:
                    sleep_fn(pause)
            try:
                return fn()
            except retry_on as exc:
                last = exc
        assert last is not None
        raise last

    def describe(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "deadline": self.deadline,
        }
