"""Allocation profiling hooks for the hot-path engine.

The raw-speed pass (README "Hot-path engine") claims fewer allocations
per delivery, not just fewer cycles.  This module is the measurement
side of that claim:

- :class:`AllocationProbe` — a context manager counting the *net* CPython
  allocator blocks created inside the ``with`` body
  (``sys.getallocatedblocks`` delta with the cyclic GC paused, so a
  concurrent collection cannot eat the evidence).  Cheap enough to wrap
  a million-iteration loop.
- :func:`allocations_per_call` — runs a callable ``repeat`` times inside
  one probe and returns the mean net blocks per call: the per-delivery
  churn number the bench JSON reports.
- :func:`trace_top` — a heavier ``tracemalloc``-based helper attributing
  allocations to source lines, for the profiling how-to in the README.

Blocks are a proxy, not bytes: one dict-backed record costs at least two
blocks (instance + ``__dict__``) where a slotted record costs one, which
is exactly the delta the record-layer tests pin down.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from typing import Any, Callable, List, Tuple


class AllocationProbe:
    """Count net allocator blocks created inside a ``with`` block.

    >>> with AllocationProbe() as probe:
    ...     payload = [object() for _ in range(100)]
    >>> probe.blocks >= 100
    True

    The cyclic GC is paused for the duration (and restored to its prior
    state on exit) so a collection triggered mid-measurement cannot make
    the delta negative; the probe itself allocates nothing between the
    two samples.  The count is process-wide, so the switch interval is
    raised too: no other thread runs while the probed code does not block.
    """

    __slots__ = ("blocks", "_gc_was_enabled", "_switch_interval")

    def __init__(self) -> None:
        self.blocks = 0
        self._gc_was_enabled = False

    def __enter__(self) -> "AllocationProbe":
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)  # a window that does not block is not preempted
        time.sleep(0)  # a thread already waiting runs now, not mid-window
        gc.collect()
        self.blocks = -sys.getallocatedblocks()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.blocks += sys.getallocatedblocks()
        sys.setswitchinterval(self._switch_interval)
        time.sleep(0)  # threads queued on the long interval run now
        if self._gc_was_enabled:
            gc.enable()


def allocations_per_call(
    fn: Callable[[], Any], repeat: int = 1000, warmup: int = 10
) -> float:
    """Mean net allocator blocks per ``fn()`` call.

    ``warmup`` calls run first so one-time caches (encode caches, method
    caches, interned strings) do not bill their setup to the steady
    state — the number that comes back is the per-delivery churn.
    """
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    for _ in range(warmup):
        fn()
    with AllocationProbe() as probe:
        for _ in range(repeat):
            fn()
    return probe.blocks / repeat


def retained_blocks_per_object(
    factory: Callable[[], Any], count: int = 1000
) -> float:
    """Mean allocator blocks per *live* object built by ``factory``.

    Unlike :func:`allocations_per_call` — which reports *net* churn and
    reads ~0 for a factory whose product dies immediately — this keeps
    all ``count`` objects alive across the measurement, so the number is
    the storage cost of one instance (amortising the holding list).
    A ``__dict__``-backed record costs at least two blocks here where a
    slotted one costs one: the record-layer delta, directly observable.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    factory()  # warm one-time caches outside the probe
    keep: List[Any] = []
    append = keep.append
    with AllocationProbe() as probe:
        for _ in range(count):
            append(factory())
    blocks = probe.blocks
    del keep
    return blocks / count


def trace_top(
    fn: Callable[[], Any], limit: int = 20, key_type: str = "lineno"
) -> List[Tuple[str, int, int]]:
    """Attribute ``fn()``'s allocations to source lines via tracemalloc.

    Returns up to ``limit`` rows of ``(location, size_bytes, count)``
    ordered by size.  Orders of magnitude slower than
    :class:`AllocationProbe`; use it to find *where* churn comes from,
    not to assert on totals.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        fn()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    rows: List[Tuple[str, int, int]] = []
    for stat in after.compare_to(before, key_type)[:limit]:
        frame = stat.traceback[0]
        rows.append(
            (f"{frame.filename}:{frame.lineno}", stat.size_diff, stat.count_diff)
        )
    return rows
