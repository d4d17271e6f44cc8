"""Streaming measurement for load runs: latency, taxonomy, memory.

One collector per run (or per worker thread, merged at the end).  Every
counter is O(1) per operation — the latency distribution lives in a
:class:`~repro.load.sketch.QuantileSketch`, not a sample list — so the
measurement layer itself cannot become the memory ceiling the run is
trying to find.

Outcome taxonomy (mirrors the chaos ledger's discipline of classifying
*what the client saw*):

``ok``             completed within its deadline
``deadline_miss``  completed, but too late to count as goodput
``shed``           rejected by admission control (:class:`AdmissionRejected`)
``error``          any other failure
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional

from repro.exceptions import AdmissionRejected
from repro.load.sketch import QuantileSketch

try:  # POSIX-only; the harness degrades to allocator blocks elsewhere.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]


def peak_rss_bytes() -> Optional[int]:
    """Process peak RSS in bytes, or None where the OS can't say."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return peak * 1024 if sys.platform != "darwin" else peak


class LoadCollector:
    """Accumulates one load run's evidence; mergeable across threads."""

    def __init__(self, name: str = "load") -> None:
        self.name = name
        self.latency = QuantileSketch()
        self.ok = 0
        self.deadline_miss = 0
        self.shed = 0
        self.error = 0
        self.live = 0
        self.peak_live = 0
        self._start_blocks = sys.getallocatedblocks()
        self.peak_blocks = 0
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None

    # -- per-op hooks ------------------------------------------------------

    def started(self, now: float) -> None:
        """An operation was admitted and is now in flight."""
        if self.first_at is None:
            self.first_at = now
        self.live += 1
        if self.live > self.peak_live:
            self.peak_live = self.live

    def finished(self, now: float, latency: float, deadline: Optional[float] = None) -> None:
        """An in-flight operation completed; classify against ``deadline``."""
        self.live -= 1
        self.last_at = now
        self.latency.add(latency)
        if deadline is not None and latency > deadline:
            self.deadline_miss += 1
        else:
            self.ok += 1

    def rejected(self, now: float, exc: BaseException) -> None:
        """An operation never got in: classify the refusal."""
        self.last_at = now
        if isinstance(exc, AdmissionRejected):
            self.shed += 1
        else:
            self.error += 1

    def failed(self, now: float) -> None:
        """An admitted operation died in flight."""
        self.live -= 1
        self.last_at = now
        self.error += 1

    def sample_memory(self) -> None:
        """Record the live-object ceiling (call at suspected peaks)."""
        blocks = sys.getallocatedblocks() - self._start_blocks
        if blocks > self.peak_blocks:
            self.peak_blocks = blocks

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "LoadCollector") -> None:
        self.latency.merge(other.latency)
        self.ok += other.ok
        self.deadline_miss += other.deadline_miss
        self.shed += other.shed
        self.error += other.error
        # Per-thread peaks are not globally concurrent, so the honest
        # merged figure is the max, not the sum.
        self.peak_live = max(self.peak_live, other.peak_live)
        self.peak_blocks = max(self.peak_blocks, other.peak_blocks)
        for stamp in (other.first_at,):
            if stamp is not None and (self.first_at is None or stamp < self.first_at):
                self.first_at = stamp
        for stamp in (other.last_at,):
            if stamp is not None and (self.last_at is None or stamp > self.last_at):
                self.last_at = stamp

    @property
    def attempted(self) -> int:
        return self.ok + self.deadline_miss + self.shed + self.error

    @property
    def completed(self) -> int:
        return self.ok + self.deadline_miss

    def elapsed(self) -> float:
        if self.first_at is None or self.last_at is None:
            return 0.0
        return max(0.0, self.last_at - self.first_at)

    def goodput(self) -> float:
        """Operations per second that completed within their deadline."""
        window = self.elapsed()
        return self.ok / window if window > 0 else 0.0

    def throughput(self) -> float:
        window = self.elapsed()
        return self.completed / window if window > 0 else 0.0

    def report(self) -> Dict[str, Any]:
        rss = peak_rss_bytes()
        return {
            "name": self.name,
            "attempted": self.attempted,
            "ok": self.ok,
            "deadline_miss": self.deadline_miss,
            "shed": self.shed,
            "error": self.error,
            "elapsed_s": self.elapsed(),
            "goodput_ops_s": self.goodput(),
            "throughput_ops_s": self.throughput(),
            "peak_live": self.peak_live,
            "peak_blocks": self.peak_blocks,
            "peak_rss_bytes": rss,
            "latency": self.latency.describe(),
        }
