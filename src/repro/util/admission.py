"""Admission control: one live-population ceiling that fails fast.

:class:`AdmissionGate` caps how many activities (or top-level
transactions) are live at once.  ``ActivityManager.begin`` and
``TransactionFactory.create`` consult one when ``max_live`` is
configured; nothing is constructed when it is not, so the ungated code
path (and every figure trace) is untouched.

At capacity an admit is refused at once with
:class:`~repro.exceptions.AdmissionRejected`: nothing waits, so the gate
is safe under a :class:`~repro.util.clock.SimulatedClock` and a client
sees overload as a typed, retryable error.  A token that has been
admitted is never revoked — in-flight work always runs to completion and
returns its slot through :meth:`AdmissionGate.release`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.exceptions import AdmissionRejected, ConfigurationError, OverloadError


class AdmissionGate:
    """A ceiling of ``max_live`` concurrently admitted tokens.

    ``name`` labels error messages and :meth:`describe`.
    """

    def __init__(self, max_live: int, *, name: str = "admission") -> None:
        if not isinstance(max_live, int) or max_live < 1:
            raise ConfigurationError(f"max_live must be >= 1, got {max_live!r}")
        self.max_live = max_live
        self.name = name
        self._lock = threading.Lock()
        self._live = 0
        # Stats — plain ints mutated under the lock.
        self.admitted = 0
        self.rejected_full = 0
        self.peak_live = 0

    @property
    def live(self) -> int:
        return self._live

    def admit(self) -> None:
        """Claim one live slot or raise :class:`AdmissionRejected`.

        Never blocks.  On success the caller owns one token and must
        eventually :meth:`release` it exactly once.
        """
        with self._lock:
            if self._live >= self.max_live:
                self.rejected_full += 1
                raise AdmissionRejected(
                    f"{self.name}: at capacity ({self._live}/{self.max_live} live)"
                )
            self._live += 1
            self.admitted += 1
            if self._live > self.peak_live:
                self.peak_live = self._live

    def release(self) -> None:
        """Return one live slot."""
        with self._lock:
            if self._live <= 0:
                raise OverloadError(f"{self.name}: release without admit")
            self._live -= 1

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "name": self.name,
                "max_live": self.max_live,
                "live": self._live,
                "admitted": self.admitted,
                "rejected_full": self.rejected_full,
                "peak_live": self.peak_live,
            }


def build_gate(config: Any, *, name: str = "admission") -> Optional[AdmissionGate]:
    """Build the gate a ``RuntimeConfig``/``FactoryConfig`` describes.

    Returns ``None`` when ``config.max_live`` is unset — the caller
    stores ``None`` and the admission branch never runs.
    """
    if config.max_live is None:
        return None
    return AdmissionGate(config.max_live, name=name)
