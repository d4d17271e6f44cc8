"""Benchmark-owned code that runs inside ``python -m repro.site`` daemons.

The functions at the bottom are ``SiteConfig.app`` hooks
(``"site_hooks:echo_site"``); the spawner puts this directory on the
daemons' ``PYTHONPATH``.  Every hook also activates a
:class:`BenchServant`, through which the benchmark turns tracing on and
off inside the daemon, drains its spans and reads its counters —
nothing under ``src/`` is touched.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from repro.apps.site_apps import BankAccount, TransferDesk, bank_node_id
from repro.config import RuntimeConfig
from repro.core import ActivityManager, Outcome
from repro.orb.core import Servant
from repro.persistence.object_store import SegmentedFileStore

from tracer import Tracer

BENCH_OBJECT = "bench"
ECHO_OBJECT = "echo"
DESK_OBJECT = "desk"

# Far above anything a run can move, so only the scheduled overdrafts
# fail; every amount is a small whole number, so balances stay exact.
OPENING_BALANCE = 1_000_000_000.0
ACCOUNTS = ("acct-1", "acct-2", "acct-3", "acct-4")

EVENT_LOG_BOUND = 4096  # the site daemons' own default (SiteConfig.max_events)


def bench_node_id(site_id: str) -> str:
    return f"{site_id}.bench"


def echo_node_id(site_id: str) -> str:
    return f"{site_id}.echo"


class EchoAction(Servant):
    """Acknowledges each signal with its delivery id (as in bench_fig16)."""

    def process_signal(self, signal: Any) -> Outcome:
        return Outcome.done(signal.delivery_id)


class BenchServant(Servant):
    """The benchmark's handle on one daemon."""

    def __init__(self, runtime: Any) -> None:
        self._runtime = runtime
        self._tracer = Tracer()

    def trace_start(self) -> int:
        self._tracer.install()
        return os.getpid()

    def trace_stop(self) -> List[Any]:
        """Uninstall the probes and hand over ``[pid, span bytes]``."""
        self._tracer.uninstall()
        return [os.getpid(), self._tracer.drain()]

    def counters(self) -> Dict[str, Any]:
        runtime = self._runtime
        stats = runtime.transport.stats
        stores = [
            store
            for store in (runtime.wal.store, runtime.cell_store)
            if isinstance(store, SegmentedFileStore)
        ]
        return {
            "pid": os.getpid(),
            "marshal": stats.marshal.snapshot(),
            "requests_sent": stats.requests_sent,
            "bytes_sent": stats.bytes_sent,
            "reconnects": stats.reconnects,
            "wal_forces": runtime.wal.forces,
            "wal_records": runtime.wal.records_forced,
            "store_flushes": sum(store.flushes for store in stores),
            "auto_compactions": sum(store.auto_compactions for store in stores),
            "adoptions": runtime.service.adoptions,
        }


def _bench_servant(runtime: Any) -> None:
    node = runtime.orb.create_node(bench_node_id(runtime.config.site_id))
    node.activate(
        BenchServant(runtime), object_id=BENCH_OBJECT, interface="BenchServant"
    )


def echo_site(runtime: Any) -> None:
    """One echo action behind the activity-context server interceptor."""
    manager = ActivityManager(
        clock=runtime.clock, config=RuntimeConfig(max_events=EVENT_LOG_BOUND)
    )
    manager.install(runtime.orb)
    node = runtime.orb.create_node(echo_node_id(runtime.config.site_id))
    node.activate(EchoAction(), object_id=ECHO_OBJECT, interface="EchoAction")
    _bench_servant(runtime)


def bank_site(runtime: Any) -> None:
    """The demo bank's accounts, with the benchmark's opening balances."""
    node = runtime.orb.create_node(bank_node_id(runtime.config.site_id))
    for key in ACCOUNTS:
        node.activate(
            BankAccount(runtime, key, OPENING_BALANCE),
            object_id=key,
            interface="BankAccount",
            durable=True,
        )
    _bench_servant(runtime)


def desk_site(runtime: Any) -> None:
    """A bank node plus the transfer desk that drives the transactions."""
    bank_site(runtime)
    runtime.orb.node(bank_node_id(runtime.config.site_id)).activate(
        TransferDesk(runtime),
        object_id=DESK_OBJECT,
        interface="TransferDesk",
        durable=True,
    )
