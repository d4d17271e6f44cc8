"""``python -m repro.load``: closed-loop socket load smoke.

Boots a real site in-process — a :class:`~repro.orb.site.SiteRuntime`
whose ORB hosts one servant whose ``work`` op begins and completes a
*gated* activity — then drives it closed-loop from N client threads of
one :class:`~repro.orb.site.SiteClient` over loopback sockets.
Admission rejections travel the wire as typed
:class:`~repro.exceptions.AdmissionRejected` errors and are counted as
shed traffic, so the report shows exactly the taxonomy the CI
``load-smoke`` job asserts on.

    python -m repro.load --clients 32 --duration 30 --max-live 16 \
        --service-time 0.002 --report load-report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.config import RuntimeConfig
from repro.core.manager import ActivityManager
from repro.exceptions import AdmissionRejected
from repro.load.collector import LoadCollector
from repro.load.generator import run_closed_loop_threads
from repro.orb.core import Servant
from repro.orb.site import SiteClient, SiteConfig, SiteRuntime
from repro.util.clock import WallClock
from repro.util.rng import SeededRng


class _LoadServant(Servant):
    """One op: begin a gated activity, hold it for the service time."""

    def __init__(self, manager: ActivityManager, service_time: float) -> None:
        self.manager = manager
        self.service_time = service_time

    def work(self) -> str:
        activity = self.manager.begin(name="load-op")
        try:
            if self.service_time > 0.0:
                time.sleep(self.service_time)
        finally:
            activity.complete()
        return "ok"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load",
        description="Closed-loop socket load smoke against a gated control plane.",
    )
    parser.add_argument("--clients", type=int, default=8, help="virtual client threads")
    parser.add_argument("--duration", type=float, default=5.0, help="run length, wall seconds")
    parser.add_argument("--think", type=float, default=0.0, help="mean think time per client, seconds")
    parser.add_argument("--max-live", type=int, default=None, help="admission cap on live activities (omit = ungated)")
    parser.add_argument("--service-time", type=float, default=0.001, help="servant hold per op, seconds")
    parser.add_argument("--deadline", type=float, default=1.0, help="per-op latency budget for goodput classification")
    parser.add_argument("--seed", type=int, default=22, help="rng seed for think-time streams")
    parser.add_argument("--report", default=None, help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    runtime = RuntimeConfig(max_live=args.max_live) if args.max_live else RuntimeConfig()
    manager = ActivityManager(clock=WallClock(), config=runtime)

    server = SiteRuntime(
        SiteConfig(site_id="load-server", heartbeat={"enabled": False})
    )
    server.transport.start()
    server.orb.create_node("load-server.app").activate(
        _LoadServant(manager, args.service_time),
        object_id="load",
        interface="Load",
    )
    endpoint = SiteClient({"load-server": server.transport.address}, "load-client")

    collectors = [LoadCollector(f"client-{i}") for i in range(args.clients)]
    ref = endpoint.ref("load-server.app", "load", "Load")

    def op(client: int, _rng: SeededRng) -> None:
        collector = collectors[client]
        start = time.monotonic()
        collector.started(start)
        try:
            ref.invoke("work")
        except AdmissionRejected as exc:
            collector.live -= 1  # never admitted server-side
            collector.rejected(time.monotonic(), exc)
        except Exception:
            collector.failed(time.monotonic())
        else:
            now = time.monotonic()
            collector.finished(now, now - start, args.deadline)

    try:
        errors = run_closed_loop_threads(
            args.clients,
            args.duration,
            op,
            rng=SeededRng(args.seed),
            think=args.think,
        )
    finally:
        endpoint.close()
        server.transport.close()
        server.stop()

    merged = LoadCollector("closed-loop-sockets")
    for collector in collectors:
        collector.sample_memory()
        merged.merge(collector)
    report = merged.report()
    report["clients"] = args.clients
    report["think_s"] = args.think
    report["max_live"] = args.max_live
    report["service_time_s"] = args.service_time
    report["client_errors"] = [e for e in errors if e]
    admission = manager.admission
    if admission is not None:
        report["admission"] = admission.describe()

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 1 if report["client_errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
