"""Figure 22 (extension) — load, the knee, and admission control.

Not a figure from the paper: Houston et al. describe the middleware's
*mechanisms* and argue they scale to "potentially millions" of clients,
but report no load measurements.  This bench puts numbers on that claim
for the repro, using the PR 10 load engine:

- **the knee** (deterministic): Poisson arrivals through real
  ``ActivityManager.begin`` into a G/D/k capacity station under the
  simulated clock.  At 0.9× capacity both configurations behave; at 4×
  capacity the ungated control plane queues without bound — goodput
  (completions within deadline) collapses and p99 grows with the
  backlog — while the admission-gated plane sheds the excess and keeps
  goodput within 10% of its knee value with p99 bounded by
  ``max_live / capacity``.  Every number is a pure function of the
  seed, so the regression gate holds the *ratios* to tight tolerances.
- **population** (deterministic): hold 120k concurrent live activities
  behind a ``max_live`` gate sized exactly there; begin 120,001 is shed.
  Evidence for the million-client ceiling: live population is capped by
  configuration, and per-activity heap cost is a bounded constant.
- **socket dispatch** (machine-dependent, not gated): the same gated
  servant served over real sockets by the thread-per-connection server,
  closed-loop clients — recorded for trajectory, never compared across
  hosts.

Results land in ``results/fig22.txt`` and ``results/BENCH_fig22.json``
(deterministic metrics gated by ``check_bench_regression.py``).
Quick mode (``BENCH_QUICK=1``) shrinks the sweep for CI smoke runs;
the CI gate step re-runs full mode.
"""

import os
import threading
import time

from repro.config import OrbConfig, RuntimeConfig
from repro.core.manager import ActivityManager
from repro.exceptions import OverloadError
from repro.load import LoadCollector, run_open_loop_activities, run_population_hold
from repro.orb.core import Orb, Servant
from repro.orb.reference import ObjectRef
from repro.orb.site import SiteFederation
from repro.orb.socket_transport import SocketTransport
from repro.util.clock import SimulatedClock, WallClock
from repro.util.rng import SeededRng

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

SEED = 22
WORKERS = 4
SERVICE_TIME = 0.004            # station capacity: 1000 ops/s
CAPACITY = WORKERS / SERVICE_TIME
DEADLINE = 2.0
MAX_LIVE = 1500                 # gated p99 bound: 1500/1000 = 1.5 s < deadline

if QUICK:
    DURATION = 5.0
    RATE_OVERLOAD = 2000.0      # 2x capacity
    POPULATION = 12_000
    SOCKET_SECONDS = 1.0
    SOCKET_CLIENTS = 4
    MIN_RATIO = 2.0
else:
    DURATION = 20.0
    RATE_OVERLOAD = 4000.0      # 4x capacity
    POPULATION = 120_000
    SOCKET_SECONDS = 2.0
    SOCKET_CLIENTS = 8
    MIN_RATIO = 5.0

RATE_KNEE = 0.9 * CAPACITY      # just under the knee


def run_sweep(rate, max_live):
    """One deterministic open-loop run; returns the collector report."""
    config = (
        RuntimeConfig(max_live=max_live) if max_live is not None else RuntimeConfig()
    )
    manager = ActivityManager(clock=SimulatedClock(), config=config)
    return run_open_loop_activities(
        manager,
        rate=rate,
        duration=DURATION,
        workers=WORKERS,
        service_time=SERVICE_TIME,
        deadline=DEADLINE,
        rng=SeededRng(SEED),
    ).report()


def measure_population():
    """Hold POPULATION live activities behind a gate sized exactly there."""
    manager = ActivityManager(
        clock=SimulatedClock(), config=RuntimeConfig(max_live=POPULATION)
    )
    return run_population_hold(manager, POPULATION, probe_extra=16)


class _GatedServant(Servant):
    def __init__(self, manager):
        self.manager = manager

    def work(self):
        self.manager.begin(name="bench-op").complete()
        return "ok"


def measure_socket_dispatch():
    """Closed-loop ops/s over real sockets."""
    manager = ActivityManager(
        clock=WallClock(), config=RuntimeConfig(max_live=MAX_LIVE)
    )
    server = SocketTransport("bench-server", bind=("127.0.0.1", 0))
    server_orb = Orb(transport=server, config=OrbConfig())
    SiteFederation(server, server_orb)
    server.set_request_handler(server_orb.dispatch_request)
    server.set_control_handler(
        lambda req: {
            "site": "bench-server",
            "domain": "bench-server"
            if server_orb.has_node(str(req.get("node")))
            else None,
        }
    )
    server.start()
    server_orb.create_node("bench-server.app").activate(
        _GatedServant(manager), object_id="load", interface="Load"
    )

    client = SocketTransport("bench-client")
    client_orb = Orb(transport=client, config=OrbConfig())
    SiteFederation(client, client_orb)
    client.connect_peer("bench-server", server.address)
    client.start()
    ref = ObjectRef("bench-server.app", "load", "Load").bind(client_orb)

    collectors = [LoadCollector(f"c{i}") for i in range(SOCKET_CLIENTS)]

    def client_loop(index):
        collector = collectors[index]
        deadline = time.monotonic() + SOCKET_SECONDS
        while time.monotonic() < deadline:
            start = time.monotonic()
            try:
                ref.invoke("work")
            except OverloadError as exc:
                collector.rejected(time.monotonic(), exc)
            else:
                now = time.monotonic()
                collector.started(start)
                collector.finished(now, now - start)

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(SOCKET_CLIENTS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SOCKET_SECONDS + 30)
    finally:
        client.close()
        server.close()

    merged = LoadCollector("dispatch-threads")
    for collector in collectors:
        merged.merge(collector)
    return merged.report()


class TestFig22LoadAdmission:
    def test_knee_population_and_dispatch(self, emit):
        gated_knee = run_sweep(RATE_KNEE, MAX_LIVE)
        gated_over = run_sweep(RATE_OVERLOAD, MAX_LIVE)
        ungated_over = run_sweep(RATE_OVERLOAD, None)
        hold = measure_population()
        threads_report = measure_socket_dispatch()

        retention = gated_over["goodput_ops_s"] / gated_knee["goodput_ops_s"]
        ratio = gated_over["goodput_ops_s"] / max(
            ungated_over["goodput_ops_s"], 1e-9
        )
        shed_total = gated_knee["shed"] + gated_over["shed"]

        emit(
            "fig22",
            [
                "fig 22 — load, the knee, and admission control "
                f"(capacity {CAPACITY:.0f} ops/s, deadline {DEADLINE:g} s, "
                f"{'quick' if QUICK else 'full'} mode):",
                f"  gated   @ {RATE_KNEE:5.0f}/s   goodput {gated_knee['goodput_ops_s']:7.1f}/s"
                f"   p99 {gated_knee['latency']['p99']:6.3f} s"
                f"   shed {gated_knee['shed']}",
                f"  gated   @ {RATE_OVERLOAD:5.0f}/s   goodput {gated_over['goodput_ops_s']:7.1f}/s"
                f"   p99 {gated_over['latency']['p99']:6.3f} s"
                f"   shed {gated_over['shed']}",
                f"  ungated @ {RATE_OVERLOAD:5.0f}/s   goodput {ungated_over['goodput_ops_s']:7.1f}/s"
                f"   p99 {ungated_over['latency']['p99']:6.3f} s"
                f"   peak live {ungated_over['peak_live']}",
                f"  goodput retention past knee  {retention:6.1%}"
                f"   (gated overload vs gated knee)",
                f"  goodput ratio gated/ungated  {ratio:6.1f}x at overload",
                f"  population hold  {hold['live_peak']} live"
                f"   ({hold['blocks_per_activity']:.0f} blocks/activity,"
                f" {hold['shed_at_ceiling']} shed at ceiling)",
                f"  sockets, threads loop  {threads_report['throughput_ops_s']:7.1f} ops/s",
            ],
            data={
                # Deterministic (simulated clock + seeded rng): gated.
                "gated_goodput_knee": gated_knee["goodput_ops_s"],
                "gated_goodput_overload": gated_over["goodput_ops_s"],
                "ungated_goodput_overload": ungated_over["goodput_ops_s"],
                "overload_goodput_ratio": ratio,
                "gated_goodput_retention": retention,
                "gated_p99_s": gated_over["latency"]["p99"],
                "ungated_p99_s": ungated_over["latency"]["p99"],
                "live_peak": hold["live_peak"],
                "shed_total": shed_total,
                "population_shed": hold["shed_at_ceiling"],
                # Machine-dependent trajectory (never gated).
                "dispatch_threads_ops_s": threads_report["throughput_ops_s"],
                "population_blocks_per_activity": hold["blocks_per_activity"],
                "population_peak_rss_bytes": hold["peak_rss_bytes"],
            },
        )

        # The acceptance bar (ISSUE.md): sustained population, goodput
        # within 10% of peak past the knee with bounded p99, and the
        # ungated plane degrading by the required factor.
        if not QUICK:
            assert hold["live_peak"] >= 100_000
        assert hold["live_peak"] == POPULATION
        assert hold["shed_at_ceiling"] == 16
        assert retention >= 0.9
        assert ratio >= MIN_RATIO
        assert gated_over["latency"]["p99"] <= MAX_LIVE / CAPACITY + SERVICE_TIME
        assert ungated_over["latency"]["p99"] > DEADLINE
        assert gated_over["shed"] > 0
        assert ungated_over["shed"] == 0
        assert threads_report["ok"] > 0
