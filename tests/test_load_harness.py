"""Load engine: sketch accuracy, seeded drivers, and the knee.

The harness's whole value is determinism: the same seed must produce the
same arrival stream, the same admission decisions, and the same report —
else the fig. 22 ratios would be noise.  These tests pin that down at
small scale, plus the headline comparison itself: an admission-gated
control plane keeps its goodput and p99 past the knee where the ungated
one collapses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import RuntimeConfig
from repro.core import ActivityManager
from repro.load import (
    CapacityModel,
    OpenLoopDriver,
    QuantileSketch,
    TrafficMix,
    ZipfPopularity,
    run_open_loop_activities,
    run_population_hold,
)
from repro.util.clock import SimulatedClock
from repro.util.rng import SeededRng
from tests.load_report_check import gate_failures


class TestQuantileSketch:
    def test_quantiles_within_relative_error(self):
        sketch = QuantileSketch(growth=1.02)
        for i in range(1, 100001):
            sketch.add(i / 1000.0)  # uniform 0.001 .. 100.0
        for q, expect in ((0.5, 50.0), (0.95, 95.0), (0.99, 99.0)):
            assert sketch.quantile(q) == pytest.approx(expect, rel=0.03)
        assert sketch.min == pytest.approx(0.001)
        assert sketch.max == pytest.approx(100.0)
        assert sketch.count == 100000

    def test_memory_is_bounded_by_buckets_not_count(self):
        sketch = QuantileSketch()
        for i in range(200000):
            sketch.add((i % 1000) / 100.0 + 0.001)
        # 200k samples, but storage is one counter per geometric bucket.
        assert sketch.describe()["buckets"] < 600

    def test_merge_equals_single_stream(self):
        whole, left, right = QuantileSketch(), QuantileSketch(), QuantileSketch()
        rng = SeededRng(5)
        for index in range(5000):
            value = rng.uniform(0.001, 10.0)
            whole.add(value)
            (left if index % 2 else right).add(value)
        left.merge(right)
        assert left.count == whole.count
        assert left.quantile(0.99) == whole.quantile(0.99)
        assert left.max == whole.max

    def test_rejects_bad_input(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.merge(QuantileSketch(growth=1.5))


class TestZipfPopularity:
    def test_skew_concentrates_mass(self):
        zipf = ZipfPopularity(1000, skew=0.99)
        assert zipf.mass(10) > 0.3  # top 1% of keys > 30% of traffic
        uniform = ZipfPopularity(1000, skew=0.0)
        assert uniform.mass(10) == pytest.approx(0.01)

    def test_draws_are_seeded_and_in_range(self):
        zipf = ZipfPopularity(100, skew=1.0)
        first = [zipf.draw(SeededRng(9).fork("k")) for _ in range(1)]
        second = [zipf.draw(SeededRng(9).fork("k")) for _ in range(1)]
        assert first == second
        rng = SeededRng(3)
        draws = [zipf.draw(rng) for _ in range(2000)]
        assert all(0 <= d < 100 for d in draws)
        assert draws.count(0) > draws.count(99)  # rank 0 is hottest


class TestDrivers:
    def test_open_loop_stream_is_replayable(self):
        def run():
            clock = SimulatedClock()
            log = []
            driver = OpenLoopDriver(
                clock,
                SeededRng(11).fork("arrivals"),
                rate=50.0,
                issue=lambda kind, index, now: log.append((kind, index, round(now, 9))),
                duration=2.0,
            )
            driver.start()
            clock.run_until_idle()
            return log

        first, second = run(), run()
        assert first == second
        assert len(first) > 50  # ~100 expected at rate 50 over 2s
        assert {kind for kind, _, _ in first} <= {"activity", "transaction", "query"}

    def test_open_loop_respects_max_ops(self):
        clock = SimulatedClock()
        log = []
        driver = OpenLoopDriver(
            clock,
            SeededRng(1),
            rate=1000.0,
            issue=lambda kind, index, now: log.append(index),
            max_ops=7,
        )
        driver.start()
        clock.run_until_idle()
        assert log == list(range(7))

    def test_traffic_mix_validates_and_normalizes(self):
        with pytest.raises(ValueError):
            TrafficMix({})
        with pytest.raises(ValueError):
            TrafficMix({"a": -1.0})
        mix = TrafficMix({"a": 3.0, "b": 1.0})
        assert mix.describe() == {"a": 0.75, "b": 0.25}


class TestCapacityModel:
    def test_schedules_like_k_deterministic_servers(self):
        station = CapacityModel(workers=2, service_time=1.0)
        assert station.capacity == 2.0
        # Three simultaneous arrivals: two start now, one queues.
        assert station.schedule(0.0) == 1.0
        assert station.schedule(0.0) == 1.0
        assert station.schedule(0.0) == 2.0
        assert station.backlog(0.0) == 1.0


class TestKnee:
    def test_admission_keeps_goodput_and_p99_past_the_knee(self):
        """The fig. 22 story at miniature scale: past saturation the
        gated run holds goodput near capacity with bounded p99; the
        ungated run's queue grows without bound and goodput collapses."""

        def run(max_live):
            config = RuntimeConfig(max_live=max_live) if max_live else RuntimeConfig()
            manager = ActivityManager(clock=SimulatedClock(), config=config)
            return run_open_loop_activities(
                manager,
                rate=400.0,  # 2x the station's 200/s capacity
                duration=5.0,
                workers=2,
                service_time=0.01,
                deadline=0.5,
                rng=SeededRng(7),
            ).report()

        gated, ungated = run(50), run(None)
        assert gated["shed"] > 0
        assert ungated["shed"] == 0
        assert ungated["peak_live"] > 50  # the unbounded queue, visible
        # Goodput: gated sustains ~capacity, ungated collapses.
        assert gated["goodput_ops_s"] > 0.9 * 200.0
        assert gated["goodput_ops_s"] > 3.0 * ungated["goodput_ops_s"]
        # Tail: bounded by max_live/capacity vs growing with the backlog.
        assert gated["latency"]["p99"] < 0.5
        assert ungated["latency"]["p99"] > 2.0

    def test_knee_run_is_deterministic(self):
        def run():
            manager = ActivityManager(
                clock=SimulatedClock(), config=RuntimeConfig(max_live=50)
            )
            report = run_open_loop_activities(
                manager,
                rate=400.0,
                duration=2.0,
                workers=2,
                service_time=0.01,
                deadline=0.5,
                rng=SeededRng(7),
            ).report()
            # Memory fields are measured, not simulated; drop them.
            report.pop("peak_rss_bytes")
            report.pop("peak_blocks")
            return report

        assert run() == run()


class TestPopulationHold:
    def test_holds_target_population_and_sheds_at_ceiling(self):
        manager = ActivityManager(
            clock=SimulatedClock(), config=RuntimeConfig(max_live=3000)
        )
        result = run_population_hold(manager, 3000, probe_extra=8)
        assert result["live_peak"] == 3000
        assert result["shed_at_ceiling"] == 8
        assert manager.admission.live == 0  # fully drained
        assert result["blocks_per_activity"] < 200  # bounded per-activity heap

    def test_ungated_hold_admits_the_probes(self):
        manager = ActivityManager(clock=SimulatedClock())
        result = run_population_hold(manager, 100, probe_extra=4)
        assert result["live_peak"] == 100
        assert result["shed_at_ceiling"] == 0


class TestCliSmoke:
    def test_module_entrypoint_reports_taxonomy(self, tmp_path):
        out = tmp_path / "report.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.load",
                "--clients",
                "4",
                "--duration",
                "1",
                "--max-live",
                "2",
                "--service-time",
                "0.005",
                "--report",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["client_errors"] == []
        assert report["ok"] > 0
        assert report["max_live"] == 2
        assert report["admission"]["max_live"] == 2
        assert report["attempted"] == report["ok"] + report["deadline_miss"] + (
            report["shed"] + report["error"]
        )
        assert report["latency"]["p99"] >= report["latency"]["p50"] > 0
        # The server's gate agrees with what the clients saw.
        assert gate_failures(report) == []
