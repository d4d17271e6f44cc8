"""Slice-median maths and the window loop, on synthetic numbers."""

import statistics

import pytest

import harness
import metrics
from harness import Slice, Window


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 0.50) == 51.0
    assert harness.percentile(values, 0.95) == 96.0
    assert harness.percentile(values, 0.99) == 100.0
    assert harness.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def _slice(rate, p50_ms, outlier_ms, elapsed=0.5, cpu=(0.0, 0.0)):
    count = int(rate * elapsed)
    latencies = [p50_ms / 1000.0] * (count - count // 10) + [outlier_ms / 1000.0] * (count // 10)
    return Slice(elapsed, latencies, [0] * count, 0, *cpu)


def test_steady_metrics_pool_the_fastest_quarter_of_the_slices():
    # Eight slices, six of them disturbed by the host: the figures are
    # those of the two clean ones, pooled.
    clean = [_slice(1000, 1.0, 3.0, cpu=(0.1, 0.3)), _slice(980, 1.0, 3.0, cpu=(0.1, 0.3))]
    disturbed = [_slice(500 + 10 * i, 2.0, 30.0, cpu=(0.2, 0.6)) for i in range(6)]
    window = Window(disturbed[:3] + clean + disturbed[3:], [], False)
    assert harness.steady_slices(window) == clean
    steady = harness.steady_metrics(window)
    assert steady["ops_per_s"] == pytest.approx(990.0)
    assert steady["p50_ms"] == pytest.approx(1.0)
    assert steady["p95_ms"] == pytest.approx(3.0)
    assert steady["cpu_ms_per_op"] == pytest.approx(0.8 * 1000 / 990)
    assert steady["daemon_cpu_us_per_op"] == pytest.approx(0.6 * 1e6 / 990)
    whole = harness.whole_window(window)
    assert whole["p99_ms"] == pytest.approx(30.0)
    assert whole["slice_spread_pct"] == pytest.approx((1000 - 500) / 535 * 100)


def test_a_single_slice_window_is_its_own_steady_state():
    window = Window([_slice(100, 2.0, 4.0, elapsed=1.0)], [], False)
    assert harness.steady_metrics(window)["ops_per_s"] == pytest.approx(100.0)
    with pytest.raises(ValueError):
        harness.steady_slices(Window([Slice(1.0, [], [], 3)], [], False))


def test_run_window_slices_by_a_fake_clock():
    now = [0.0]

    def clock():
        return now[0]

    def execute(spec):
        now[0] += 0.25  # every op takes a quarter second
        if spec % 5 == 0:
            raise RuntimeError("boom")
        return spec % 2, spec % 7 != 0

    counter = iter(range(1, 1000))
    cpu = lambda: (now[0] / 2, now[0] / 4)  # noqa: E731
    window = harness.run_window(
        lambda: next(counter), execute, seconds=4.0, slice_seconds=2.0, clock=clock, cpu=cpu
    )
    assert len(window.slices) == 2 and not window.aborted
    assert window.ok + window.failed == 16  # 4 s of 0.25 s ops
    # specs 5, 10, 15 raise; 7 and 14 return a wrong result.
    assert window.failed == 5
    assert all(latency == 0.25 for s in window.slices for latency in s.latencies_s)
    assert window.slices[0].elapsed_s == 2.0
    assert [(s.client_cpu_s, s.daemon_cpu_s) for s in window.slices] == [(1.0, 0.5)] * 2
    assert "boom" in window.errors[0]
    assert harness.kind_p50_ms(window, 1) == pytest.approx(250.0)
    assert harness.kind_p50_ms(window, 5) == 0.0


def test_run_window_gives_up_on_a_dead_deployment():
    def execute(spec):
        raise ConnectionError("gone")

    window = harness.run_window(lambda: 1, execute, seconds=60.0)
    assert window.aborted
    assert window.failed == harness.MAX_CONSECUTIVE_FAILURES and window.ok == 0


def test_end_to_end_block_has_exactly_the_declared_metrics():
    window = Window([_slice(100, 2.0, 4.0, elapsed=2.0, cpu=(0.5, 1.5))], [], False)
    block = metrics.end_to_end(window, 64.0, 0.75)
    assert list(block) == [m.name for m in metrics.END_TO_END]
    assert block["cpu_ms_per_op"] == pytest.approx(2000.0 / 200)
    assert block["peak_rss_mb"] == 64.0 and block["setup_s"] == 0.75


def test_counter_delta_sums_processes_and_flattens_marshal():
    before = [
        {"pid": 1, "bytes_sent": 10, "marshal": {"cache_hits": 1}},
        {"pid": 2, "bytes_sent": 5, "marshal": {"cache_hits": 2}, "wal_forces": 3},
    ]
    after = [
        {"pid": 1, "bytes_sent": 30, "marshal": {"cache_hits": 4}},
        {"pid": 2, "bytes_sent": 6, "marshal": {"cache_hits": 2}, "wal_forces": 9},
    ]
    assert metrics.counter_delta(before, after) == {
        "bytes_sent": 21, "marshal.cache_hits": 3, "wal_forces": 6,
    }


def test_quartile_spread_matches_the_drivers_formula():
    import run

    values = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_watchdog_runs_the_expiry_hook_once():
    import threading

    fired = threading.Event()
    with harness.Watchdog("test", 0.05, fired.set) as watchdog:
        assert fired.wait(timeout=5.0)
    assert watchdog.expired
    with harness.Watchdog("test", 30.0, fired.clear) as quiet:
        pass
    assert not quiet.expired and fired.is_set()
