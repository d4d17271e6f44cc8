"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_figNN_*.py`` regenerates one figure of the paper: message
traces are asserted to match the figure's sequence chart, and scenario
series (sweeps, timelines, resource-holding comparisons) are written to
``benchmarks/results/figNN.txt`` so they survive pytest's output capture
(``BENCH_RESULTS_DIR`` points them elsewhere, as
``tests/test_paper_figures.py`` does).  Timing numbers come from
pytest-benchmark itself.

Alongside the text series every figure records its machine-readable
metrics (throughput, latency, bytes on the wire, cache counters) in
``benchmarks/results/BENCH_<fig>.json`` via ``emit(name, lines,
data={...})``.  The JSON is what ``check_bench_regression.py`` compares
against the committed baseline in CI.
"""

from __future__ import annotations

import json
import os

import pytest

RESULTS_DIR = os.environ.get("BENCH_RESULTS_DIR") or os.path.join(
    os.path.dirname(__file__), "results"
)


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    # Start each session clean so artefacts reflect this run only.
    for entry in os.listdir(RESULTS_DIR):
        if entry.endswith(".txt") or (
            entry.startswith("BENCH_") and entry.endswith(".json")
        ):
            os.remove(os.path.join(RESULTS_DIR, entry))
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """emit(name, lines, data=None): record a figure's regenerated series.

    ``lines`` go to ``<name>.txt`` (human-readable, append).  ``data``,
    when given, is a flat dict of metrics merged into
    ``BENCH_<name>.json`` — several tests in one figure module may each
    contribute keys, so merging (not overwriting) keeps the figure's
    JSON complete regardless of test order.
    """

    def _emit(name: str, lines, data=None) -> str:
        path = os.path.join(results_dir, f"{name}.txt")
        text = "\n".join(str(line) for line in lines) + "\n"
        mode = "a" if os.path.exists(path) else "w"
        with open(path, mode) as handle:
            handle.write(text)
        print(text)
        if data is not None:
            json_path = os.path.join(results_dir, f"BENCH_{name}.json")
            merged = {}
            if os.path.exists(json_path):
                with open(json_path) as handle:
                    merged = json.load(handle)
            merged.update(data)
            with open(json_path, "w") as handle:
                json.dump(merged, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return path

    return _emit


def bench_mean_seconds(benchmark):
    """Mean seconds per round of a completed pytest-benchmark run, or
    None when the plugin (or the run) recorded no stats — bench JSON
    should degrade to domain metrics rather than fail."""
    try:
        return float(benchmark.stats.stats.mean)
    except Exception:  # noqa: BLE001 - stats shape varies across plugin versions
        return None


@pytest.fixture
def fresh_env():
    """A complete single-process deployment for benchmarks."""

    from repro.core import ActivityManager
    from repro.ots import TransactionCurrent, TransactionFactory

    class Env:
        def __init__(self):
            self.factory = TransactionFactory()
            self.current = TransactionCurrent(self.factory)
            self.manager = ActivityManager()

    return Env()
