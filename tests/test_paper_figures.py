"""Figs 1–13 of the paper, checked against committed goldens.

Each ``benchmarks/bench_figNN_*.py`` asserts its own sequence chart and
writes the figure's series (message counts, sweeps, resource-holding
comparisons) to ``figNN.txt``.  This test regenerates all thirteen in a
subprocess (``BENCH_QUICK=1``, ``--benchmark-disable``, results in a
temporary directory through ``BENCH_RESULTS_DIR``; no figure uses
hypothesis, whose pytest plugin would double the run) and compares each
file with ``benchmarks/golden/figNN.txt``, printing a unified diff per
figure that changed.

The series are deterministic (simulated clocks, seeded rngs), so the
goldens are the files verbatim.  To re-pin one after a deliberate change
of behaviour, run the same command with ``BENCH_RESULTS_DIR`` set,
copy the new ``figNN.txt`` over the golden, and say in CHANGES.md which
figure changed and why.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path
from typing import Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks" / "golden"
FIGURES = [f"fig{number:02d}" for number in range(1, 14)]


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Tuple[Path, subprocess.CompletedProcess]:
    results = tmp_path_factory.mktemp("figures")
    benches = [
        str(path)
        for figure in FIGURES
        for path in sorted((ROOT / "benchmarks").glob(f"bench_{figure}_*.py"))
    ]
    assert len(benches) == len(FIGURES)
    env = dict(os.environ, BENCH_QUICK="1", BENCH_RESULTS_DIR=str(results))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *benches, "-q",
         "--benchmark-disable", "-p", "no:cacheprovider", "-p", "no:hypothesispytest"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    return results, proc


def test_figure_benches_pass(regenerated) -> None:
    _, proc = regenerated
    assert proc.returncode == 0, proc.stdout[-6000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_matches_golden(regenerated, figure: str) -> None:
    results, _ = regenerated
    golden = (GOLDEN / f"{figure}.txt").read_text(encoding="utf-8")
    produced_path = results / f"{figure}.txt"
    produced = produced_path.read_text(encoding="utf-8") if produced_path.exists() else ""
    if produced != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                produced.splitlines(keepends=True),
                fromfile=f"benchmarks/golden/{figure}.txt",
                tofile=f"regenerated/{figure}.txt",
            )
        )
        print(diff)
        pytest.fail(f"{figure} differs from its golden:\n{diff}")
