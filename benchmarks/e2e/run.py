#!/usr/bin/env python3
"""End-to-end benchmark of the activity service, activity broadcast to
federated 2PC over real sockets.

Whole suite, every metric by name with its unit::

    python3 benchmarks/e2e/run.py --seed 11

One run of one workload, as the benchmark driver calls it (the last line
of standard output is the result object)::

    python3 benchmarks/e2e/run.py --workload local_transfer --seed 11 \\
        --seconds 10 --trace 0

Calibration of the regression bounds (README.md, "Calibration")::

    python3 benchmarks/e2e/run.py --calibrate 10 --seed 11

Exits non-zero when an operation failed, an output was wrong, the
durability audit found a difference, or a phase timed out — whatever
the timings were.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(E2E_DIR)), "src")

DEFAULT_SECONDS = 10  # BENCHMARK.json run_seconds
MIN_BOUND = 0.05
MAX_BOUND = 0.25  # the driver's cap
# The driver wants each metric's run-to-run spread below a third of its bound.
BOUND_PER_SPREAD = 3.0
CHILD_TIMEOUT_S = 300.0
RESULTS_DIR = os.path.join(E2E_DIR, "results")


def _unit(metric_list: Sequence[Any]) -> Dict[str, str]:
    return {metric.name: metric.unit for metric in metric_list}


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload, one metric block, one JSON line."""
    import metrics
    import suite

    result = suite.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values, units = result.per_layer, _unit(metrics.PER_LAYER)
    else:
        values, units = result.end_to_end, _unit(metrics.END_TO_END)
    for problem in result.problems:
        print(f"e2e: {result.workload}: {problem}", file=sys.stderr)
    print(
        f"e2e: {result.workload}: host spin probe {result.host_spin_ms:.3f} ms, "
        f"run took {result.wall_s:.1f} s",
        file=sys.stderr,
    )
    if values is None:
        return 1  # the run ended before the metrics existed: no result line
    if result.budget:
        print(f"-- {args.workload}: share of client op time by layer (traced window)")
        for layer, share in result.budget:
            print(f"   {layer:<28} {share * 100:6.2f} %")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


def _child_run(name: str, seed: int, seconds: float, trace: int) -> Tuple[Optional[Dict[str, Any]], str]:
    """One driver-mode run in a process of its own, so that every run
    starts from the same state (peak RSS is per process) and the suite
    measures exactly what the driver measures.  Returns the result
    object (None if the run printed none) and what it printed before."""
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None, done.stdout
    result = json.loads(lines[-1])
    result["correct"] = result["correct"] and done.returncode == 0
    return result, "\n".join(lines[:-1])


def run_suite(args: argparse.Namespace) -> int:
    """Every workload exactly as the driver runs it — an untraced run,
    then a traced run on a fresh deployment — with every metric printed."""
    began = time.perf_counter()
    summary: Dict[str, Any] = {}
    all_correct = True
    for name in args.workloads:
        workload_began = time.perf_counter()
        merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        notes = []
        for trace in (0, 1):
            result, printed = _child_run(name, args.seed, args.seconds, trace)
            notes.append(printed)
            if result is None:
                merged["correct"] = False
                continue
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(result["metrics"])
        all_correct = all_correct and merged["correct"]
        print(
            f"== {name}: {'correct' if merged['correct'] else 'INCORRECT'}, "
            f"{merged['attempted']} ops attempted, {merged['failed']} failed, "
            f"{time.perf_counter() - workload_began:.1f} s"
        )
        for metric, entry in merged["metrics"].items():
            print(f"{name}.{metric} {entry['value']:.6g} {entry['unit']}")
        print("\n".join(note for note in notes if note))
        summary[name] = merged
    wall_s = time.perf_counter() - began
    print(f"total wall time {wall_s:.1f} s")
    # No gain is claimed by the change that defines the benchmark: the
    # first accepted run is the baseline later changes are compared with.
    print(
        json.dumps(
            {"claim": None, "seed": args.seed, "wall_s": wall_s, "workloads": summary}
        )
    )
    return 0 if all_correct else 1


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as the benchmark driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibrate(args: argparse.Namespace) -> int:
    """Run every workload's untraced run ``--calibrate`` times; report
    median, quartiles and spread per (workload, metric) and the bound
    each metric needs."""
    runs = args.calibrate
    table: Dict[str, Dict[str, List[float]]] = {}
    for name in args.workloads:
        for repeat in range(runs):
            # The driver varies the seed between its runs; so does this.
            result, _ = _child_run(name, args.seed + repeat, args.seconds, 0)
            if result is None or not result["correct"]:
                return 1
            for metric, entry in result["metrics"].items():
                table.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
            print(f"e2e: calibrate {name} {repeat + 1}/{runs}", file=sys.stderr)

    bounds: Dict[str, float] = {}
    rows = []
    for name, by_metric in table.items():
        for metric, values in by_metric.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = quartile_spread(values)
            bounds[metric] = max(bounds.get(metric, MIN_BOUND), BOUND_PER_SPREAD * spread)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "spread": spread,
                    "values": values,
                }
            )
    print("| workload | metric | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for row in rows:
        print(
            f"| {row['workload']} | {row['metric']} | {row['median']:.4g} | "
            f"{row['q1']:.4g} | {row['q3']:.4g} | {row['spread'] * 100:.1f} % |"
        )
    print()
    print("| metric | bound = max(5 %, 3 x widest spread) |")
    print("|---|---|")
    for metric, bound in bounds.items():
        flag = "" if bound <= MAX_BOUND else f" (over the {MAX_BOUND:.2f} cap)"
        print(f"| {metric} | {bound:.3f}{flag} |")
    path = os.path.join(RESULTS_DIR, f"calibration-seed{args.seed}.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "runs": runs, "rows": rows, "bounds": bounds}, handle, indent=2)
        handle.write("\n")
    print(f"written to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", type=int, metavar="RUNS", default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"e2e: no system under test: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    for path in (SRC_DIR, E2E_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    args.workloads = tuple(WORKLOADS)
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {args.workloads}")
    if args.calibrate:
        return calibrate(args)
    if args.workload is not None:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
