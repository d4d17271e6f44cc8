#!/usr/bin/env python
"""CI bench-regression gate.

Compares freshly generated ``results/BENCH_<fig>.json`` files against
the committed ``baselines/BENCH_<fig>.json`` and fails (exit 1) when a
gated metric regressed beyond its allowed tolerance.

Only *machine-independent* metrics are gated:

- **fig16** (hot-path engine): raw calls/s depends on the runner, but
  ``raw_speedup`` (the hot-path engine vs the same encoding with caches
  and fast path off, measured back-to-back in one process),
  ``sweep_byte_ratio`` and ``churn_byte_ratio`` (deterministic byte
  counts; the latter is the context size over the bytes encoded per
  call when one group changes before every call) are stable across
  hosts.  A >25% drop in throughput
  speedup fails; byte ratios get a tight 2% tolerance; deterministic
  cache counters must not decrease at all.
- **fig20** (failure detection & recovery): every metric runs under a
  simulated clock with seeded rngs, so detection/readmission/recovery
  latency and campaign goodput are *exactly* reproducible — the
  tolerances are just float headroom.  A detector or recovery change
  that moves them must move the baseline deliberately.
- **fig21** (replicated durability): write amplification, WAL
  catch-up, failover losses and replicated-campaign goodput are all
  deterministic counters or simulated-clock latencies.  Failover must
  lose zero acked appends and the replicated sweep must report zero
  invariant violations — those baselines are 0 and any increase fails.
- **fig22** (load & admission control): the knee sweep and population
  hold run under a simulated clock with seeded arrivals, so goodput
  ratios, retention, bounded p99 and the live-population peak are
  exactly reproducible.  The thread-per-connection socket throughput in
  the same JSON is machine-dependent and deliberately *not* gated.

Each figure is gated independently; by default every figure with a
committed baseline is checked.

Usage:
    python benchmarks/check_bench_regression.py            # all figures
    python benchmarks/check_bench_regression.py --figure fig16 \
        [--fresh results/BENCH_fig16.json] \
        [--baseline baselines/BENCH_fig16.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-figure gates.  ``floors``: (key, fraction) — fresh must reach
#: ``baseline * fraction`` (higher is better).  ``ceilings``:
#: (key, multiple) — fresh must stay under ``baseline * multiple``
#: (lower is better).  ``counters``: deterministic counts that must not
#: decrease.
GATES = {
    "fig16": {
        "floors": [
            ("raw_speedup", 0.75),       # >25% throughput-speedup drop fails
            ("sweep_byte_ratio", 0.98),  # deterministic: effectively exact
            ("churn_byte_ratio", 0.98),  # miss path: one group re-encoded
        ],
        "ceilings": [],
        "counters": [
            "raw_decode_hits",
            "raw_encode_cache_hits",
            "sweep_encode_cache_hits",
            "sweep_context_hits",
            "sweep_template_fills",
        ],
    },
    "fig20": {
        "floors": [
            ("goodput_fd_on", 0.99),   # deterministic committed fraction
            ("goodput_fd_off", 0.99),
        ],
        "ceilings": [
            ("detect_s", 1.05),   # crash -> DOWN latch, simulated seconds
            ("readmit_s", 1.05),  # restart -> half-open probe success
            ("recover_s", 1.05),  # reboot -> in-doubt drained
        ],
        "counters": [],
    },
    "fig21": {
        "floors": [
            ("goodput_replicated", 0.99),  # deterministic committed fraction
        ],
        "ceilings": [
            ("write_amp_n3", 1.05),           # backing ops per acked put
            ("replica_readmit_s", 1.05),      # heal -> maintenance readmit
            ("failover_failed_appends", 1.0), # baseline 0: any loss fails
            ("sweep_violations", 1.0),        # baseline 0: any violation fails
        ],
        "counters": [
            "wal_shipped_records",
            "wal_catchup_lag_drained",
            "failover_promotions",
            "sweep_promotions",
        ],
    },
    "fig22": {
        "floors": [
            # All three run under a simulated clock with seeded rngs —
            # exactly reproducible; the slack is just float headroom.
            ("overload_goodput_ratio", 0.90),   # gated/ungated goodput at 4x
            ("gated_goodput_retention", 0.95),  # overload goodput vs knee
            ("gated_goodput_overload", 0.99),   # absolute gated goodput
        ],
        "ceilings": [
            ("gated_p99_s", 1.05),  # bounded by max_live/capacity, not load
        ],
        "counters": [
            "live_peak",    # sustained concurrent live activities (120k)
            "shed_total",   # deterministic shed count across the sweep
        ],
    },
}


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check_figure(figure: str, fresh: dict, baseline: dict) -> list:
    gates = GATES[figure]
    failures = []

    for key, fraction in gates["floors"]:
        if key not in baseline:
            continue
        if key not in fresh:
            failures.append(f"{figure}.{key}: missing from fresh results")
            continue
        floor = baseline[key] * fraction
        status = "ok" if fresh[key] >= floor else "REGRESSED"
        print(
            f"{figure}.{key}: fresh={fresh[key]:.3f} "
            f"baseline={baseline[key]:.3f} floor={floor:.3f} [{status}]"
        )
        if fresh[key] < floor:
            failures.append(
                f"{figure}.{key}: {fresh[key]:.3f} < {floor:.3f} "
                f"(baseline {baseline[key]:.3f}, allowed {fraction:.0%})"
            )

    for key, multiple in gates["ceilings"]:
        if key not in baseline:
            continue
        if key not in fresh:
            failures.append(f"{figure}.{key}: missing from fresh results")
            continue
        ceiling = baseline[key] * multiple
        status = "ok" if fresh[key] <= ceiling else "REGRESSED"
        print(
            f"{figure}.{key}: fresh={fresh[key]:.3f} "
            f"baseline={baseline[key]:.3f} ceiling={ceiling:.3f} [{status}]"
        )
        if fresh[key] > ceiling:
            failures.append(
                f"{figure}.{key}: {fresh[key]:.3f} > {ceiling:.3f} "
                f"(baseline {baseline[key]:.3f}, allowed x{multiple:g})"
            )

    for key in gates["counters"]:
        if key not in baseline:
            continue
        if key not in fresh:
            failures.append(f"{figure}.{key}: missing from fresh results")
            continue
        status = "ok" if fresh[key] >= baseline[key] else "REGRESSED"
        print(
            f"{figure}.{key}: fresh={fresh[key]} "
            f"baseline={baseline[key]} [{status}]"
        )
        if fresh[key] < baseline[key]:
            failures.append(
                f"{figure}.{key}: {fresh[key]} below baseline {baseline[key]}"
            )

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure",
        choices=sorted(GATES),
        help="gate a single figure (default: every figure with a baseline)",
    )
    parser.add_argument(
        "--fresh",
        help="JSON produced by the bench run under test "
        "(single-figure mode only)",
    )
    parser.add_argument(
        "--baseline",
        help="committed baseline JSON (single-figure mode only)",
    )
    args = parser.parse_args(argv)

    if (args.fresh or args.baseline) and not args.figure:
        parser.error("--fresh/--baseline require --figure")

    figures = [args.figure] if args.figure else sorted(GATES)
    failures = []
    checked = 0
    for figure in figures:
        baseline_path = args.baseline or os.path.join(
            HERE, "baselines", f"BENCH_{figure}.json"
        )
        fresh_path = args.fresh or os.path.join(
            HERE, "results", f"BENCH_{figure}.json"
        )
        if not os.path.exists(baseline_path):
            if args.figure:
                print(f"{figure}: no baseline at {baseline_path}",
                      file=sys.stderr)
                return 1
            continue  # figure not yet baselined; nothing to gate
        if not os.path.exists(fresh_path):
            failures.append(f"{figure}: no fresh results at {fresh_path}")
            continue
        failures.extend(check_figure(figure, load(fresh_path),
                                     load(baseline_path)))
        checked += 1

    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if checked == 0:
        print("bench regression gate: nothing to check", file=sys.stderr)
        return 1
    print(f"\nbench regression gate: all checks passed ({checked} figures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
