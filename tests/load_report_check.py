"""Check a ``python -m repro.load`` report's admission gate against its clients.

The server-side gate and the client-side taxonomy count the same ops
from two ends, so they must agree exactly::

    admission.peak_live     <= max_live
    admission.live          == 0                    (every slot came back)
    admission.admitted      == ok + deadline_miss   (every admitted op replied)
    admission.rejected_full == shed                 (every refusal was seen)

Run it on one or more report files; it exits 1 and names each broken
equation when any report disagrees::

    python tests/load_report_check.py load-report.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """The equations above that ``report`` breaks (empty when all hold)."""
    gate = report.get("admission")
    if gate is None:
        return ["report has no admission block (run with --max-live)"]
    checks = [
        (gate["peak_live"] <= report["max_live"],
         f"peak_live {gate['peak_live']} > max_live {report['max_live']}"),
        (gate["live"] == 0, f"live {gate['live']} != 0 after the run"),
        (gate["admitted"] == report["ok"] + report["deadline_miss"],
         f"admitted {gate['admitted']} != ok {report['ok']}"
         f" + deadline_miss {report['deadline_miss']}"),
        (gate["rejected_full"] == report["shed"],
         f"rejected_full {gate['rejected_full']} != shed {report['shed']}"),
    ]
    return [message for ok, message in checks if not ok]


def main(paths: List[str]) -> int:
    if not paths:
        print(__doc__)
        return 2
    failed = False
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            failures = gate_failures(json.load(fh))
        for message in failures:
            print(f"{path}: {message}")
        failed = failed or bool(failures)
        if not failures:
            print(f"{path}: admission gate agrees with the clients")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
