"""BENCHMARK.json against the driver's contract and against the code."""

import json
import os
import re

import metrics
from conftest import REPO_ROOT
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_top_level_keys_and_limits():
    spec = load()
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(REPO_ROOT, "BENCHMARK.json")) <= 64 * 1024
    # 4 + 22 x workloads runs, set-up included, must fit the driver's cap.
    assert len(spec["workloads"]) == 5


def test_workloads_are_the_codes_workloads():
    spec = load()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert sorted(entry) == ["name", "why"]
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_metrics_are_the_codes_metrics():
    spec = load()
    for key, declared in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = spec[key]
        assert [m["name"] for m in listed] == [m.name for m in declared]
        for entry, metric in zip(listed, declared):
            assert entry["unit"] == metric.unit and entry["better"] == metric.better
            assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
            assert entry["better"] in ("higher", "lower")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))


def test_bounds_and_setup_metric():
    spec = load()
    for entry in spec["end_to_end"]:
        assert sorted(entry) == ["better", "bound", "name", "unit"]
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert sorted(entry) == ["better", "name", "unit"]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_metric_says_what_it_moves():
    assert all(metric.moves for metric in metrics.PER_LAYER)
