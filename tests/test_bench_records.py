"""The checked-in benchmark records, ``BENCH_<n>.json`` at the repository
root: each names the revision it measured, the machine's core count and the
tier-1 suite's wall time, and holds for every workload of ``BENCHMARK.json``
the last stdout line of ``perfbench/run.py --trace 0`` and ``--trace 1``, a
run that checked out, under the metric names and units that file declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the metrics each trace mode reports, with their units
DECLARED = {
    "trace0": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
    "trace1": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
}


def test_the_first_record_is_checked_in():
    assert ROOT / "BENCH_1.json" in RECORDS


@pytest.fixture(params=RECORDS, ids=[path.name for path in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_names_its_revision_and_machine(record):
    assert re.fullmatch(r"[0-9a-f]{40}", record["revision"])
    assert record["env"]["git_revision"] == record["revision"]
    assert type(record["cores"]) is int and record["cores"] >= 1
    assert record["env"]["nproc"] == record["cores"]
    wall = record["tier1"]["wall_s"]
    assert isinstance(wall, (int, float)) and wall > 0
    assert all(isinstance(gap, str) and gap for gap in record["gaps"])


def test_every_workload_ran_and_checked_out(record):
    assert sorted(record["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name, runs in record["workloads"].items():
        assert sorted(runs) == sorted(DECLARED), name
        for mode, result in runs.items():
            assert result["correct"] is True, (name, mode)
            assert result["failed"] == 0 and result["attempted"] > 0, (name, mode)


def test_metrics_match_the_declared_names_and_units(record):
    for name, runs in record["workloads"].items():
        for mode, result in runs.items():
            metrics = result["metrics"]
            assert sorted(metrics) == sorted(DECLARED[mode]), (name, mode)
            for metric, reading in metrics.items():
                assert reading["unit"] == DECLARED[mode][metric], (name, metric)
                assert isinstance(reading["value"], (int, float)), (name, metric)
