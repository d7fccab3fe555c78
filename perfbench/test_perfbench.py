"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

Each workload runs at a tiny size; the checks are on metric names and units,
on the correctness checks, and on the traced run leaving results unchanged.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pfopt import bench, sets  # noqa: E402

from harness import _check_pass, run_benchmark, run_pass  # noqa: E402
from layers import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    report = run_benchmark(
        WORKLOADS[name], seed=3, seconds=0, trace=trace, out_dir=tmp_path,
        src=ROOT / "src", setup_samples=1, tiny=True,
    )
    assert report.failures == []
    assert report.correct and report.attempted > 0
    kind = "per_layer" if trace else "end_to_end"
    assert {n: u for n, (_, u) in report.metrics.items()} == _declared(kind)
    line = json.loads(report.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(v > 0 for v, _ in report.metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_is_bit_identical(name, tmp_path):
    workload = WORKLOADS[name]
    configs = workload.configs(5, True)
    plain = run_pass(workload, configs, tmp_path)
    tracer = Tracer()
    with instrument(tracer):
        traced = run_pass(workload, configs, tmp_path, tracer)
    assert [p.f_xbar.hex() for p in traced.points] == [
        p.f_xbar.hex() for p in plain.points
    ]
    assert all(tracer.xbar_contained)
    assert tracer.calls("algorithms") == len(plain.points)
    assert _check_pass(workload, traced, plain) == {}


def test_check_flags_a_changed_result(tmp_path):
    workload = WORKLOADS["hypercube_sweep"]
    plain = run_pass(workload, workload.configs(0, True), tmp_path)
    changed = replace(plain, points=list(plain.points))
    first = changed.points[0]
    changed.points[0] = replace(first, f_xbar=math.nextafter(first.f_xbar, math.inf))
    assert set(_check_pass(workload, changed, plain)) == {0}


def test_instrument_restores_every_name():
    before = {n: getattr(bench, n) for n in ("pfw_run", "l1_distance", "gaussian_oracle")}
    lmo = sets.NuclearBall.lmo
    with instrument(Tracer()):
        assert bench.pfw_run is not before["pfw_run"]
        assert sets.NuclearBall.lmo is not lmo
    assert {n: getattr(bench, n) for n in before} == before
    assert sets.NuclearBall.lmo is lmo


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "polytope_num3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
