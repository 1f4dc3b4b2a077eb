"""The benchmark's own tests: smoke runs of every workload path and check,
the result format BENCHMARK.json promises, and the failure paths.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "pins.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "0", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    record = json.loads((run.OUT / "results" / f"smoke-{workload}-seed0-trace0.json").read_text())
    assert record["pinned"], "seed 0 must be checked against pinned values"
    assert record["env"]["threads"]["OPENBLAS_NUM_THREADS"] == str(run.BLAS_THREADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "19", "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["encoder.fwd_ms"] > 0 and metrics["engine.conv2d_calls"] > 0
    trains = workload.startswith("train")
    assert (metrics["engine.bw.conv2d_ms"] > 0) == trains
    assert (metrics["pngio.read_ms"] > 0) == (not trains)


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    units = run.layer_units()
    assert [m["name"] for m in SPEC["per_layer"]] == list(units)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == units[m["name"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_pinned_check_catches_a_changed_output(name, tmp_path):
    spec = workloads.SMOKE[name]
    table = PINS["workloads"]["smoke/" + name]
    wl = workloads.make(spec, 0, tmp_path / "data")

    def stop_after_step_0():
        raise workloads.Stop

    wl.run(stop_after_step_0)
    values = wl.pinned_values()
    assert workloads.compare_pins(values, spec, table, 0) == []
    assert workloads.compare_pins(values, spec, table, 12345) is None
    for key in spec.pins:
        shifted = dict(values, **{key: values[key] * (1 + 2 * table["rel_tol"][key])})
        assert len(workloads.compare_pins(shifted, spec, table, 0)) == 1


def test_memory_probe_counts_memory_inherited_from_the_step_before():
    probe = tracer.MemoryProbe()          # at the start of the step before
    try:
        kept = np.ones(2 ** 20)           # that step's graph, kept alive
        probe.begin()                     # the measured step starts
        built = np.ones(2 ** 20)          # this step's graph
        probe.forward_done()
    finally:
        probe.stop()
    assert probe.graph_peak >= kept.nbytes + built.nbytes


def test_tracer_restores_every_patched_attribute():
    tr = tracer.Tracer()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tr._sites]
    tr.install(step=0)
    assert any(vars(owner)[attr] is not original for owner, attr, original in before)
    tr.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "train-tiny-64x32", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
