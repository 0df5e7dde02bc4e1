"""Tests of the benchmark itself, at tiny sizes."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_package()

import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "transport-semilinear": workloads.transport_semilinear(n=16, time_step=1e-2,
                                                           nominal_s=1.0),
    "transport-integro": workloads.transport_integro(n=8, time_step=1e-2,
                                                     nominal_s=1.0),
    # the oracle gate (1e-6) needs the corpus step, so this one stays at 3e-4
    "linear-oracle": workloads.linear_oracle(nominal_s=1.0),
}


@pytest.fixture
def bench_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


def test_end_to_end_metrics_named_with_units(bench_out):
    record = run.measure(TINY["transport-semilinear"], seed=3, seconds=1, trace=False)
    assert record["failed"] == 0 and record["attempted"] == 1
    assert {k: unit for k, (_, unit) in record["metrics"].items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in record["metrics"].values())
    assert record["solve_s_p50"] > 0 and record["failed_fraction"] == 0
    for key in ("cpu_model", "nproc", "python", "numpy", "scipy", "openblas_threads"):
        assert key in record["machine"]
    assert record["seed"] == 3 and len(record["records"][0]["sha256"]) == 64


@pytest.mark.parametrize("name", ["transport-integro", "linear-oracle"])
def test_traced_run_emits_every_layer_metric(bench_out, name):
    record = run.measure(TINY[name], seed=1, seconds=1, trace=True)
    assert record["failed"] == 0 and record["attempted"] == 2
    assert {k: unit for k, (_, unit) in record["metrics"].items()} == _declared("per_layer")
    metrics = {k: value for k, (value, _) in record["metrics"].items()}
    assert metrics["config.load_s"] > 0 and metrics["gramian.assemble_calls"] > 0
    assert 0 < metrics["trace.top_level_share"] <= 1
    if name == "transport-integro":
        assert metrics["discretize.kernel_bytes_computed"] > 0
        assert metrics["core.history_segment_calls"] > 0
    else:
        assert metrics["oracle.rk4_steps"] > 0 and metrics["semigroups.expm_calls"] > 0
    spans = json.loads((bench_out / f"{name}-seed1.spans.json").read_text())
    assert len(spans["spans"]) == record["spans"]
    # the wrappers are gone once the traced pass ends
    from evosteer import cli, config
    assert cli.load_config is config.load_config
    assert not hasattr(config.load_config, "__wrapped__")


def test_gate_trips_on_wrong_target(tmp_path):
    workload = TINY["transport-semilinear"]
    inst = workload.instance(5, 0, tmp_path / "out")
    assert inst.ini == workload.instance(5, 0, tmp_path / "out").ini
    assert inst.ini != workload.instance(6, 0, tmp_path / "out").ini
    ini = tmp_path / "case.ini"
    ini.write_text(inst.ini)
    _, code, _ = workloads.drive(inst.command, ini)
    good = workloads.check(inst, tmp_path / "out", code)
    assert good["ok"], good["problems"]

    wrong = [np.array(z) for z in inst.targets]
    wrong[1][3] += 1e-3
    bad = workloads.check(dataclasses.replace(inst, targets=wrong),
                          tmp_path / "out", code)
    assert not bad["ok"] and "window defects" in bad["problems"][0]
    assert bad["sha256"] == good["sha256"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "linear-oracle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
