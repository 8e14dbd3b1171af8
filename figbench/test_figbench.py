"""Tests for the benchmark itself, on tiny traces (``ops_scale`` 0.02).

Run from the repository root::

    python3 -m pytest figbench -q
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_check  # noqa: E402
import run  # noqa: E402
from bench_workloads import Workload  # noqa: E402

SMOKE = Workload("smoke", 0.02, ("CoMD", "mst"), durable=False)
SMOKE_DURABLE = dataclasses.replace(SMOKE, name="smoke-durable",
                                    durable=True)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, tmp_path, trace=False):
    return run.bench(workload, seed=1, seconds=0, trace=trace,
                     scratch=tmp_path)


@pytest.mark.parametrize("workload", [SMOKE, SMOKE_DURABLE],
                         ids=lambda w: w.name)
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section,
                                               tmp_path):
    result = _bench(workload, tmp_path, trace)["result"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert result["correct"] and result["failed"] == 0
    # One check per cell, plus the replay check on a durable sweep; a
    # traced run checks its untraced and its traced pass.
    checks = len(workload.cells()) + (1 if workload.durable else 0)
    assert result["attempted"] == checks * (2 if trace else 1)


def test_spans_account_for_the_driver_wall(tmp_path):
    metrics = {name: m["value"] for name, m in
               _bench(SMOKE_DURABLE, tmp_path, trace=True)["result"]
               ["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("trace", "engine", "experiments", "telemetry",
                  "analysis"))
    assert layers == pytest.approx(metrics["analysis.wall_s"], rel=1e-9)
    cells = len(SMOKE_DURABLE.cells())
    # The sweep simulates from the warm trace cache; the replay pass
    # reads every cell back from the store.
    assert metrics["engine.cells"] == cells
    assert metrics["trace.generate_calls"] == 0
    assert metrics["trace.cache_hits"] == len(SMOKE_DURABLE.traces)
    assert metrics["experiments.store_hits"] == cells
    assert metrics["telemetry.manifests"] == 2 * cells
    assert metrics["experiments.replay_s"] > 0
    assert metrics["engine.busy_s"] >= metrics["engine.loop_s"] > 0
    assert (tmp_path / "spans-smoke-durable-seed1.json").exists()


def test_perturbed_reference_makes_cells_fail(tmp_path, monkeypatch):
    reference = bench_check.compute_reference(SMOKE, seed=1)
    reference["mst/hmg"]["cycles"] *= 1.5
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({SMOKE.name: {
        "identity": bench_check.reference_identity(SMOKE),
        "cells": reference}}))
    monkeypatch.setattr(bench_check, "REFERENCE_PATH", path)
    report = _bench(SMOKE, tmp_path)
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["cells_ok_frac"]["value"] < 1
    assert any("mst/hmg: cycles" in line for line in report["lines"])


def test_replay_mismatch_is_detected(tmp_path, monkeypatch):
    from repro.experiments.store import ResultStore

    original = ResultStore.get

    def skewed(self, key):
        result = original(self, key)
        if result is not None and result.protocol_name == "hmg":
            result = copy.copy(result)
            result.cycles *= 2
        return result

    monkeypatch.setattr(ResultStore, "get", skewed)
    report = _bench(SMOKE_DURABLE, tmp_path)
    assert report["result"]["failed"] == 1
    assert any("replay" in line for line in report["lines"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "figbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig8-quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
