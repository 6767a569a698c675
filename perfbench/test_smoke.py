"""Smoke test of the benchmark: every cell at a tiny length.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Each workload, untraced and traced, must pass its output checks and
print every metric ``BENCHMARK.json`` names, with the unit it names.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170)


def _spec_units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--sim-ms", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    expected = _spec_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in out["metrics"].items()} \
        == expected
    assert all(isinstance(m["value"], (int, float))
               for m in out["metrics"].values())


def test_refuses_an_active_run_cache():
    env = dict(os.environ, REPRO_RUN_CACHE="1")
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                  "0", "--sim-ms", "1", env=env)
    assert proc.returncode == 2
    assert "run cache" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                  "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
