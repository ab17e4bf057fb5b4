"""Self-tests of the benchmark, at SF 0.001.

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider

Each case runs ``perfbench/run.py`` in a subprocess, exactly as a user
would, so every run pays its own Spark start: the file takes minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SF = "0.001"

#: The named layers must cover the traced pass to within this share.
COVERAGE_TOLERANCE = 0.02

#: Counts that depend only on the seed, never on timing.
EXACT_COUNTS = ("spark.jobs", "spark.tasks", "engine.probe_rows",
                "materialize.result_rows")


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--sf", SF]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, seed: int = 0) -> dict:
    r = bench(workload, trace, seed)
    assert r.returncode == 0, r.stderr[-3000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.fixture(scope="module")
def traced_twice():
    return [result("investigation", 1), result("investigation", 1)]


def _names_and_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_emitted(workload):
    metrics = result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _names_and_units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_every_per_layer_metric_is_emitted(traced_twice):
    want = _names_and_units("per_layer")
    anomaly = result("anomaly-sweep", 1)["metrics"]
    for metrics in (traced_twice[0]["metrics"], anomaly):
        assert {k: v["unit"] for k, v in metrics.items()} == want
    assert anomaly["anomaly.run_s"]["value"] > 0
    assert anomaly["engine.probe_s"]["value"] == 0


def test_counts_repeat_exactly_for_one_seed(traced_twice):
    a, b = (r["metrics"] for r in traced_twice)
    for name in EXACT_COUNTS:
        assert a[name]["value"] == b[name]["value"], name
    assert a["engine.probe_rows"]["value"] > 0
    assert a["engine.patterns_probed"]["value"] == 24


def test_layer_self_times_add_up_to_traced_wall_time(traced_twice):
    for r in traced_twice:
        m = {k: v["value"] for k, v in r["metrics"].items()}
        wall = m["trace.pass_s"]
        engine_layers = [
            k for k, u in _names_and_units("per_layer").items()
            if u == "s" and not k.startswith(("baseline.", "trace."))
            and k != "storage.events_flat_s"]
        covered = sum(m[k] for k in engine_layers)
        assert covered <= wall * (1 + 1e-9)
        assert covered >= wall * (1 - COVERAGE_TOLERANCE), (covered, wall)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("investigation", 0, cwd=tmp_path)
    assert r.returncode != 0
    assert "metrics" not in r.stdout
