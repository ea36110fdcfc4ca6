"""BENCHMARK.json lists exactly the metrics, units and workloads the code reports."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_listing_matches_the_code():
    doc = load()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_gate_rejects_a_changed_value():
    readout = {"covariance_terms": {"weighted_covariance_l2_sq_doubled": 1.0}}
    assert not run.gate("analytic_long_memory_qn", readout)["ok"]


def test_fingerprint_shows_the_route_gap():
    readout = {"eta2": 2.0, "eta2_alt": 2.001, "diagnostics": {"bsg_l2_tail": 1e-8}}
    fp = run.fingerprint(readout)
    assert fp["variance.route_gap_rel"] == pytest.approx(5e-4)
    assert fp["variance.route_gap_exceeds_bounds"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mc_qn_cpn", "--seed", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
