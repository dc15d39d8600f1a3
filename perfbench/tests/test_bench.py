"""Tests of the benchmark itself: draws, checks, metric names, launching.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from qfcring.config import apply_overrides, default_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def contexts(tmp_path_factory):
    cfg = default_config()
    work = str(tmp_path_factory.mktemp("work"))
    return {name: wl.prepare(cfg, work) for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_draws(name, contexts):
    wl, ctx = WORKLOADS[name], contexts[name]
    first = [wl.block(7, b, ctx) for b in range(3)]
    assert first == [wl.block(7, b, ctx) for b in range(3)]
    assert first != [wl.block(8, b, ctx) for b in range(3)]


def _overrides(op):
    cfg = apply_overrides(default_config(), op["overrides"])
    return cfg["constraints"], cfg["experiment"]


@pytest.mark.parametrize("seed", range(40))
def test_explore_draws_stay_feasible(seed):
    ops = workloads.explore_block(seed, 0)
    assert sum(op["repeat"] for op in ops) == 2
    for op in ops:
        cons, exp = _overrides(op)
        assert 300.0 <= cons["t_ring_min_K"] <= workloads.T_LO_MAX_K
        assert workloads.T_HI_MIN_K <= cons["t_ring_max_K"] <= 400.0
        step = cons["t_step_mK"]
        assert step == 0.0 or workloads.STEP_MK[0] <= step <= workloads.STEP_MK[1]
        assert exp["widths_nm"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_block_passes_its_checks(name, contexts):
    wl, ctx = WORKLOADS[name], contexts[name]
    digests = [wl.check(op, wl.run(op, ctx), ctx) for op in wl.block(0, 0, ctx)]
    assert all(len(d) == 64 for d in digests)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def _bench(cwd, *args, env=None):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("trace,names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_runs_from_a_temporary_cwd(tmp_path, trace, names):
    proc = _bench(tmp_path, "--workload", "oracle", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    assert not list(tmp_path.iterdir())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "explore",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_refuses_to_run_with_thread_override(tmp_path):
    proc = _bench(tmp_path, "--workload", "oracle", "--seed", "1", "--seconds", "1",
                  env=dict(os.environ, QFCRING_THREADS="2"))
    assert proc.returncode == 2
    assert "{" not in proc.stdout
