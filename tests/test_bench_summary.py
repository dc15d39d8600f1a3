"""scripts/bench_summary.py: medians, quartiles, pair wins and bounds of bench records."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("bench_summary",
                                                  ROOT / "scripts" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(seed, ops_per_s, peak_rss_mb, commit="c", trace=False):
    """A run record as perfbench/run.py writes it, cut to what the summary reads."""
    metrics = {"ops_per_s": ops_per_s, "op_p50_s": 1.0 / ops_per_s,
               "op_tail_s": 2.0 / ops_per_s, "peak_rss_mb": peak_rss_mb, "ok_frac": 1.0,
               "setup_s": 0.2}
    return {"workload": "oracle", "seed": seed, "trace": trace, "git_commit": commit,
            "cpu_model": "Test CPU", "metrics": metrics}


def test_two_records_make_one_pair(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for label, rec in (("parent", record(7, 18.0, 41.0, "aaa")),
                       ("change", record(7, 90.0, 42.5, "bbb"))):
        (tmp_path / label).mkdir()
        (tmp_path / label / "oracle-seed7-trace0.json").write_text(json.dumps(rec))
    load_script().main(["3", f"parent={tmp_path / 'parent'}", f"change={tmp_path / 'change'}"],
                       root=str(tmp_path))
    oracle = json.loads((tmp_path / "BENCH_3.json").read_text())["oracle"]
    assert oracle["change"]["runs"] == 1
    assert oracle["change"]["metrics"]["ops_per_s"] == {"median": 90.0, "q1": 90.0, "q3": 90.0}
    assert oracle["parent"]["commits"] == ["aaa"] and oracle["parent"]["seeds"] == [7]
    assert oracle["parent"]["cpu_models"] == ["Test CPU"]
    assert set(oracle["change"]["metrics"]) == set(oracle["pairs"]["wins"])  # every metric
    assert oracle["pairs"]["seeds"] == [7]
    assert oracle["pairs"]["wins"] == {"ops_per_s": 1, "op_p50_s": 1, "op_tail_s": 1,
                                       "peak_rss_mb": 0, "ok_frac": 0, "setup_s": 0}
    assert oracle["pairs"]["ratio"] == pytest.approx({
        "ops_per_s": 5.0, "op_p50_s": 0.2, "op_tail_s": 0.2, "peak_rss_mb": 42.5 / 41.0,
        "ok_frac": 1.0, "setup_s": 1.0})
    assert oracle["pairs"]["beyond_bound"] == []  # +3.7 % RSS is within its 5 %


def test_beyond_bound_lists_each_metric_worse_than_its_bound():
    better = {"ops_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}
    bounds = {"ops_per_s": 0.25, "peak_rss_mb": 0.05, "setup_s": 0.25}
    parent = [record(s, 100.0, 40.0) for s in (1, 2, 3)]
    change = [record(1, 76.0, 42.0), record(2, 74.0, 42.1), record(3, 70.0, 42.2)]
    for rec in change:
        rec["metrics"]["setup_s"] = 9.0
    pairs = load_script().summarise({"parent": parent, "change": change},
                                    better, bounds)["oracle"]["pairs"]
    # medians: ops 74 (-26 %), RSS 42.1 (+5.25 %), setup 45x
    assert pairs["ratio"] == pytest.approx({"ops_per_s": 0.74, "peak_rss_mb": 42.1 / 40.0,
                                            "setup_s": 45.0})
    assert pairs["beyond_bound"] == ["ops_per_s", "peak_rss_mb", "setup_s"]
    # within the bounds, and a zero parent median, which has no ratio
    change = [record(s, 76.0, 41.9) for s in (1, 2, 3)]
    for rec in parent + change:
        rec["metrics"]["setup_s"] = 0.0
    pairs = load_script().summarise({"parent": parent, "change": change},
                                    better, bounds)["oracle"]["pairs"]
    assert pairs["beyond_bound"] == [] and pairs["ratio"]["setup_s"] is None


def test_quartiles_skip_traced_runs():
    runs = {"change": [record(s, v, 0.0) for s, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
            + [record(9, 100.0, 0.0, trace=True)]}
    summary = load_script().summarise(runs, {"ops_per_s": "higher"}, {"ops_per_s": 0.25})
    assert summary["oracle"]["change"]["runs"] == 5
    assert summary["oracle"]["change"]["metrics"]["ops_per_s"] == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert "pairs" not in summary["oracle"]
