"""The benchmark's traced view of each workload: every per-layer metric has its layer.

A refactor can empty a per-layer metric without failing anything else:
caching `dispersion.default_model` would time a cache hit as the fit, and
renaming `evolve_mean_field`'s `steps` would zero the RK4 step count.  This
traces one block of each workload in process, as `perfbench/run.py --trace 1`
does, and checks the tracer finds every layer and that the workload's own
counters are non-zero.
"""

import functools
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

from qfcring import dispersion

ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def load_bench_module(name):
    """perfbench/<name>.py as module perfbench_<name> (registered: it holds dataclasses)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, counters", [
    pytest.param("explore", ("matching.grid_points", "elements.resonance_roots",
                             "experiments.files_written"), id="explore"),
    pytest.param("recalibrate", ("calibration.width_solves",), id="recalibrate"),
    # The tracer counts a sweep for calibration only when calibrate_config is its
    # direct parent span, but calibration sweeps through builders.operating_point.
    pytest.param("recalibrate", ("calibration.sweeps",), id="recalibrate-sweeps",
                 marks=pytest.mark.xfail(strict=True, reason="calibration.sweeps reads 0: "
                                         "perfbench/tracer.py looks only at the parent span")),
    pytest.param("oracle", ("conversion.rk4_steps", "conversion.rk4_calls_per_point"),
                 id="oracle"),
])
def test_traced_block_fills_the_workload_metrics(cfg, tmp_path, workload, counters):
    tracer_module, workloads = load_bench_module("tracer"), load_bench_module("workloads")
    wl = workloads.WORKLOADS[workload]
    ctx = wl.prepare(cfg, str(tmp_path))
    ops = wl.block(1, 0, ctx)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.op_id = -2  # the fit probe, as run.py's traced_run
        dispersion.default_model()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, op in enumerate(ops):
                tracer.begin_op(i)
                wl.run(op, ctx)
                tracer.op_id = -1
    finally:
        tracer.uninstall()
    metrics, notes = tracer.layer_metrics(len(ops), fit_op=-2,
                                          scales=dict.fromkeys(range(len(ops)), 1.0))
    assert {k: v for k, v in notes.items() if v.startswith("absent:")} == {}
    assert {k: metrics[k] for k in ("dispersion.fit_s", *counters) if not metrics[k] > 0.0} == {}
