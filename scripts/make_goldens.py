#!/usr/bin/env python3
"""Regenerate the golden regression outputs for every experiment.

Run after make_defaults.py whenever the committed defaults change.  With
--check, regenerate into a temporary directory instead, compare byte for
byte with the committed files, and exit 1 naming every file that differs.
A failed check also names the numeric backend (numpy version, its SIMD
targets in use, the OpenBLAS core) and, per file, the first differing value
(a JSON or YAML path, or a CSV cell) and the largest relative difference,
so a backend drift in the last bits reads differently from a real change.

Beyond the goldens, a corpus of override lists (explore draws and one
config per path the packaged config does not take) runs the six explore
experiments and `calibrate` in process.  tests/golden/digests.json pins the
sha256 of every output by file name, or the error each failing experiment
raises; --check names every corpus config and file (or error) that moved.
"""

from __future__ import annotations

import argparse
import ctypes
import filecmp
import glob
import hashlib
import json
import os
import shutil
import sys
import tempfile
import warnings

import yaml

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qfcring.config import apply_overrides, default_config, emit_config, load_config
from qfcring.errors import QfcError
from qfcring.experiments import EXPERIMENTS, run_experiment

TESTS = os.path.join(os.path.dirname(__file__), "..", "tests")
# Generated trees relative to the tests dir; fixtures shares its dir with
# hand-written files, so only the generated names there are compared.
GOLDEN_DIRS = (os.path.join("golden", "default_run"), os.path.join("golden", "planted_match"))
FIXTURES = (os.path.join("fixtures", "planted.yaml"), os.path.join("fixtures", "planted_table.csv"))
DIGESTS = os.path.join("golden", "digests.json")

# Overrides on the packaged config.  The explore draws are the output of the
# benchmark's explore_block(1201, 0) and explore_block(1201, 1), kept here as
# literals so the corpus does not move with the benchmark.
CORPUS = {
    "explore-1201-0-0": [
        "constraints.t_ring_min_K=300.288", "constraints.t_ring_max_K=378.381",
        "constraints.t_step_mK=4.106", "experiment.widths_nm=[1400, 1500, 1600]",
        "experiment.spectrum_points=1083", "experiment.mzi_sweep_points=229",
        "experiment.power_points=125", "experiment.power_min_mW=0.0058578",
        "experiment.power_max_mW=8.84841", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=-26.1339", "experiment.pump_power_mW=1.2602"],
    "explore-1201-0-1": [
        "constraints.t_ring_min_K=332.853", "constraints.t_ring_max_K=368.593",
        "constraints.t_step_mK=12.181", "experiment.widths_nm=[1500]",
        "experiment.spectrum_points=1509", "experiment.mzi_sweep_points=249",
        "experiment.power_points=92", "experiment.power_min_mW=0.0309138",
        "experiment.power_max_mW=17.9332", "experiment.power_spacing=log",
        "physics.pump_detuning_MHz=22.4128", "experiment.pump_power_mW=null"],
    "explore-1201-0-2": [
        "constraints.t_ring_min_K=318.658", "constraints.t_ring_max_K=367.069",
        "constraints.t_step_mK=9.433", "experiment.widths_nm=[1400]",
        "experiment.spectrum_points=1452", "experiment.mzi_sweep_points=244",
        "experiment.power_points=106", "experiment.power_min_mW=0.024708",
        "experiment.power_max_mW=17.5765", "experiment.power_spacing=log",
        "physics.pump_detuning_MHz=46.0755", "experiment.pump_power_mW=null"],
    "explore-1201-0-3": [
        "constraints.t_ring_min_K=305.733", "constraints.t_ring_max_K=399.676",
        "constraints.t_step_mK=2.455", "experiment.widths_nm=[1400, 1500, 1600]",
        "experiment.spectrum_points=1219", "experiment.mzi_sweep_points=239",
        "experiment.power_points=153", "experiment.power_min_mW=0.0228374",
        "experiment.power_max_mW=16.0267", "experiment.power_spacing=log",
        "physics.pump_detuning_MHz=18.4128", "experiment.pump_power_mW=null"],
    "explore-1201-0-4": [
        "constraints.t_ring_min_K=324.386", "constraints.t_ring_max_K=380.536",
        "constraints.t_step_mK=0.000", "experiment.widths_nm=[1500, 1600]",
        "experiment.spectrum_points=1761", "experiment.mzi_sweep_points=260",
        "experiment.power_points=141", "experiment.power_min_mW=0.013772",
        "experiment.power_max_mW=10.5308", "experiment.power_spacing=log",
        "physics.pump_detuning_MHz=85.2553", "experiment.pump_power_mW=null"],
    "explore-1201-0-5": [
        "constraints.t_ring_min_K=332.853", "constraints.t_ring_max_K=368.593",
        "constraints.t_step_mK=12.181", "experiment.widths_nm=[1500]",
        "experiment.spectrum_points=1335", "experiment.mzi_sweep_points=254",
        "experiment.power_points=83", "experiment.power_min_mW=0.0426666",
        "experiment.power_max_mW=12.1625", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=-83.6936", "experiment.pump_power_mW=4.53274"],
    "explore-1201-0-6": [
        "constraints.t_ring_min_K=319.809", "constraints.t_ring_max_K=392.649",
        "constraints.t_step_mK=4.829", "experiment.widths_nm=[1400, 1500]",
        "experiment.spectrum_points=1974", "experiment.mzi_sweep_points=227",
        "experiment.power_points=114", "experiment.power_min_mW=0.0481739",
        "experiment.power_max_mW=6.61809", "experiment.power_spacing=log",
        "physics.pump_detuning_MHz=17.1282", "experiment.pump_power_mW=null"],
    "explore-1201-0-7": [
        "constraints.t_ring_min_K=319.809", "constraints.t_ring_max_K=392.649",
        "constraints.t_step_mK=4.829", "experiment.widths_nm=[1400, 1500]",
        "experiment.spectrum_points=1960", "experiment.mzi_sweep_points=232",
        "experiment.power_points=160", "experiment.power_min_mW=0.0205488",
        "experiment.power_max_mW=17.0902", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=-67.1686", "experiment.pump_power_mW=null"],
    "explore-1201-1-0": [
        "constraints.t_ring_min_K=316.438", "constraints.t_ring_max_K=386.648",
        "constraints.t_step_mK=0.000", "experiment.widths_nm=[1400, 1500]",
        "experiment.spectrum_points=1159", "experiment.mzi_sweep_points=238",
        "experiment.power_points=152", "experiment.power_min_mW=0.00790711",
        "experiment.power_max_mW=12.1205", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=-47.6616", "experiment.pump_power_mW=3.31675"],
    "explore-1201-1-1": [
        "constraints.t_ring_min_K=325.389", "constraints.t_ring_max_K=371.632",
        "constraints.t_step_mK=9.915", "experiment.widths_nm=[1500]",
        "experiment.spectrum_points=1585", "experiment.mzi_sweep_points=232",
        "experiment.power_points=138", "experiment.power_min_mW=0.00527785",
        "experiment.power_max_mW=13.28", "experiment.power_spacing=log",
        "physics.pump_detuning_MHz=-73.1072", "experiment.pump_power_mW=null"],
    "explore-1201-1-2": [
        "constraints.t_ring_min_K=312.787", "constraints.t_ring_max_K=397.242",
        "constraints.t_step_mK=3.354", "experiment.widths_nm=[1400, 1500, 1600]",
        "experiment.spectrum_points=1423", "experiment.mzi_sweep_points=224",
        "experiment.power_points=86", "experiment.power_min_mW=0.0479364",
        "experiment.power_max_mW=8.93181", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=-74.6699", "experiment.pump_power_mW=null"],
    "explore-1201-1-3": [
        "constraints.t_ring_min_K=324.545", "constraints.t_ring_max_K=388.903",
        "constraints.t_step_mK=0.000", "experiment.widths_nm=[1400, 1600]",
        "experiment.spectrum_points=1859", "experiment.mzi_sweep_points=257",
        "experiment.power_points=111", "experiment.power_min_mW=0.0342938",
        "experiment.power_max_mW=13.7797", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=34.5277", "experiment.pump_power_mW=null"],
    "explore-1201-1-4": [
        "constraints.t_ring_min_K=312.787", "constraints.t_ring_max_K=397.242",
        "constraints.t_step_mK=3.354", "experiment.widths_nm=[1400, 1500, 1600]",
        "experiment.spectrum_points=1758", "experiment.mzi_sweep_points=247",
        "experiment.power_points=148", "experiment.power_min_mW=0.0254516",
        "experiment.power_max_mW=14.2137", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=73.7552", "experiment.pump_power_mW=null"],
    "explore-1201-1-5": [
        "constraints.t_ring_min_K=302.427", "constraints.t_ring_max_K=392.259",
        "constraints.t_step_mK=2.814", "experiment.widths_nm=[1400, 1500, 1600]",
        "experiment.spectrum_points=1823", "experiment.mzi_sweep_points=247",
        "experiment.power_points=122", "experiment.power_min_mW=0.0290033",
        "experiment.power_max_mW=12.7651", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=-45.7846", "experiment.pump_power_mW=4.32653"],
    "explore-1201-1-6": [
        "constraints.t_ring_min_K=325.389", "constraints.t_ring_max_K=371.632",
        "constraints.t_step_mK=9.915", "experiment.widths_nm=[1500]",
        "experiment.spectrum_points=1550", "experiment.mzi_sweep_points=253",
        "experiment.power_points=113", "experiment.power_min_mW=0.0122999",
        "experiment.power_max_mW=11.4581", "experiment.power_spacing=log",
        "physics.pump_detuning_MHz=42.1427", "experiment.pump_power_mW=null"],
    "explore-1201-1-7": [
        "constraints.t_ring_min_K=327.625", "constraints.t_ring_max_K=370.392",
        "constraints.t_step_mK=10.689", "experiment.widths_nm=[1500]",
        "experiment.spectrum_points=1205", "experiment.mzi_sweep_points=242",
        "experiment.power_points=104", "experiment.power_min_mW=0.0381566",
        "experiment.power_max_mW=14.6216", "experiment.power_spacing=linear",
        "physics.pump_detuning_MHz=74.5145", "experiment.pump_power_mW=null"],
    "linear-spacing": [
        "experiment.power_spacing=linear", "experiment.power_min_mW=0.5",
        "experiment.power_max_mW=12"],
    "pinned-pump-power": ["experiment.pump_power_mW=1.25"],
    "pump-detuning-plus-100MHz": ["physics.pump_detuning_MHz=100"],
    "pump-detuning-minus-100MHz": ["physics.pump_detuning_MHz=-100"],
    "widths-1400-1600": ["experiment.widths_nm=[1400, 1600]"],
    "fit-order-9": ["dispersion.fit_order=9"],
    # many matches per sweep
    "no-qpm-wide-mismatch": ["constraints.require_qpm=false", "constraints.max_mismatch_MHz=20000"],
    # the companion line falls inside the dispersion window: source "comb"
    "comb-companion": [
        "constraints.require_qpm=false", "constraints.pump_base_wavelength_nm=1530",
        "constraints.idler_base_wavelength_nm=1422", "constraints.max_mismatch_MHz=100000"],
    # infeasible: the near-miss diagnostic, the step guard, no signal hit
    "tight-mismatch": ["constraints.max_mismatch_MHz=0.01"],
    "tight-detuning": ["constraints.max_signal_detuning_MHz=1"],
    "range-misses-the-lines": ["constraints.t_ring_min_K=300", "constraints.t_ring_max_K=310"],
}


def write_planted_fixture(fixdir):
    """Constant-index device with an exact triple at 350 K (see tests/conftest)."""
    length_nm = 500.0e3
    table = ["wavelength_nm,width_nm,temperature_K,n_eff"]
    lams = [650.0 + 50.0 * j for j in range(22)]
    for t in (300.0, 350.0, 400.0):
        for lam in lams:
            n = 2.0 + 3.9e-5 * (t - 350.0)
            table.append(f"{lam:.1f},1500,{t:.1f},{n!r}")
    os.makedirs(fixdir, exist_ok=True)
    table_path = os.path.join(fixdir, "planted_table.csv")
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(table) + "\n")

    cfg = default_config()
    cfg.pop("calibration")
    cfg["device"].update({
        "ring_length_um": 500.0,
        "ppln_fraction": 0.0,
        "poling_period_um_by_width": {"1500": 5.0},
    })
    cfg["dispersion"]["table_file"] = "planted_table.csv"
    cfg["physics"]["signal_wavelength_nm"] = 2.0 * length_nm / 1357.0
    cfg["constraints"].update({
        "pump_base_wavelength_nm": 2.0 * length_nm / 616.0,
        "idler_base_wavelength_nm": 2.0 * length_nm / 741.0,
        "half_window_nm": 1.2,
        "t_ring_min_K": 340.0,
        "t_ring_max_K": 360.0,
        "t_step_mK": 10.0,
    })
    header = (
        "planted-solution fixture: dispersionless ring with an exact triple\n"
        "at T_ring = 350 K (modes 1357 = 616 + 741, poled fraction 0)\n"
        "generated by scripts/make_goldens.py"
    )
    path = os.path.join(fixdir, "planted.yaml")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(emit_config(cfg, header=header))
    return path


def generate(tests_dir):
    """Write every golden and fixture under tests_dir."""
    golden, planted = (os.path.join(tests_dir, d) for d in GOLDEN_DIRS)
    fixdir = os.path.join(tests_dir, "fixtures")
    for where in (golden, planted):
        if os.path.isdir(where):
            shutil.rmtree(where)
        os.makedirs(where)
    cfg = default_config()
    for name in EXPERIMENTS:
        outputs = run_experiment(name, cfg, golden)
        print(f"{name}: {len(outputs)} files")

    fixture = write_planted_fixture(fixdir)
    here = os.getcwd()
    os.chdir(fixdir)  # fixture table path is relative to its directory
    try:
        planted_cfg = load_config(os.path.basename(fixture))
        run_experiment("match", planted_cfg, planted)
    finally:
        os.chdir(here)
    print(f"golden outputs written to {golden} and {planted}")
    with open(os.path.join(tests_dir, DIGESTS), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(corpus_digests(), indent=2, sort_keys=True) + "\n")
    print(f"{len(CORPUS)} corpus configs digested")


def corpus_digests():
    """{config: {"overrides", "outputs": {file: sha256}, "errors": {experiment: error}}}."""
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sweep coverage; not an output
        for name, overrides in CORPUS.items():
            cfg = apply_overrides(default_config(), overrides)
            entry = {"overrides": overrides, "outputs": {}, "errors": {}}
            with tempfile.TemporaryDirectory() as out:
                for experiment in EXPERIMENTS:  # the six explore ones and calibrate
                    try:
                        run_experiment(experiment, cfg, out)
                    except QfcError as exc:
                        entry["errors"][experiment] = f"{type(exc).__name__}: {exc}"
                for fname in sorted(os.listdir(out)):
                    with open(os.path.join(out, fname), "rb") as fh:
                        entry["outputs"][fname] = hashlib.sha256(fh.read()).hexdigest()
            digests[name] = entry
    return digests


def differing_files(fresh_dir, committed_dir):
    """Generated paths (relative to the tests dir) whose bytes differ, are missing or extra."""
    names = set(FIXTURES)
    for sub in GOLDEN_DIRS:
        for root in (fresh_dir, committed_dir):
            if os.path.isdir(os.path.join(root, sub)):
                names.update(os.path.join(sub, n) for n in os.listdir(os.path.join(root, sub)))
    differ = []
    for rel in sorted(names):
        fresh, committed = os.path.join(fresh_dir, rel), os.path.join(committed_dir, rel)
        if not (os.path.isfile(fresh) and os.path.isfile(committed)
                and filecmp.cmp(fresh, committed, shallow=False)):
            differ.append(rel)
    return differ


def backend():
    """numpy's version, the SIMD targets it dispatches on this CPU, and the OpenBLAS core."""
    import numpy as np
    from numpy._core import _multiarray_umath as umath

    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    core = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"numpy {np.__version__}; SIMD {' '.join(simd) or 'none'}; OpenBLAS core {core}"


def _leaves(path):
    """{location: text} of every JSON or YAML scalar or CSV cell, in file order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith((".json", ".yaml")):
        def walk(node, where):
            if isinstance(node, dict):
                for key in sorted(node):
                    yield from walk(node[key], f"{where}.{key}")
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    yield from walk(item, f"{where}[{i}]")
            else:
                yield where, json.dumps(node)
        return dict(walk(json.loads(text) if path.endswith(".json") else yaml.safe_load(text),
                         "$"))
    lines = text.splitlines()
    header = lines[0].split(",")
    return {"header": lines[0]} | {
        f"row {r} column {name}": cell for r, line in enumerate(lines[1:], 1)
        for name, cell in zip(header, line.split(","))}


def describe_difference(fresh, committed):
    """(first differing location or None, largest relative difference over numbers)."""
    a, b = _leaves(fresh), _leaves(committed)
    first, worst = None, 0.0
    for where in [*a, *(k for k in b if k not in a)]:
        x, y = a.get(where), b.get(where)
        if x == y:
            continue
        first = first or where
        try:  # YAML 1.1 reads `1e-05` as a string; None is a missing location
            fx, fy = float(x.strip('"')), float(y.strip('"'))
        except (AttributeError, ValueError):
            continue
        if fx != fy:
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return first, worst


def difference_report(fresh_dir, committed_dir):
    """One `differs:` line per generated file that differs, is missing or is extra."""
    lines = []
    for rel in differing_files(fresh_dir, committed_dir):
        fresh, committed = os.path.join(fresh_dir, rel), os.path.join(committed_dir, rel)
        if os.path.isfile(fresh) and os.path.isfile(committed):
            first, worst = describe_difference(fresh, committed)
            rel += (f" (first at {first}; largest relative difference {worst:.3g})" if first
                    else " (every value equal; the bytes differ)")
        lines.append(f"differs: {rel}")
    return lines


def corpus_report(fresh_path, committed_path):
    """One `differs:` line per corpus config and output file (or error) that moved."""
    def load(path):
        if not os.path.isfile(path):
            return {}
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def flat(entry):
        return {"overrides": entry["overrides"], **entry["outputs"],
                **{f"{experiment} error": e for experiment, e in entry["errors"].items()}}

    fresh, committed = load(fresh_path), load(committed_path)
    lines = []
    for name in sorted(fresh.keys() | committed.keys()):
        if name not in fresh or name not in committed:
            side = "fresh" if name in fresh else "committed"
            lines.append(f"differs: {DIGESTS} config {name} (only in the {side} digests)")
            continue
        a, b = flat(fresh[name]), flat(committed[name])
        lines += [f"differs: {DIGESTS} config {name}: {key}"
                  for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare regenerated outputs with the committed ones; "
                             "write nothing under tests/")
    args = parser.parse_args()
    if not args.check:
        generate(TESTS)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        generate(tmp)
        differ = (difference_report(tmp, TESTS)
                  + corpus_report(os.path.join(tmp, DIGESTS), os.path.join(TESTS, DIGESTS)))
    if differ:
        print(f"backend: {backend()}")
    for line in differ:
        print(line)
    print(f"{len(differ)} generated files differ from the committed ones")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
