#!/usr/bin/env python3
"""Regenerate the golden regression outputs for every experiment.

Run after make_defaults.py whenever the committed defaults change.  With
--check, regenerate into a temporary directory instead, compare byte for
byte with the committed files, and exit 1 naming every file that differs.
A failed check also names the numeric backend (numpy version, its SIMD
targets in use, the OpenBLAS core) and, per file, the first differing value
(a JSON or YAML path, or a CSV cell) and the largest relative difference,
so a backend drift in the last bits reads differently from a real change.
"""

from __future__ import annotations

import argparse
import ctypes
import filecmp
import glob
import json
import os
import shutil
import sys
import tempfile

import yaml

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qfcring.config import default_config, emit_config, load_config
from qfcring.experiments import EXPERIMENTS, run_experiment

TESTS = os.path.join(os.path.dirname(__file__), "..", "tests")
# Generated trees relative to the tests dir; fixtures shares its dir with
# hand-written files, so only the generated names there are compared.
GOLDEN_DIRS = (os.path.join("golden", "default_run"), os.path.join("golden", "planted_match"))
FIXTURES = (os.path.join("fixtures", "planted.yaml"), os.path.join("fixtures", "planted_table.csv"))


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
        differ = difference_report(tmp, TESTS)
    if differ:
        print(f"backend: {backend()}")
    for line in differ:
        print(line)
    print(f"{len(differ)} generated files differ from the committed ones")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
