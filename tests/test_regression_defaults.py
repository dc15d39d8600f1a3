"""Regression pins for the committed calibrated defaults.

The absolute operating temperatures and wavelengths depend on the
committed synthetic dispersion, so they are pinned against
tests/golden/regression.json (regenerated by scripts/make_defaults.py)
rather than asserted as physics.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfcring.builders import (
    build_constraints,
    build_device,
    build_twm_system,
    fwm_channel_at,
    operating_point,
)
from qfcring.conversion import efficiency_vs_power, pump_power_unity_cooperativity
from qfcring.matching import find_triple_resonance
from qfcring.noise import fwm_noise_rate, noise_vs_power

from conftest import src_env

PINNED = json.loads((Path(__file__).parent / "golden" / "regression.json").read_text())


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_per_width_operating_point_pinned(cfg, width):
    pin = PINNED["widths"][f"{width:g}"]
    device = build_device(cfg, width_nm=width)
    constraints = build_constraints(cfg)
    match = find_triple_resonance(device, constraints)[0]
    assert match.t_ring_K == pytest.approx(pin["t_ring_K"], abs=1e-6)
    assert match.pump.lambda_nm == pytest.approx(pin["pump_wavelength_nm"], abs=1e-9)
    assert match.idler.lambda_nm == pytest.approx(pin["idler_wavelength_nm"], abs=1e-9)
    assert [match.signal.m, match.pump.m, match.idler.m] == pin["m"]
    assert 300.0 <= match.t_ring_K <= 400.0

    system = build_twm_system(cfg, match)
    p_max = pump_power_unity_cooperativity(system)
    assert p_max * 1e3 == pytest.approx(pin["p_max_mW"], rel=1e-9)
    for role in ("pump", "signal", "idler"):
        assert getattr(match, role).eta == pytest.approx(pin["eta"][role], rel=1e-9)


def test_default_efficiency_curve_shape(cfg):
    device = build_device(cfg)
    match = find_triple_resonance(device, build_constraints(cfg))[0]
    system = build_twm_system(cfg, match)
    powers = np.geomspace(0.01e-3, 10e-3, 121)
    rows = efficiency_vs_power(system, powers)
    j = int(np.argmax(rows[:, 3]))
    # rises to the peak, then declines
    assert 0 < j < len(rows) - 1
    assert np.all(np.diff(rows[: j + 1, 3]) > 0.0)
    assert np.all(np.diff(rows[j:, 3]) < 0.0)
    pin = PINNED["widths"]["1500"]
    assert rows[j, 3] == pytest.approx(pin["eta_ex_at_p_max"], abs=5e-4)


def test_default_noise_curve_stays_low(cfg):
    device, matches = operating_point(cfg)
    channel, _ = fwm_channel_at(cfg, device, matches[0])
    rows = noise_vs_power(channel, np.geomspace(0.01e-3, 10e-3, 61))
    assert np.all(rows[:, 1] < 10.0)
    pin = PINNED["widths"]["1500"]
    got = fwm_noise_rate(channel, pin["p_max_mW"] * 1e-3)
    assert got == pytest.approx(pin["r_fwm_at_p_max_Hz"], rel=1e-9)


def test_make_goldens_check_reproduces_committed_outputs(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_goldens.py"
    # As CI runs it: a new RuntimeWarning fails here, not only in CI.
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script), "--check"],
                          capture_output=True, text=True, cwd=tmp_path, env=src_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 generated files differ" in proc.stdout


def load_make_goldens():
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", script)
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    return make_goldens


def test_make_goldens_names_the_first_difference_and_its_size(tmp_path):
    make_goldens = load_make_goldens()
    csv = "power_mW,eta\n1.0,0.5\n2.0,{}\n"
    meta = {"a": {"b": [1.0, 3.0]}, "output": "t.csv"}
    trees = {}
    for tree, scale in (("committed", 1.0), ("fresh", 1.0 + 1e-12)):
        root = tmp_path / tree
        files = {"fixtures/planted.yaml": "a: 1\n", "fixtures/planted_table.csv": "x\n1\n",
                 "golden/default_run/t.csv": csv.format(repr(0.25 * scale)),
                 "golden/default_run/t.meta.json": json.dumps(
                     dict(meta, a={"b": [1.0, 3.0 * scale]}), indent=2)}
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        trees[tree] = str(root)
    assert make_goldens.difference_report(trees["committed"], trees["committed"]) == []
    report = make_goldens.difference_report(trees["fresh"], trees["committed"])
    assert [line.split(" (")[0] for line in report] == [
        f"differs: {os.path.join('golden', 'default_run', name)}"
        for name in ("t.csv", "t.meta.json")]
    assert "first at row 2 column eta;" in report[0]
    assert "first at $.a.b[1];" in report[1]
    for name in ("t.csv", "t.meta.json"):
        _, worst = make_goldens.describe_difference(
            *(os.path.join(trees[t], "golden", "default_run", name) for t in ("fresh", "committed")))
        assert worst == pytest.approx(1e-12, rel=1e-3)
    assert make_goldens.backend().startswith(f"numpy {np.__version__}; SIMD ")


def test_make_goldens_names_the_corpus_config_and_file_that_moved(tmp_path):
    make_goldens = load_make_goldens()
    committed = Path(__file__).resolve().parent / "golden" / "digests.json"
    digests = json.loads(committed.read_text(encoding="utf-8"))
    assert set(digests) == set(make_goldens.CORPUS)
    digests["explore-1201-0-3"]["outputs"]["convert.csv"] = "0" * 64
    digests["tight-mismatch"]["errors"]["match"] += "."
    altered = tmp_path / "digests.json"
    altered.write_text(json.dumps(digests), encoding="utf-8")
    assert make_goldens.corpus_report(str(committed), str(committed)) == []
    assert make_goldens.corpus_report(str(altered), str(committed)) == [
        f"differs: {os.path.join('golden', 'digests.json')} config {name}: {what}"
        for name, what in (("explore-1201-0-3", "convert.csv"),
                           ("tight-mismatch", "match error"))]


def test_make_defaults_reproduces_committed_files(tmp_path):
    # run the generator on a copy whose outputs were removed, so every
    # compared file is one the script wrote
    root = Path(__file__).resolve().parent.parent
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(root / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(root / "scripts", tmp_path / "scripts", ignore=skip)
    written = ("src/qfcring/data/default_dispersion.csv",
               "src/qfcring/data/default_config.yaml",
               "tests/golden/regression.json")
    for rel in written[:2]:
        (tmp_path / rel).unlink()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_defaults.py")],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (root / rel).read_bytes(), rel
