"""Heater scan of the coupler calibration against a full-grid reference."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import time
from sys import executable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_env
from qfcring import cli
from qfcring.builders import build_constraints, build_device
from qfcring.calibration import _grid_nearest_first, calibrate_config, solve_width_couplings
from qfcring.config import apply_overrides
from qfcring.constants import TWO_PI
from qfcring.dispersion import U_SCALE_NM, DispersionModel
from qfcring.errors import CalibrationInfeasible
from qfcring.matching import find_triple_resonance

WIDTHS = (1400.0, 1500.0, 1600.0)


def reference_scan(cfg, device, match):
    """Exhaustive heater scan: scalar beta per candidate, strict-< minimum cost.

    Kept independent of the calibration module: every heater on the grid is
    tested, and the feasible one nearest the base wins, ties to the shorter.
    """
    dev_cfg, targets = cfg["device"], cfg["calibration_targets"]
    model, ring = device.dispersion, device.ring
    width = device.width_nm
    base_um = float(dev_cfg["mzi_heater_length_um"])
    max_um = float(targets["max_heater_length_um"])
    delta_len_um = float(dev_cfg["mzi_arm_delta_um"])
    delta_T = float(dev_cfg["mzi_delta_T_K"])
    dn_dT = float(cfg["dispersion"]["dn_dT_per_K"])
    t_base = float(dev_cfg["ambient_temperature_K"])
    dc_len_um = float(dev_cfg["dc_length_um"])

    lams, ks = [], []
    for sol, key in ((match.signal, "eta_signal"), (match.idler, "eta_idler"),
                     (match.pump, "eta_pump")):
        eta = float(targets[key])
        vg = float(model.group_velocity(sol.lambda_nm, match.t_ring_K, width))
        kappa_0 = float(ring.kappa_0(model, sol.lambda_nm, match.t_ring_K))
        lams.append(sol.lambda_nm)
        ks.append(kappa_0 * eta / (1.0 - eta) * ring.length_m / vg)

    lo, hi = model.lambda_window_nm
    probe = np.linspace(lo, hi, 97)
    best = None
    for j in range(1, int(max_um / 0.25) + 1):
        heater = j * 0.25
        x = []
        for lam, k_req in zip(lams, ks):
            beta = float(model.propagation_constant(lam, t_base, width))
            phase = (beta * delta_len_um * 1e-6
                     + TWO_PI / (lam * 1e-9) * dn_dT * delta_T * heater * 1e-6)
            env = math.cos(0.5 * phase) ** 2
            if env <= k_req:
                break
            x.append(0.5 * (1.0 - math.sqrt(1.0 - k_req / env)))
        if len(x) < 3 or not (x[0] < x[1] < x[2]):
            continue
        u_pts = (np.array(lams) - model.lambda_ref_nm) / U_SCALE_NM
        lc = [math.pi * dc_len_um / (2.0 * math.asin(math.sqrt(xi))) for xi in x]
        coeffs = np.linalg.solve(np.vander(u_pts, 3, increasing=True), np.array(lc))
        u = (probe - model.lambda_ref_nm) / U_SCALE_NM
        lc_curve = coeffs[0] + coeffs[1] * u + coeffs[2] * u**2
        slope = coeffs[1] + 2.0 * coeffs[2] * u
        if np.any(lc_curve <= 0.0) or np.any(slope > 0.0):
            continue
        cost = abs(heater - base_um)
        if best is None or cost < best[0]:
            best = (cost, heater, coeffs)
    if best is None:
        raise CalibrationInfeasible(
            "anchor 'coupling ratios at the operating MZI drive': no heater "
            f"length up to {max_um} um places the pump near an envelope null "
            "while keeping the signal/idler envelopes strong"
        )
    _, heater, coeffs = best
    return {"heater_scale": heater / base_um, "lc_quad_um": [float(c) for c in coeffs]}


@pytest.fixture(scope="module")
def bare_points(cfg):
    """Bare-ring device and best match per packaged width."""
    constraints = build_constraints(cfg)
    points = {}
    for width in WIDTHS:
        device = build_device(cfg, width_nm=width, with_coupler=False)
        points[width] = (device, find_triple_resonance(device, constraints)[0])
    return points


def _variant(cfg, base_um, max_um):
    out = copy.deepcopy(cfg)
    out["device"]["mzi_heater_length_um"] = base_um
    out["calibration_targets"]["max_heater_length_um"] = max_um
    return out


# 150.125 and 170.125 sit midway between two grid points inside the feasible
# bands of the 1500 and 1400 nm widths, so they pin the tie to the shorter heater.
@pytest.mark.parametrize("base_um", [60.0, 140.0, 150.125, 170.125])
@pytest.mark.parametrize("max_um", [300.0, 1000.0])
@pytest.mark.parametrize("width", WIDTHS)
def test_heater_scan_matches_full_grid_reference(cfg, bare_points, width, base_um, max_um):
    device, match = bare_points[width]
    variant = _variant(cfg, base_um, max_um)
    assert solve_width_couplings(variant, device, match) == \
        reference_scan(variant, device, match)


@pytest.mark.parametrize("width", WIDTHS)
def test_heater_scan_infeasible_matches_reference(cfg, bare_points, width):
    device, match = bare_points[width]
    variant = _variant(cfg, float(cfg["device"]["mzi_heater_length_um"]), 1.0)
    with pytest.raises(CalibrationInfeasible) as expected:
        reference_scan(variant, device, match)
    with pytest.raises(CalibrationInfeasible) as got:
        solve_width_couplings(variant, device, match)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("width", WIDTHS)
def test_heater_scan_dispersion_budget(cfg, bare_points, monkeypatch, width):
    device, match = bare_points[width]
    calls = []
    real = DispersionModel.propagation_constant

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(DispersionModel, "propagation_constant", counting)
    solve_width_couplings(cfg, device, match)
    assert len(calls) <= 3


HUGE_HEATER = "calibration_targets.max_heater_length_um=1.0e+9"


def test_infeasible_heater_walk_stops_at_its_candidate_budget(tmp_path):
    # 4e9 grid points: a full walk would run for hours
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["calibrate", "--override", HUGE_HEATER,
                         "--override", "calibration_targets.eta_signal=0.999",
                         "--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 30.0
    assert code == 3
    record = json.loads(err.getvalue())
    assert record["error"] == "CalibrationInfeasible"
    assert record["message"] == (
        "anchor 'coupling ratios at the operating MZI drive': no heater length in "
        "[0.25, 262144.0] um (the 1048576 grid points nearest the base, where the search "
        "stops) places the pump near an envelope null while keeping the signal/idler "
        "envelopes strong")


def test_huge_heater_bound_still_solves_the_committed_calibration(cfg):
    assert calibrate_config(apply_overrides(cfg, [HUGE_HEATER]))["calibration"] == \
        cfg["calibration"]


# --- the chunked walk ----------------------------------------------------------

@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(width=st.sampled_from(WIDTHS),
       base_um=st.one_of(st.floats(0.05, 320.0),
                         st.integers(0, 1280).map(lambda k: k * 0.25 + 0.125)),
       max_um=st.one_of(st.floats(1.0, 300.0), st.just(300.0)),
       delta_T=st.floats(20.0, 40.0),
       etas=st.one_of(st.just((0.5, 0.92, 0.98)),
                      st.tuples(st.floats(0.4, 0.6), st.floats(0.88, 0.95),
                                st.floats(0.95, 0.99))))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screened_walk_matches_reference_on_random_draws(cfg, bare_points, width, base_um,
                                                          max_um, delta_T, etas):
    device, match = bare_points[width]
    variant = _variant(cfg, base_um, max_um)
    variant["device"]["mzi_delta_T_K"] = delta_T
    for key, eta in zip(("eta_pump", "eta_signal", "eta_idler"), etas):
        variant["calibration_targets"][key] = eta
    try:
        expected = reference_scan(variant, device, match)
    except CalibrationInfeasible as exc:
        with pytest.raises(CalibrationInfeasible) as got:
            solve_width_couplings(variant, device, match)
        assert str(got.value) == str(exc)
    else:
        assert solve_width_couplings(variant, device, match) == expected


# 0.1 lies below the first grid point and 900 beyond the last of 3000; the
# chunks of 256, 512, 1024 and 1208 points cross three boundaries.
@pytest.mark.parametrize("base_um", [100.0, 100.125, 0.1, 900.0])
def test_chunked_order_is_nearest_first_with_ties_to_the_shorter_heater(base_um):
    n = 3000
    chunks = list(_grid_nearest_first(base_um, n))
    assert [len(c) for c in chunks] == [256, 512, 1024, 1208]
    assert np.concatenate(chunks).tolist() == \
        sorted(range(1, n + 1), key=lambda j: (abs(j * 0.25 - base_um), j))


def test_astronomical_heater_bound_keeps_the_capped_span(cfg, bare_points):
    device, match = bare_points[1500.0]
    variant = _variant(cfg, float(cfg["device"]["mzi_heater_length_um"]), 1e300)
    variant["calibration_targets"]["eta_signal"] = 0.999
    with pytest.raises(CalibrationInfeasible) as got:
        solve_width_couplings(variant, device, match)
    assert str(got.value) == (
        "anchor 'coupling ratios at the operating MZI drive': no heater length in "
        "[0.25, 262144.0] um (the 1048576 grid points nearest the base, where the search "
        "stops) places the pump near an envelope null while keeping the signal/idler "
        "envelopes strong")


# (base_um, max_um, mzi_delta_T_K): the packaged heater, then a midway tie and
# two draws that span more than one chunk.
BACKEND_DRAWS = ((100.0, 1000.0, 26.5), (150.125, 300.0, 26.5), (60.0, 300.0, 20.0),
                 (170.125, 250.0, 33.0))

# The child compares the screened walk with reference_scan with numpy's
# AVX-512 dispatch off, where np.cos and np.arcsin may round unlike math's.
BACKEND_CHILD = """
import json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", ImportWarning)
    try:
        import numpy as np
    except (ImportError, RuntimeError) as exc:
        print(json.dumps({"refused": str(exc)}))
        sys.exit(0)
refused = [str(w.message) for w in caught if "NPY_DISABLE_CPU_FEATURES" in str(w.message)]
if refused:
    print(json.dumps({"refused": refused[0]}))
    sys.exit(0)
warnings.simplefilter("error", RuntimeWarning)
from test_calibration import BACKEND_DRAWS, WIDTHS, _variant, reference_scan
from qfcring.builders import build_constraints, build_device
from qfcring.calibration import solve_width_couplings
from qfcring.config import default_config
from qfcring.errors import CalibrationInfeasible
from qfcring.matching import find_triple_resonance

def outcome(solve, *args):
    try:
        return repr(solve(*args))
    except CalibrationInfeasible as exc:
        return str(exc)

cfg = default_config()
differ, checked = [], 0
for width in WIDTHS:
    device = build_device(cfg, width_nm=width, with_coupler=False)
    match = find_triple_resonance(device, build_constraints(cfg))[0]
    for base_um, max_um, delta_T in BACKEND_DRAWS:
        variant = _variant(cfg, base_um, max_um)
        variant["device"]["mzi_delta_T_K"] = delta_T
        got = outcome(solve_width_couplings, variant, device, match)
        if got != outcome(reference_scan, variant, device, match):
            differ.append([width, base_um, max_um, delta_T, got])
        checked += 1
print(json.dumps({"checked": checked, "differ": differ}))
"""


def test_screened_walk_matches_reference_without_avx512():
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join((os.path.dirname(__file__), env["PYTHONPATH"]))
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both at once
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    proc = subprocess.run([executable, "-c", BACKEND_CHILD], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if "refused" in report:
        pytest.skip(f"numpy refused NPY_DISABLE_CPU_FEATURES: {report['refused']}")
    assert report == {"checked": len(WIDTHS) * len(BACKEND_DRAWS), "differ": []}
