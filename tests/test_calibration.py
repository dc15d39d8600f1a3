"""Heater scan of the coupler calibration against a full-grid reference."""

import contextlib
import copy
import io
import json
import math
import time

import numpy as np
import pytest

from qfcring import cli
from qfcring.builders import build_constraints, build_device
from qfcring.calibration import calibrate_config, solve_width_couplings
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
