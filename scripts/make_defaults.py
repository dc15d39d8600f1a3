#!/usr/bin/env python3
"""Generate the committed default dispersion table and default config.

The effective-index oracle is a congruent-LN extraordinary-index Sellmeier
curve (Zelmon et al. 1997) minus a per-width quadratic confinement deficit
in (lambda - 737 nm).  Because the real waveguide dispersion comes from an
electromagnetic solver we do not ship, the deficit curvature per width is
fine-tuned here, by Newton steps on the triple-resonance frequency
mismatch, until a triply resonant operating point exists inside the
[300, 400] K tuner range.  The poling period per width is then chosen so
the found mode triple is exactly quasi-phase matched, the propagation loss
so the unity-cooperativity power lands on 1 mW, and the coupler/heater/
nonlinear-rate calibration is delegated to qfcring.calibration.

Running this script rewrites:
    src/qfcring/data/default_dispersion.csv
    src/qfcring/data/default_config.yaml
    tests/golden/regression.json        (frozen regression constants)

It is deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qfcring.calibration import calibrate_config
from qfcring.config import emit_config, validate_config, width_key
from qfcring.constants import DB_TO_NEPERS_POWER, HBAR_J_S, TWO_PI, freq_hz
from qfcring.conversion import external_efficiency, pump_power_unity_cooperativity
from qfcring.builders import build_device, build_twm_system, fwm_channel_at, operating_point
from qfcring.dispersion import fit_dispersion_table, parse_dispersion_table
from qfcring.elements import Device, RingCavity
from qfcring.experiments import CALIBRATION_COMMENTS
from qfcring.matching import SearchConstraints, find_triple_resonance
from qfcring.noise import fwm_noise_rate

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA_DIR = os.path.join(ROOT, "src", "qfcring", "data")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

# ---------------------------------------------------------------------------
# Oracle: Sellmeier base minus per-width confinement deficit
# ---------------------------------------------------------------------------

# Zelmon, Small, Jundt, JOSA B 14, 3319 (1997): congruent LN, extraordinary.
ZELMON_E = (2.9804, 0.02047, 0.5981, 0.0666, 8.9543, 416.08)

# Quadratic confinement deficit d0 + d1 x + d2 x^2, x = lambda_um - 0.737.
# Wider guides confine better: smaller deficit, flatter slope.  d2 carries
# the per-width tweak solved below.
DEFICIT_BASE = {
    1400.0: [0.225, 0.140, 0.030],
    1500.0: [0.210, 0.120, 0.024],
    1600.0: [0.198, 0.104, 0.019],
}

SIGNAL_NM = 737.0
T_REF_K = 300.0
DN_DT = 3.9e-5

LAMBDA_GRID_NM = np.arange(650.0, 1700.0 + 1e-9, 15.0)
T_GRID_K = (300.0, 350.0, 400.0)

RING_LENGTH_UM = 200.0 * math.pi          # radius 100 um
PPLN_FRACTION = 0.45
WIDTHS = (1400.0, 1500.0, 1600.0)
PRIMARY_WIDTH = 1500.0

P_MAX_TARGET_W = 1.0e-3
# eta_s * eta_i = 0.9016 caps the external efficiency near 0.9; the split is
# asymmetric because the MZI phase sum rule theta_s = theta_p + theta_i +
# dL*(beta_s - beta_p - beta_i) caps the signal envelope at roughly 0.4x the
# idler's when the pump sits near its envelope null.
ETA_TARGETS = {"eta_pump": 0.5, "eta_signal": 0.92, "eta_idler": 0.98}
G0_OVER_2PI_MHZ = 0.31

# Comments of the packaged config beyond those calibrate writes.
DEFAULT_COMMENTS = {
    **CALIBRATION_COMMENTS,
    "device.dc_gap_nm":
        "read by nothing: the coupler is the calibrated coupling-length quadratic",
    "dispersion.dn_dT_per_K":
        "drives only the MZI heater phase; the ring tunes with the fitted "
        "model's dn/dT",
}


def sellmeier_ne(lambda_um):
    b1, c1, b2, c2, b3, c3 = ZELMON_E
    l2 = np.asarray(lambda_um, dtype=float) ** 2
    n2 = 1.0 + b1 * l2 / (l2 - c1) + b2 * l2 / (l2 - c2) + b3 * l2 / (l2 - c3)
    return np.sqrt(n2)


def oracle_n_eff(lambda_nm, t_K, deficit):
    lam_um = np.asarray(lambda_nm, dtype=float) / 1000.0
    x = lam_um - SIGNAL_NM / 1000.0
    d0, d1, d2 = deficit
    return (
        sellmeier_ne(lam_um) - (d0 + d1 * x + d2 * x**2) + DN_DT * (t_K - T_REF_K)
    )


def table_text(deficits) -> str:
    buf = io.StringIO()
    buf.write("# default TFLN waveguide dispersion table\n")
    buf.write("# generated by scripts/make_defaults.py -- do not edit by hand\n")
    buf.write("# n_eff oracle: congruent-LN extraordinary Sellmeier (Zelmon 1997)\n")
    buf.write("#               minus a per-width quadratic confinement deficit\n")
    buf.write("wavelength_nm,width_nm,temperature_K,n_eff\n")
    for width in sorted(deficits):
        for t in T_GRID_K:
            for lam in LAMBDA_GRID_NM:
                n = float(oracle_n_eff(lam, t, deficits[width]))
                buf.write(f"{lam:.1f},{width:.0f},{t:.1f},{n:.12f}\n")
    return buf.getvalue()


def fit_model(deficits):
    table = parse_dispersion_table(table_text(deficits), source="make_defaults")
    return fit_dispersion_table(table, order=8)


def bare_device(model, width, alpha_db_m=30.0, poling_um=10.0) -> Device:
    ring = RingCavity(
        length_um=RING_LENGTH_UM,
        width_nm=width,
        alpha_prop_dB_per_m=alpha_db_m,
        ppln_fraction=PPLN_FRACTION,
        poling_period_um=poling_um,
    )
    return Device(dispersion=model, ring=ring, mzi=None)


def _aligned_mismatch(model, width, match):
    """Mismatch of the matched triple at the exact signal-alignment T.

    Newton in T on the signal line, then re-solve the three lines there.
    Zeroing the mismatch at this temperature makes the sweep's best grid
    point minimize signal detuning and mismatch simultaneously.
    """
    from qfcring.elements import solve_resonance_wavelength

    device = bare_device(model, width)
    f_target = freq_hz(SIGNAL_NM)
    t = match.t_ring_K
    for _ in range(8):
        lam_s = solve_resonance_wavelength(device, match.signal.m, t)
        f_s = freq_hz(lam_s)
        ng = float(model.group_index(lam_s, t, width))
        dfdT = -f_s * DN_DT / ng
        t = t - (f_s - f_target) / dfdT
    lam_p = solve_resonance_wavelength(device, match.pump.m, t)
    lam_i = solve_resonance_wavelength(device, match.idler.m, t)
    delta = freq_hz(lam_s) - freq_hz(lam_p) - freq_hz(lam_i)
    return delta, t


def tune_width(deficits, width, constraints) -> dict:
    """Newton-step d2 until the best triple's aligned mismatch is < 50 kHz.

    Early iterations start from an infeasible comb (mismatch tens of GHz);
    the matcher's best near-miss candidate supplies the pair to steer onto
    zero mismatch.
    """
    from qfcring.errors import NoFeasibleMatch

    info = {}
    for iteration in range(25):
        model = fit_model(deficits)
        device = bare_device(model, width)
        try:
            match = find_triple_resonance(device, constraints)[0]
            feasible = True
        except NoFeasibleMatch as exc:
            if exc.best_candidate is None:
                raise RuntimeError(f"width {width}: no signal alignment at all")
            match = exc.best_candidate
            feasible = False
        delta, t_aligned = _aligned_mismatch(model, width, match)
        info = {
            "iteration": iteration,
            "delta_Hz": delta,
            "t_ring_K": t_aligned,
            "m": (match.signal.m, match.pump.m, match.idler.m),
            "lambda_nm": (match.signal.lambda_nm, match.pump.lambda_nm,
                          match.idler.lambda_nm),
        }
        if feasible and abs(delta) < 5e4:
            info["match"] = match
            return info
        # d(delta)/d(d2) = nu_s x_s^2/n_g,s - nu_p x_p^2/n_g,p - nu_i x_i^2/n_g,i
        sens = 0.0
        for sol, sign in ((match.signal, +1.0), (match.pump, -1.0), (match.idler, -1.0)):
            x = sol.lambda_nm / 1000.0 - SIGNAL_NM / 1000.0
            ng = float(model.group_index(sol.lambda_nm, match.t_ring_K, width))
            sens += sign * freq_hz(sol.lambda_nm) * x**2 / ng
        deficits[width][2] += delta / (-sens)
    raise RuntimeError(f"width {width}: mismatch did not converge, last {info}")


def select_arm_delta(model, tuned, alpha_db_m) -> float:
    """Committed MZI arm asymmetry: nearest to 1.0 um such that every width
    has at least one heater length satisfying the coupling anchors.

    Feasibility at (dL, L_h): envelopes E = cos^2(theta/2) at the matched
    carriers must exceed the needed composite K, and the bare coupler
    strengths must come out ordered increasing with wavelength, i.e.
    K_s/E_s < K_i/E_i < K_p/E_p.  The scan covers [0.5, 1.5] um: the two
    phase knobs (dL, L_h) move the carrier phases along nearly parallel
    torus directions, so a narrower dL range reaches no feasible pattern.
    """
    from qfcring.calibration import _required_cross_couplings

    heater_um = np.arange(0.25, 1000.0 + 1e-9, 0.25)
    per_width = []
    for width in WIDTHS:
        match = tuned[width]["match"]
        device = bare_device(model, width, alpha_db_m=alpha_db_m)
        needed = _required_cross_couplings(device, match, ETA_TARGETS)
        lams = np.array([needed["signal"][0], needed["idler"][0], needed["pump"][0]])
        kreq = np.array([needed["signal"][1], needed["idler"][1], needed["pump"][1]])
        beta = np.array([
            float(model.propagation_constant(lam, 300.0, width)) for lam in lams
        ])
        thermal = TWO_PI / (lams * 1e-9) * DN_DT * 26.5 * (heater_um[:, None] * 1e-6)
        per_width.append((beta, thermal, kreq))

    candidates = np.round(np.arange(0.500, 1.500 + 1e-9, 0.0005), 6)
    for dl in sorted(candidates, key=lambda d: (abs(d - 1.0), d)):
        ok = True
        for beta, thermal, kreq in per_width:
            theta = beta * dl * 1e-6 + thermal          # (n_h, 3)
            env = np.cos(0.5 * theta) ** 2
            with np.errstate(divide="ignore"):
                ratio = kreq / env                       # K/E per carrier
            good = (
                np.all(env > kreq, axis=1)
                & (ratio[:, 0] < ratio[:, 1]) & (ratio[:, 1] < ratio[:, 2])
            )
            if not np.any(good):
                ok = False
                break
        if ok:
            return float(dl)
    raise RuntimeError("no arm asymmetry in [0.9, 1.1] um satisfies the anchors")


def main():
    warnings.filterwarnings("ignore", message="poling-compensated")

    search = SearchConstraints(require_qpm=False)
    deficits = {w: list(v) for w, v in DEFICIT_BASE.items()}
    tuned = {}
    for width in WIDTHS:
        tuned[width] = tune_width(deficits, width, search)
        m_s, m_p, m_i = tuned[width]["m"]
        m_offset = m_s - m_p - m_i
        if m_offset <= 0:
            raise RuntimeError(f"width {width}: nonpositive poling offset {m_offset}")
        tuned[width]["m_offset"] = m_offset
        tuned[width]["poling_period_um"] = PPLN_FRACTION * RING_LENGTH_UM / m_offset
        print(f"width {width:.0f}: d2={deficits[width][2]:+.6e}  "
              f"T={tuned[width]['t_ring_K']:.3f} K  "
              f"delta={tuned[width]['delta_Hz'] / 1e6:+.4f} MHz  "
              f"M={m_offset}  Lambda={tuned[width]['poling_period_um']:.4f} um")

    model = fit_model(deficits)
    res = max(model.fit_residuals_by_width.values())
    print(f"fit residual (max over widths): {res:.2e}")
    assert res <= 2e-5, "table fit residual too large"

    # Propagation loss: unity-cooperativity power == target at the primary width.
    prim = tuned[PRIMARY_WIDTH]["match"]
    g0 = TWO_PI * G0_OVER_2PI_MHZ * 1e6
    eta_p, eta_s, eta_i = (ETA_TARGETS["eta_pump"], ETA_TARGETS["eta_signal"],
                           ETA_TARGETS["eta_idler"])
    vg = {
        role: float(model.group_velocity(sol.lambda_nm, prim.t_ring_K, PRIMARY_WIDTH))
        for role, sol in (("p", prim.pump), ("s", prim.signal), ("i", prim.idler))
    }
    omega_p = prim.pump.omega
    q = DB_TO_NEPERS_POWER
    denom = 16.0 * g0**2 * eta_p * (1 - eta_p) * (1 - eta_s) * (1 - eta_i)
    alpha = (P_MAX_TARGET_W * denom / (HBAR_J_S * omega_p * q**3
                                       * vg["p"] * vg["s"] * vg["i"])) ** (1.0 / 3.0)
    print(f"propagation loss: {alpha:.4f} dB/m")

    arm_delta_um = select_arm_delta(model, tuned, alpha)
    print(f"arm asymmetry: {arm_delta_um:.4f} um")

    cfg = {
        "device": {
            "ring_length_um": RING_LENGTH_UM,
            "width_nm": PRIMARY_WIDTH,
            "dc_gap_nm": 600.0,
            "dc_length_um": 15.0,
            "mzi_arm_delta_um": arm_delta_um,
            "mzi_heater_length_um": 100.0,
            "mzi_delta_T_K": 26.5,
            "ambient_temperature_K": 300.0,
            "ppln_fraction": PPLN_FRACTION,
            "poling_period_um_by_width": {
                width_key(w): tuned[w]["poling_period_um"] for w in WIDTHS
            },
            "propagation_loss_dB_per_m": alpha,
        },
        "dispersion": {
            "table_file": None,
            "fit_order": 8,
            "dn_dT_per_K": DN_DT,
        },
        "physics": {
            "signal_wavelength_nm": SIGNAL_NM,
            "signal_input_rate_Hz": 1.0e4,
            "pump_detuning_MHz": 0.0,
            "fwm_companion_linewidth_over_2pi_GHz": 0.36,
            "fwm_companion_detuning_THz_by_width": {
                "1400": 1.35, "1500": 1.0, "1600": 0.7,
            },
        },
        "constraints": {
            "max_signal_detuning_MHz": 200.0,
            "max_mismatch_MHz": 150.0,
            "pump_base_wavelength_nm": 1623.0,
            "idler_base_wavelength_nm": 1350.0,
            "half_window_nm": 10.0,
            "t_ring_min_K": 300.0,
            "t_ring_max_K": 400.0,
            "t_step_mK": 0.0,
            "require_qpm": True,
        },
        "experiment": {
            "power_min_mW": 0.01,
            "power_max_mW": 10.0,
            "power_points": 121,
            "power_spacing": "log",
            "pump_power_mW": None,
            "spectrum_span_GHz": 30.0,
            "spectrum_points": 1501,
            "mzi_sweep_max_K": 60.0,
            "mzi_sweep_points": 241,
            "dc_grid_min_nm": 700.0,
            "dc_grid_max_nm": 1650.0,
            "dc_grid_points": 191,
            "widths_nm": [1400, 1500, 1600],
        },
        "calibration_targets": {
            "eta_pump": eta_p,
            "eta_signal": eta_s,
            "eta_idler": eta_i,
            "g0_over_2pi_MHz": G0_OVER_2PI_MHZ,
            "fwm_rate_Hz": 0.08,
            "fwm_rate_power_mW": 1.0,
            "fwm_anchor_detuning_over_2pi_THz": 1.0,
            "max_heater_length_um": 1000.0,
        },
    }

    # Commit the table first so calibrate_config can load it as the default.
    os.makedirs(DATA_DIR, exist_ok=True)
    with open(os.path.join(DATA_DIR, "default_dispersion.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(table_text(deficits))

    import qfcring.builders as builders
    builders._packaged_model.cache_clear()

    validate_config(cfg)
    cfg = calibrate_config(cfg)
    header = (
        "qfcring default configuration\n"
        "generated by scripts/make_defaults.py -- regenerate, do not hand-edit\n"
        "units are embedded in key names; rates are quoted as value/2pi"
    )
    with open(os.path.join(DATA_DIR, "default_config.yaml"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(emit_config(cfg, comments=DEFAULT_COMMENTS, header=header))
    builders._packaged_model.cache_clear()

    # ---- summary + frozen regression constants ---------------------------
    regression = {"widths": {}}
    for width in WIDTHS:
        device, matches = operating_point(cfg, width_nm=width)
        match = matches[0]
        system = build_twm_system(cfg, match)
        p_max = pump_power_unity_cooperativity(system)
        _, eta_ex = external_efficiency(system.with_power(p_max))
        channel, _ = fwm_channel_at(cfg, device, match)
        r_at_pmax = fwm_noise_rate(channel, p_max)
        etas = {role: sol.eta for role, sol in match.carriers}
        print(
            f"width {width:.0f}: T_ring={match.t_ring_K:.4f} K  "
            f"pump={match.pump.lambda_nm:.4f} nm  "
            f"P_max={p_max * 1e3:.4f} mW  eta_ex(P_max)={eta_ex:.4f}  "
            f"R(P_max)={r_at_pmax:.4f} Hz  etas={etas}"
        )
        regression["widths"][f"{width:.0f}"] = {
            "t_ring_K": match.t_ring_K,
            "pump_wavelength_nm": match.pump.lambda_nm,
            "idler_wavelength_nm": match.idler.lambda_nm,
            "signal_wavelength_nm": match.signal.lambda_nm,
            "mismatch_MHz": match.mismatch_Hz / 1e6,
            "signal_detuning_MHz": match.signal_detuning_Hz / 1e6,
            "m": [match.signal.m, match.pump.m, match.idler.m],
            "p_max_mW": p_max * 1e3,
            "eta_ex_at_p_max": eta_ex,
            "r_fwm_at_p_max_Hz": r_at_pmax,
            "eta": etas,
        }

    device = build_device(cfg, width_nm=PRIMARY_WIDTH)
    lam_p = regression["widths"]["1500"]["pump_wavelength_nm"]
    t_op = regression["widths"]["1500"]["t_ring_K"]
    regression["fsr_pump_GHz"] = device.dispersion.fsr_hz(
        lam_p, t_op, PRIMARY_WIDTH, device.ring.length_m) / 1e9
    regression["dc_cross_737"] = float(device.mzi.dc.cross_coupling(737.0))
    regression["dc_cross_1623"] = float(device.mzi.dc.cross_coupling(1623.0))
    print(f"FSR(pump) = {regression['fsr_pump_GHz']:.3f} GHz, "
          f"|k|^2: 737 nm {regression['dc_cross_737']:.4f} -> "
          f"1623 nm {regression['dc_cross_1623']:.4f}")

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(os.path.join(GOLDEN_DIR, "regression.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(regression, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote default_dispersion.csv, default_config.yaml, regression.json")


if __name__ == "__main__":
    main()
