"""Named experiments: deterministic CSV outputs with .meta.json sidecars.

Each experiment writes figure-ready CSV (12 significant digits, LF line
endings) plus a sidecar carrying the config hash and every resolved
parameter, so two runs of the same config are byte-identical.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .builders import (
    build_constraints,
    build_twm_system,
    fwm_channel_at,
    operating_point,
    resolved_metadata,
)
from .calibration import CALIBRATION_COMMENTS, calibrate_config
from .config import emit_config, width_key
from .constants import C_M_PER_S, TWO_PI, freq_hz
from .conversion import efficiency_vs_power, pump_power_unity_cooperativity
from .elements import coupling_ratio, resonance_comb, ring_spectrum
from .errors import ConfigError, NoFeasibleMatch, NumericalFailure, UnmatchedVariant
from .matching import sweep_step_K
from .noise import TradeoffVariant, efficiency_snr_tradeoff, noise_vs_power

_FMT = "%.12g"


def _write_csv(path, header, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    line = ",".join([_FMT] * rows.shape[1]) + "\n"
    body = "".join([line % tuple(row) for row in rows.tolist()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + body)


def _write_meta(path, meta):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit(out_dir, name, header, rows, meta):
    csv_path = os.path.join(out_dir, name + ".csv")
    meta_path = os.path.join(out_dir, name + ".meta.json")
    _write_csv(csv_path, header, rows)
    _write_meta(meta_path, dict(meta, output=name + ".csv"))
    return [csv_path, meta_path]


def _power_grid_W(cfg):
    exp = cfg["experiment"]
    if exp["pump_power_mW"] is not None:
        return np.array([float(exp["pump_power_mW"])]) * 1e-3
    lo, hi = float(exp["power_min_mW"]), float(exp["power_max_mW"])
    n = int(exp["power_points"])
    spacing = exp["power_spacing"]
    if spacing == "log":
        for key, value in (("power_min_mW", lo), ("power_max_mW", hi)):
            if value <= 0.0:
                raise ConfigError(f"{key} must be positive for log spacing")
        grid = np.geomspace(lo, hi, n)
    elif spacing == "linear":
        grid = np.linspace(lo, hi, n)
    else:
        raise ConfigError(f"power_spacing must be 'log' or 'linear', got {spacing!r}")
    return grid * 1e-3


def _companion_meta(channel, source):
    return {"companion_source": source,
            "companion_detuning_over_2pi_THz": channel.delta_comp / TWO_PI / 1e12}


def _rates_meta(match, system):
    return {
        "operating_point": match.as_dict(),
        "rates": {
            "g0_over_2pi_MHz": system.g0 / TWO_PI / 1e6,
            "kappa_over_2pi_GHz": {
                role: getattr(system, role).kappa_tot / TWO_PI / 1e9
                for role in ("pump", "signal", "idler")
            },
            "detunings_MHz": {
                "signal": system.signal.delta / TWO_PI / 1e6,
                "pump": system.pump.delta / TWO_PI / 1e6,
                "mismatch": system.mismatch / TWO_PI / 1e6,
            },
            "p_max_mW": pump_power_unity_cooperativity(system) * 1e3,
        },
    }


# --------------------------------------------------------------------------

def run_match(cfg, out_dir):
    device, results = operating_point(cfg, with_coupler=bool(cfg.get("calibration")))
    constraints = build_constraints(cfg)
    best = results[0]
    outputs = []

    report = {
        "best": best.as_dict(),
        "all_matches": [r.as_dict() for r in results],
        "sweep_step_mK": sweep_step_K(device, constraints) * 1e3,
        "constraints": _constraints_dict(constraints),
        "dispersion_model_hash": device.dispersion.content_hash(),
    }
    meta = resolved_metadata(cfg, "match", extra=report)
    path = os.path.join(out_dir, "match.json")
    _write_meta(path, meta)
    outputs.append(path)

    for label, window in (
        ("signal", (constraints.signal_wavelength_nm - constraints.half_window_nm,
                    constraints.signal_wavelength_nm + constraints.half_window_nm)),
        ("idler", constraints.idler_window_nm),
        ("pump", constraints.pump_window_nm),
    ):
        ms, lams = np.array(resonance_comb(device, window, best.t_ring_K)).T
        fsr = device.dispersion.fsr_hz(lams, best.t_ring_K, device.width_nm,
                                       device.ring.length_m)
        rows = np.column_stack([ms, lams, fsr / 1e9])
        outputs += _emit(out_dir, f"comb_{label}", ["m", "wavelength_nm", "fsr_GHz"],
                         rows, resolved_metadata(cfg, "match",
                                                 extra={"band": label,
                                                        "t_ring_K": best.t_ring_K}))
    return outputs


def _constraints_dict(c):
    return {
        "signal_wavelength_nm": c.signal_wavelength_nm,
        "max_signal_detuning_MHz": c.max_signal_detuning_Hz / 1e6,
        "max_mismatch_MHz": c.max_mismatch_Hz / 1e6,
        "pump_window_nm": list(c.pump_window_nm),
        "idler_window_nm": list(c.idler_window_nm),
        "t_range_K": [c.t_min_K, c.t_max_K],
        "require_qpm": c.require_qpm,
    }


def run_convert(cfg, out_dir):
    _, matches = operating_point(cfg)
    match = matches[0]
    system = build_twm_system(cfg, match)
    powers = _power_grid_W(cfg)
    rows = efficiency_vs_power(system, powers)
    rows[:, 0] *= 1e3  # report in mW
    meta = resolved_metadata(cfg, "convert", extra=_rates_meta(match, system))
    return _emit(out_dir, "convert",
                 ["power_mW", "cooperativity", "eta_int", "eta_ext"], rows, meta)


def run_noise(cfg, out_dir):
    device, matches = operating_point(cfg)
    match = matches[0]
    system = build_twm_system(cfg, match)
    channel, source = fwm_channel_at(cfg, device, match)
    powers = _power_grid_W(cfg)
    rows = noise_vs_power(channel, powers)
    rows[:, 0] *= 1e3
    meta = resolved_metadata(cfg, "noise", extra={
        **_companion_meta(channel, source), **_rates_meta(match, system)})
    return _emit(out_dir, "noise", ["power_mW", "R_FWM_Hz"], rows, meta)


def run_tradeoff(cfg, out_dir):
    variants = []
    sources = {}
    for width in sorted(float(w) for w in cfg["experiment"]["widths_nm"]):
        try:
            device, matches = operating_point(cfg, width_nm=width)
        except NoFeasibleMatch as exc:
            raise UnmatchedVariant(f"width {width:g} nm: {exc}") from exc
        match = matches[0]
        channel, source = fwm_channel_at(cfg, device, match)
        variants.append(TradeoffVariant(width, build_twm_system(cfg, match), channel))
        sources[width_key(width)] = {
            **_companion_meta(channel, source),
            "t_ring_K": match.t_ring_K,
            "pump_wavelength_nm": match.pump.lambda_nm,
        }
    powers = _power_grid_W(cfg)
    rows, best_width = efficiency_snr_tradeoff(
        variants, powers, float(cfg["physics"]["signal_input_rate_Hz"]))
    rows[:, 1] *= 1e3
    meta = resolved_metadata(cfg, "tradeoff", extra={
        "best_width_nm": best_width,
        "per_width": sources,
    })
    return _emit(out_dir, "tradeoff",
                 ["width_nm", "power_mW", "eta_ext", "R_FWM_Hz", "paper_fom_dB",
                  "snr_dB"], rows, meta)


def run_couplings(cfg, out_dir):
    device, matches = operating_point(cfg)
    match = matches[0]
    exp = cfg["experiment"]
    outputs = []

    lam_grid = np.linspace(float(exp["dc_grid_min_nm"]), float(exp["dc_grid_max_nm"]),
                           int(exp["dc_grid_points"]))
    k2 = device.mzi.dc.cross_coupling(lam_grid)
    outputs += _emit(out_dir, "dc_cross", ["wavelength_nm", "cross_coupling"],
                     np.column_stack([lam_grid, k2]),
                     resolved_metadata(cfg, "couplings"))

    dts = np.linspace(0.0, float(exp["mzi_sweep_max_K"]), int(exp["mzi_sweep_points"]))
    carriers = np.array([[match.pump.lambda_nm], [match.signal.lambda_nm],
                         [match.idler.lambda_nm]])
    etas = coupling_ratio(device, carriers, match.t_ring_K, delta_T_K=dts)  # (3, n_dT)
    rows = np.column_stack([dts, etas.T])
    meta = resolved_metadata(cfg, "couplings", extra={
        "operating_delta_T_K": float(cfg["device"]["mzi_delta_T_K"]),
        "carriers_nm": {"pump": match.pump.lambda_nm,
                        "signal": match.signal.lambda_nm,
                        "idler": match.idler.lambda_nm},
        "t_ring_K": match.t_ring_K,
    })
    outputs += _emit(out_dir, "coupling_ratios",
                     ["delta_T_mzi_K", "eta_pump", "eta_signal", "eta_idler"],
                     rows, meta)
    return outputs


def run_spectrum(cfg, out_dir):
    device, matches = operating_point(cfg)
    match = matches[0]
    exp = cfg["experiment"]
    span_hz = float(exp["spectrum_span_GHz"]) * 1e9
    points = int(exp["spectrum_points"])
    outputs = []
    for label, sol in (("pump", match.pump), ("signal", match.signal),
                       ("idler", match.idler)):
        f0 = freq_hz(sol.lambda_nm)
        freqs = np.linspace(f0 - span_hz / 2.0, f0 + span_hz / 2.0, points)
        lams = C_M_PER_S / freqs * 1e9
        lams = np.sort(lams)
        t = ring_spectrum(device, lams, match.t_ring_K)
        meta = resolved_metadata(cfg, "spectrum", extra={
            "band": label,
            "center_wavelength_nm": sol.lambda_nm,
            "t_ring_K": match.t_ring_K,
            "kappa_tot_over_2pi_GHz": (sol.kappa_ex + sol.kappa_0) / TWO_PI / 1e9,
        })
        outputs += _emit(out_dir, f"spectrum_{label}",
                         ["wavelength_nm", "transmission"],
                         np.column_stack([lams, t]), meta)
    return outputs


def run_calibrate(cfg, out_dir):
    calibrated = calibrate_config(cfg)
    text = emit_config(
        calibrated,
        comments=CALIBRATION_COMMENTS,
        header="calibrated configuration (written by the `calibrate` experiment)",
    )
    path = os.path.join(out_dir, "calibrated_config.yaml")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    meta = resolved_metadata(cfg, "calibrate",
                             extra={"calibration": calibrated["calibration"]})
    meta_path = os.path.join(out_dir, "calibrated_config.meta.json")
    _write_meta(meta_path, meta)
    return [path, meta_path]


_RUNNERS = {
    "spectrum": run_spectrum,
    "couplings": run_couplings,
    "match": run_match,
    "convert": run_convert,
    "noise": run_noise,
    "tradeoff": run_tradeoff,
    "calibrate": run_calibrate,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(name, cfg, out_dir):
    """Execute one named experiment; returns the list of files written."""
    if name not in _RUNNERS:
        raise ConfigError(
            f"unknown experiment '{name}'; choose one of {', '.join(EXPERIMENTS)}"
        )
    os.makedirs(out_dir, exist_ok=True)
    outputs = _RUNNERS[name](cfg, out_dir)
    for path in outputs:
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            raise NumericalFailure(f"experiment output {path} missing or empty")
    return outputs
