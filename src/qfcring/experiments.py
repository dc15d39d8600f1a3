"""Named experiments: deterministic CSV outputs with .meta.json sidecars.

Each experiment writes figure-ready CSV (12 significant digits, LF line
endings) through one writer per run, `_Outputs`.  Every JSON file it writes
carries the run's record: the config hash and every resolved parameter, so
two runs of the same config are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from . import __version__
from .builders import _check_arm_phase, build_twm_system, fwm_channel_at, operating_point
from .calibration import calibrate_config
from .config import config_hash, emit_config, width_key
from .constants import C_M_PER_S, TWO_PI, freq_hz
from .conversion import efficiency_vs_power, pump_power_unity_cooperativity
from .elements import coupling_ratio, resonance_combs, ring_spectrum
from .errors import ConfigError, NoFeasibleMatch, OutOfDomain, UnmatchedVariant
from .matching import sweep_step_K
from .noise import efficiency_snr_tradeoff, noise_vs_power

_FMT = "%.12g"
_BLOCK_ROWS = 128
_CONVENTIONS = {
    "rates": "kappa are total energy decay rates in rad/s; reported as /2pi",
    "companion_detuning": "config THz values are ordinary frequency, "
                          "converted as 2*pi*1e12 rad/s",
}


class _Outputs:
    """One run's files, in the one output format.

    Every JSON file carries the run's record: config hash, tool version,
    experiment name, resolved config and conventions, built once per run.
    JSON is written with sorted keys, indent 2, LF line endings and a
    trailing newline; CSV numbers as %.12g.  `paths` lists the files
    written, in write order.

    A record is the bytes of json.dumps(record, sort_keys=True, indent=2),
    written member by member: each value is encoded on its own the same way
    and its newlines are re-indented by two spaces, which is safe because a
    JSON string never holds a raw newline.  The resolved config's encoding
    is a one-entry memo keyed by its config hash, so consecutive runs of one
    config encode it once.  A CSV body is one `%` per block of _BLOCK_ROWS
    rows over the flattened values.
    """

    def __init__(self, name, cfg, out_dir):
        self.out_dir, self.paths = out_dir, []
        digest = config_hash(cfg)
        self.base = {"config_hash": _member(digest), "tool_version": _member(__version__),
                     "experiment": _member(name), "conventions": _member(_CONVENTIONS),
                     "resolved_config": _resolved_config_member(digest, cfg)}

    def text(self, filename, text):
        path = os.path.join(self.out_dir, filename)
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from None
        self.paths.append(path)

    def record(self, filename, **fields):
        members = {**self.base, **{key: _member(value) for key, value in fields.items()}}
        self.text(filename, "{\n" + ",\n".join(
            f"  {json.dumps(key)}: {members[key]}" for key in sorted(members)) + "\n}\n")

    def table(self, name, header, rows, **fields):
        """name.csv with the header row, plus its sidecar name.meta.json."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        n_rows, width = rows.shape
        line = ",".join([_FMT] * width) + "\n"
        values = rows.ravel().tolist()
        body = [(line * min(_BLOCK_ROWS, n_rows - start))
                % tuple(values[start * width:(start + _BLOCK_ROWS) * width])
                for start in range(0, n_rows, _BLOCK_ROWS)]
        self.text(name + ".csv", ",".join(header) + "\n" + "".join(body))
        self.record(name + ".meta.json", output=name + ".csv", **fields)


def _member(value):
    """A record member's value as json.dumps(record, indent=2) writes it."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


_resolved_config = ("", "")  # (config hash, its _member encoding)


def _resolved_config_member(digest, cfg):
    global _resolved_config
    if _resolved_config[0] != digest:
        _resolved_config = (digest, _member(cfg))
    return _resolved_config[1]


def _power_grid_W(cfg):
    exp = cfg["experiment"]
    if exp["pump_power_mW"] is not None:
        return np.array([float(exp["pump_power_mW"])]) * 1e-3
    spaced = np.geomspace if exp["power_spacing"] == "log" else np.linspace
    return spaced(float(exp["power_min_mW"]), float(exp["power_max_mW"]),
                  int(exp["power_points"])) * 1e-3


def _companion_meta(channel, source):
    return {"companion_source": source,
            "companion_detuning_over_2pi_THz": channel.delta_comp / TWO_PI / 1e12}


def _match_record(match):
    """A match's record: /2pi rates in GHz, offsets in MHz.  Only matches the
    sweep returned are recorded, so each is feasible and violates nothing."""
    return {
        "t_ring_K": match.t_ring_K,
        **{role: {"m": ms.m, "wavelength_nm": ms.lambda_nm,
                  "kappa_ex_over_2pi_GHz": ms.kappa_ex / TWO_PI / 1e9,
                  "kappa_0_over_2pi_GHz": ms.kappa_0 / TWO_PI / 1e9, "eta": ms.eta}
           for role, ms in match.carriers},
        "signal_detuning_MHz": match.signal_detuning_Hz / 1e6,
        "mismatch_MHz": match.mismatch_Hz / 1e6,
        "qpm_mismatch": match.qpm_mismatch,
        "feasible": True,
        "violations": [],
    }


def _rates_meta(match, system):
    return {
        "operating_point": _match_record(match),
        "rates": {
            "g0_over_2pi_MHz": system.g0 / TWO_PI / 1e6,
            "kappa_over_2pi_GHz": {ch.role: ch.kappa_tot / TWO_PI / 1e9
                                   for ch in system.channels},
            "detunings_MHz": {
                "signal": system.signal.delta / TWO_PI / 1e6,
                "pump": system.pump.delta / TWO_PI / 1e6,
                "mismatch": system.mismatch / TWO_PI / 1e6,
            },
            "p_max_mW": pump_power_unity_cooperativity(system) * 1e3,
        },
    }


# --------------------------------------------------------------------------

def run_match(cfg, out):
    device, results = operating_point(cfg, with_coupler=bool(cfg.get("calibration")))
    best = results[0]
    constraints = best.constraints
    out.record("match.json",
               best=_match_record(best),
               all_matches=[_match_record(r) for r in results],
               sweep_step_mK=sweep_step_K(device, constraints) * 1e3,
               constraints=_constraints_dict(constraints),
               dispersion_model_hash=device.dispersion.content_hash())

    windows = {
        "signal": (constraints.signal_wavelength_nm - constraints.half_window_nm,
                   constraints.signal_wavelength_nm + constraints.half_window_nm),
        "idler": constraints.idler_window_nm,
        "pump": constraints.pump_window_nm,
    }
    combs = resonance_combs(device, windows.values(), best.t_ring_K)
    for label, comb in zip(windows, combs):
        ms, lams = np.array(comb).T
        fsr = device.dispersion.fsr_hz(lams, best.t_ring_K, device.width_nm,
                                       device.ring.length_m)
        out.table(f"comb_{label}", ["m", "wavelength_nm", "fsr_GHz"],
                  np.column_stack([ms, lams, fsr / 1e9]),
                  band=label, t_ring_K=best.t_ring_K)


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


def run_convert(cfg, out):
    _, matches = operating_point(cfg)
    match = matches[0]
    system = build_twm_system(cfg, match)
    rows = efficiency_vs_power(system, _power_grid_W(cfg))
    rows[:, 0] *= 1e3  # report in mW
    out.table("convert", ["power_mW", "cooperativity", "eta_int", "eta_ext"], rows,
              **_rates_meta(match, system))


def run_noise(cfg, out):
    device, matches = operating_point(cfg)
    match = matches[0]
    channel, source = fwm_channel_at(cfg, device, match)
    rows = noise_vs_power(channel, _power_grid_W(cfg))
    rows[:, 0] *= 1e3
    out.table("noise", ["power_mW", "R_FWM_Hz"], rows,
              **_companion_meta(channel, source), **_rates_meta(match, channel.system))


def run_tradeoff(cfg, out):
    powers = _power_grid_W(cfg)
    if not powers.all():
        exp = cfg["experiment"]
        key = ("pump_power_mW" if exp["pump_power_mW"] is not None
               else "power_min_mW" if exp["power_min_mW"] == 0.0 else "power_max_mW")
        raise ConfigError(f"config key 'experiment.{key}' is 0, and the trade-off's "
                          "SNR is undefined at zero pump power")
    channels, sources = {}, {}
    for width in sorted(float(w) for w in cfg["experiment"]["widths_nm"]):
        try:
            device, matches = operating_point(cfg, width_nm=width)
        except NoFeasibleMatch as exc:
            raise UnmatchedVariant(f"width {width:g} nm: {exc}") from exc
        match = matches[0]
        channel, source = fwm_channel_at(cfg, device, match)
        channels[width] = channel
        sources[width_key(width)] = {
            **_companion_meta(channel, source),
            "t_ring_K": match.t_ring_K,
            "pump_wavelength_nm": match.pump.lambda_nm,
        }
    rows, best_width = efficiency_snr_tradeoff(
        channels, powers, float(cfg["physics"]["signal_input_rate_Hz"]))
    rows[:, 1] *= 1e3
    out.table("tradeoff", ["width_nm", "power_mW", "eta_ext", "R_FWM_Hz", "paper_fom_dB",
                           "snr_dB"], rows, best_width_nm=best_width, per_width=sources)


def run_couplings(cfg, out):
    device, matches = operating_point(cfg)
    match = matches[0]
    exp = cfg["experiment"]

    lam_grid = np.linspace(float(exp["dc_grid_min_nm"]), float(exp["dc_grid_max_nm"]),
                           int(exp["dc_grid_points"]))
    out.table("dc_cross", ["wavelength_nm", "cross_coupling"],
              np.column_stack([lam_grid, device.mzi.dc.cross_coupling(lam_grid)]))

    drive = float(exp["mzi_sweep_max_K"])
    _check_arm_phase(replace(device.mzi, delta_T_K=drive), "experiment.mzi_sweep_max_K")
    dts = np.linspace(0.0, drive, int(exp["mzi_sweep_points"]))
    carriers = np.array([[sol.lambda_nm] for _, sol in match.carriers])
    etas = coupling_ratio(device, carriers, match.t_ring_K, delta_T_K=dts)  # (3, n_dT)
    out.table("coupling_ratios", ["delta_T_mzi_K", "eta_pump", "eta_signal", "eta_idler"],
              np.column_stack([dts, etas.T]),
              operating_delta_T_K=float(cfg["device"]["mzi_delta_T_K"]),
              carriers_nm={role: sol.lambda_nm for role, sol in match.carriers},
              t_ring_K=match.t_ring_K)


def run_spectrum(cfg, out):
    device, matches = operating_point(cfg)
    match = matches[0]
    exp = cfg["experiment"]
    span_GHz = float(exp["spectrum_span_GHz"])
    span_hz = span_GHz * 1e9
    points = int(exp["spectrum_points"])
    for label, sol in match.carriers:
        f0 = freq_hz(sol.lambda_nm)
        if not f0 - span_hz / 2.0 > 0.0:
            raise OutOfDomain(f"spectrum span of {span_GHz:g} GHz around the {label} "
                              f"line at {sol.lambda_nm:.6f} nm reaches zero frequency")
        freqs = np.linspace(f0 - span_hz / 2.0, f0 + span_hz / 2.0, points)
        lams = np.sort(C_M_PER_S / freqs * 1e9)
        out.table(f"spectrum_{label}", ["wavelength_nm", "transmission"],
                  np.column_stack([lams, ring_spectrum(device, lams, match.t_ring_K)]),
                  band=label,
                  center_wavelength_nm=sol.lambda_nm,
                  t_ring_K=match.t_ring_K,
                  kappa_tot_over_2pi_GHz=sol.kappa_tot / TWO_PI / 1e9)


CALIBRATION_COMMENTS = {
    "calibration": "Solved by the `calibrate` experiment; do not edit by hand.",
    "calibration.g0_full_over_2pi_MHz":
        "unpoled-ring vacuum rate: g0 target / poled fraction",
    "calibration.g_chi3_over_2pi_Hz":
        "chi(3) vacuum rate anchored to the noise-rate target at the anchor "
        "power and companion detuning",
    "calibration.by_width":
        "per-width heater length (as a scale on the base) and coupling-length "
        "quadratic hitting the coupling-ratio targets at the matched carriers",
}


def run_calibrate(cfg, out):
    calibrated = calibrate_config(cfg)
    out.text("calibrated_config.yaml", emit_config(
        calibrated,
        comments=CALIBRATION_COMMENTS,
        header="calibrated configuration (written by the `calibrate` experiment)",
    ))
    out.record("calibrated_config.meta.json", calibration=calibrated["calibration"])


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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_dir}: {exc}") from None
    out = _Outputs(name, cfg, out_dir)
    _RUNNERS[name](cfg, out)
    return out.paths
