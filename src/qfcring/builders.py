"""Assemble physics objects from a validated configuration.

Outputs and their records are the `experiments` module's; nothing here
writes or describes a file.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .config import width_key
from .constants import TWO_PI
from .conversion import ModeChannel, TwmSystem, g0_effective
from .dispersion import U_SCALE_NM, DispersionModel, _polyval, load_dispersion_table
from .elements import MAX_ARM_PHASE_RAD, Device, DirectionalCoupler, MziCoupler, RingCavity
from .errors import ConfigError, DomainError, UnmatchedVariant
from .matching import (MatchResult, SearchConstraints, companion_detuning,
                       find_triple_resonance, verify_match)
from .noise import FwmChannel

# Verified sweeps kept per process, least recently used dropped first: enough
# for one config's widths plus its primary width, bare ring and coupled.
_SWEEP_MEMO_SIZE = 8
# Largest |eta - calibration target| at a matched carrier that still counts as
# the calibrated coupler: the packaged config reads 1e-16, a changed device 1e-2.
_DRIFT_TOL = 1e-3


class CalibrationDrift(UserWarning):
    """The calibrated coupler misses its coupling-ratio targets at a matched carrier."""


@lru_cache(maxsize=8)
def _packaged_model(fit_order: int) -> DispersionModel:
    return load_dispersion_table(None, order=fit_order)


def build_dispersion_model(cfg: dict) -> DispersionModel:
    """The config's dispersion model: a null table_file is the packaged table.

    Only the packaged fit is cached (keyed by fit_order).  A table file is
    read and fitted on every call, so a file edited in place, or a relative
    name read from another working directory, is never answered by a stale fit.
    """
    d = cfg["dispersion"]
    if d["table_file"] is None:
        return _packaged_model(int(d["fit_order"]))
    try:
        return load_dispersion_table(d["table_file"], order=int(d["fit_order"]))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dispersion table {d['table_file']}: {exc}") from None


def _width_entry(mapping: dict, width_nm: float, what: str):
    try:
        return mapping[width_key(width_nm)]
    except KeyError:
        raise ConfigError(f"no {what} entry for width {width_nm} nm") from None


def _calibration(cfg: dict) -> dict:
    cal = cfg.get("calibration")
    if not cal:
        raise ConfigError("no calibration block in the config; run the `calibrate` "
                          "experiment first")
    return cal


def build_device(cfg: dict, width_nm=None, with_coupler=True) -> Device:
    """Device for the given width (default: the config's device width).

    with_coupler=False builds the bare ring (used by matching before any
    calibration exists).  A coupler requires the calibration block, and one
    whose arm phase reaches MAX_ARM_PHASE_RAD raises DomainError.
    """
    dev = cfg["device"]
    width = float(dev["width_nm"] if width_nm is None else width_nm)
    model = build_dispersion_model(cfg)
    poling_um = _width_entry(dev["poling_period_um_by_width"], width, "poling period")
    ring = RingCavity(
        length_um=float(dev["ring_length_um"]),
        width_nm=width,
        alpha_prop_dB_per_m=float(dev["propagation_loss_dB_per_m"]),
        ppln_fraction=float(dev["ppln_fraction"]),
        poling_period_um=float(poling_um),
    )
    mzi = None
    if with_coupler:
        entry = _width_entry(_calibration(cfg)["by_width"], width, "calibration")
        lc = tuple(float(c) for c in entry["lc_quad_um"])
        dc = DirectionalCoupler(
            length_um=float(dev["dc_length_um"]),
            lc_coeffs_um=lc,
            lambda_ref_nm=model.lambda_ref_nm,
            lambda_window_nm=model.lambda_window_nm,
        )
        mzi = MziCoupler(
            dc=dc,
            delta_len_um=float(dev["mzi_arm_delta_um"]),
            heater_len_um=float(dev["mzi_heater_length_um"]) * float(entry["heater_scale"]),
            delta_T_K=float(dev["mzi_delta_T_K"]),
            dn_dT_per_K=float(cfg["dispersion"]["dn_dT_per_K"]),
            dispersion=model,
            width_nm=width,
            t_base_K=float(dev["ambient_temperature_K"]),
        )
        _check_arm_phase(mzi, "device.mzi_delta_T_K")
    return Device(dispersion=model, ring=ring, mzi=mzi)


# Memoised because every operating_point call builds its device; an error is
# not memoised, so a refused coupler is refused on every call.
@lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _check_arm_phase(mzi: MziCoupler, drive_key: str) -> None:
    """DomainError when |arm phase| at the drive mzi.delta_T_K, which the config
    key drive_key sets, or the couplers' phase pi L_dc / (2 L_c) reaches
    MAX_ARM_PHASE_RAD at an edge of the window."""
    window = mzi.dispersion.lambda_window_nm
    dc, edges = mzi.dc, np.array(window)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phase = np.abs(mzi.arm_phase(edges))
        lc = _polyval(dc.lc_coeffs_um, (edges - dc.lambda_ref_nm) / U_SCALE_NM)
        coupler = np.abs(math.pi * dc.length_um / (2.0 * lc))
    if not np.all(phase < MAX_ARM_PHASE_RAD):
        raise DomainError(
            f"MZI arm phase of {np.max(phase):.3g} rad at the edges of the {window} nm "
            f"window is beyond float resolution (|phase| >= 2**32 rad): "
            f"{drive_key}={mzi.delta_T_K:g} K with a {mzi.heater_len_um:g} um "
            f"heater and device.mzi_arm_delta_um={mzi.delta_len_um:g}")
    if not np.all(coupler < MAX_ARM_PHASE_RAD):
        raise DomainError(
            f"directional-coupler phase pi L_dc / (2 L_c) of {np.max(coupler):.3g} rad at "
            f"the edges of the {window} nm window is beyond float resolution (|phase| >= "
            f"2**32 rad): device.dc_length_um={dc.length_um:g}")


def build_constraints(cfg: dict) -> SearchConstraints:
    c = cfg["constraints"]
    step_mK = float(c["t_step_mK"])
    try:
        return SearchConstraints(
            signal_wavelength_nm=float(cfg["physics"]["signal_wavelength_nm"]),
            max_signal_detuning_Hz=float(c["max_signal_detuning_MHz"]) * 1e6,
            max_mismatch_Hz=float(c["max_mismatch_MHz"]) * 1e6,
            pump_base_nm=float(c["pump_base_wavelength_nm"]),
            idler_base_nm=float(c["idler_base_wavelength_nm"]),
            half_window_nm=float(c["half_window_nm"]),
            t_min_K=float(c["t_ring_min_K"]),
            t_max_K=float(c["t_ring_max_K"]),
            t_step_K=None if step_mK == 0.0 else step_mK * 1e-3,
            require_qpm=bool(c["require_qpm"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid constraints: {exc}") from None


@lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _verified_matches(device: Device, constraints: SearchConstraints) -> tuple:
    matches = tuple(find_triple_resonance(device, constraints))
    verify_match(device, matches[0])
    return matches


def operating_point(cfg: dict, width_nm=None, with_coupler=True):
    """Device at one width and its matches (a tuple), best first.

    One sweep, then verify_match checks the best match's stored lines
    against raw dispersion before any caller reads it.  Raises
    NoFeasibleMatch when nothing matches and StaleResult when that check fails.

    Experiments in one process share one verified sweep per width and input
    set: the matches are an lru_cache on (device, constraints), which compare
    by content (the dispersion model by its content_hash()), so a repeat call
    neither sweeps again nor re-emits the sweep's coverage warning.  Errors
    are not memoised.  The CLI runs one experiment per process, so it
    always sweeps.

    On a coupled device every call compares each carrier's eta in the best
    match with calibration_targets.eta_<role> and warns (CalibrationDrift)
    once, naming the worst role, when one is off by more than _DRIFT_TOL.
    """
    device = build_device(cfg, width_nm=width_nm, with_coupler=with_coupler)
    matches = _verified_matches(device, build_constraints(cfg))
    if with_coupler:
        targets = cfg["calibration_targets"]
        gap, role, eta = max((abs(sol.eta - float(targets[f"eta_{role}"])), role, sol.eta)
                             for role, sol in matches[0].carriers)
        if gap > _DRIFT_TOL:
            warnings.warn(f"width {device.width_nm:g} nm: {role} eta {eta:.4f} misses its "
                          f"calibration target {targets[f'eta_{role}']:g}; the calibration "
                          "no longer fits this device, re-run `qfcring calibrate`",
                          CalibrationDrift, stacklevel=2)
    return device, matches


def build_twm_system(cfg: dict, match: MatchResult) -> TwmSystem:
    """Conversion system at a matched operating point.

    The signal drive sits at the memory transition, so its detuning is
    -(signal resonance - target); the pump laser detuning comes from the
    config (default 0: locked on the pump resonance).  g0 is the calibration's
    unpoled-ring rate scaled by the poled fraction (g0_effective).
    """
    g0_full = TWO_PI * float(_calibration(cfg)["g0_full_over_2pi_MHz"]) * 1e6
    delta = {"pump": TWO_PI * float(cfg["physics"]["pump_detuning_MHz"]) * 1e6,
             "signal": -TWO_PI * match.signal_detuning_Hz, "idler": 0.0}
    channels = {role: ModeChannel(role=role, omega=sol.omega, m=sol.m, kappa_ex=sol.kappa_ex,
                                  kappa_0=sol.kappa_0, delta=delta[role])
                for role, sol in match.carriers}
    return TwmSystem(
        **channels,
        g0=g0_effective(g0_full, float(cfg["device"]["ppln_fraction"])),
        mismatch=TWO_PI * match.mismatch_Hz,
        pump_power_W=0.0,
    )


def build_fwm_channel(cfg: dict, match: MatchResult, companion_rad_s: float) -> FwmChannel:
    """FWM noise channel on the match's conversion system (build_twm_system)."""
    kappa_comp = TWO_PI * float(cfg["physics"]["fwm_companion_linewidth_over_2pi_GHz"]) * 1e9
    return FwmChannel(
        g_chi3=TWO_PI * float(_calibration(cfg)["g_chi3_over_2pi_Hz"]),
        delta_comp=float(companion_rad_s),
        kappa_comp=kappa_comp,
        system=build_twm_system(cfg, match),
    )


def fwm_channel_at(cfg: dict, device: Device, match: MatchResult):
    """(FwmChannel, source) at a verified match: the one companion rule.

    The companion's comb line ("comb"), else the config's entry for the
    device width ("table", ordinary THz -> rad/s), else UnmatchedVariant.
    """
    companion, source = companion_detuning(device, match), "comb"
    if companion is None:
        table = cfg["physics"]["fwm_companion_detuning_THz_by_width"]
        entry = table.get(width_key(device.width_nm))
        if entry is None:
            raise UnmatchedVariant(f"width {device.width_nm:g} nm: companion line outside "
                                   "window and no table entry")
        companion, source = TWO_PI * float(entry) * 1e12, "table"
    return build_fwm_channel(cfg, match, companion), source

