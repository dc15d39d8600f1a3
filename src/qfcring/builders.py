"""Assemble physics objects from a validated configuration."""

from __future__ import annotations

from functools import lru_cache

from .config import config_hash, width_key
from .constants import TWO_PI
from .conversion import ModeChannel, TwmSystem, g0_effective
from .dispersion import DispersionModel, load_dispersion_table
from .elements import Device, DirectionalCoupler, MziCoupler, RingCavity
from .errors import ConfigError, UnmatchedVariant
from .matching import (MatchResult, SearchConstraints, companion_detuning,
                       find_triple_resonance, verify_match)
from .noise import FwmChannel

# Verified sweeps kept per process, least recently used dropped first: enough
# for one config's widths plus its primary width, bare ring and coupled.
_SWEEP_MEMO_SIZE = 8


@lru_cache(maxsize=8)
def _load_model(table_file, fit_order: int) -> DispersionModel:
    # A null table_file is the packaged table, fitted at fit_order like any other.
    try:
        return load_dispersion_table(table_file, order=fit_order)
    except OSError as exc:
        raise ConfigError(f"cannot read dispersion table {table_file}: {exc}") from None


def build_dispersion_model(cfg: dict) -> DispersionModel:
    d = cfg["dispersion"]
    return _load_model(d["table_file"], int(d["fit_order"]))


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
    calibration exists).  A coupler requires the calibration block.
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
    return Device(dispersion=model, ring=ring, mzi=mzi)


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
    """
    device = build_device(cfg, width_nm=width_nm, with_coupler=with_coupler)
    return device, _verified_matches(device, build_constraints(cfg))


def g0_from_config(cfg: dict) -> float:
    """Effective vacuum coupling rate g0 (rad/s) from the calibration block."""
    g0_full = TWO_PI * float(_calibration(cfg)["g0_full_over_2pi_MHz"]) * 1e6
    return g0_effective(g0_full, float(cfg["device"]["ppln_fraction"]))


def build_twm_system(cfg: dict, match: MatchResult) -> TwmSystem:
    """Conversion system at a matched operating point.

    The signal drive sits at the memory transition, so its detuning is
    -(signal resonance - target); the pump laser detuning comes from the
    config (default 0: locked on the pump resonance).
    """
    delta_p = TWO_PI * float(cfg["physics"]["pump_detuning_MHz"]) * 1e6
    delta_s = -TWO_PI * match.signal_detuning_Hz
    mk = {}
    for role, sol in (("pump", match.pump), ("signal", match.signal),
                      ("idler", match.idler)):
        mk[role] = dict(m=sol.m, omega=sol.omega, kappa_ex=sol.kappa_ex,
                        kappa_0=sol.kappa_0)
    return TwmSystem(
        pump=ModeChannel(role="pump", delta=delta_p, **mk["pump"]),
        signal=ModeChannel(role="signal", delta=delta_s, **mk["signal"]),
        idler=ModeChannel(role="idler", delta=0.0, **mk["idler"]),
        g0=g0_from_config(cfg),
        mismatch=TWO_PI * match.mismatch_Hz,
        pump_power_W=0.0,
    )


def build_fwm_channel(cfg: dict, match: MatchResult, companion_rad_s: float) -> FwmChannel:
    kappa_comp = TWO_PI * float(cfg["physics"]["fwm_companion_linewidth_over_2pi_GHz"]) * 1e9
    return FwmChannel(
        g_chi3=TWO_PI * float(_calibration(cfg)["g_chi3_over_2pi_Hz"]),
        delta_comp=float(companion_rad_s),
        kappa_comp=kappa_comp,
        kappa_idler=match.idler.kappa_ex + match.idler.kappa_0,
        kappa_p=match.pump.kappa_ex + match.pump.kappa_0,
        kappa_p_ex=match.pump.kappa_ex,
        omega_p=match.pump.omega,
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


def resolved_metadata(cfg: dict, experiment: str, extra=None) -> dict:
    """Deterministic .meta.json payload: hash, version, resolved config."""
    from . import __version__

    meta = {
        "config_hash": config_hash(cfg),
        "tool_version": __version__,
        "experiment": experiment,
        "resolved_config": cfg,
        "conventions": {
            "rates": "kappa are total energy decay rates in rad/s; reported as /2pi",
            "companion_detuning": "config THz values are ordinary frequency, "
                                  "converted as 2*pi*1e12 rad/s",
        },
    }
    if extra:
        meta.update(extra)
    return meta
