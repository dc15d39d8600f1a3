"""Shared fixtures: synthetic dispersion models and planted matcher devices."""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from scipy.optimize import brentq

from qfcring import builders
from qfcring.config import SCHEMA, default_config
from qfcring.constants import C_M_PER_S, freq_hz
from qfcring.conversion import evolve_mean_field
from qfcring.dispersion import DispersionModel
from qfcring.elements import Device, RingCavity, solve_resonance_wavelength
from qfcring.errors import DomainError
from qfcring.matching import SearchConstraints

WIDTH = 1500.0

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def src_env():
    """Environment for a child interpreter with the absolute src dir on PYTHONPATH.

    Children run from a temp dir, where a relative PYTHONPATH would no
    longer resolve.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def simple_model(coeffs, dn_dt=3.9e-5, lambda_ref=1200.0, t_ref=350.0,
                 window=(600.0, 1800.0), t_window=(250.0, 450.0)):
    return DispersionModel(
        coeffs_by_width={WIDTH: list(coeffs)},
        dn_dT_per_K=dn_dt,
        lambda_ref_nm=lambda_ref,
        t_ref_K=t_ref,
        lambda_window_nm=window,
        temperature_window_K=t_window,
    )


def mzi_transfer(mzi, lambda_nm, delta_T_K=None):
    """The MZI coupler's composite 2x2 matrix stacked from its entries, at the
    thermal drive delta_T_K (default: the coupler's own).

    Shape (2, 2) for a scalar wavelength, (n, 2, 2) for an n-vector.
    """
    if delta_T_K is not None:
        mzi = dataclasses.replace(mzi, delta_T_K=delta_T_K)
    m00, m01, m10, m11 = mzi._entries(lambda_nm)
    return np.stack([np.stack([m00, m01], axis=-1), np.stack([m10, m11], axis=-1)], axis=-2)


def resumed_run(sys, dt, steps, stride, initial=(0j, 0j, 0j), signal_flux=0.0):
    """(kept, states, converged) of a `steps`-step RK4 run, sampled at step 0,
    every stride-th step and the last by resuming evolve_mean_field in chunks
    of stride steps, which is bit-identical to one run.

    kept lists the sampled step numbers, states is the (len(kept), 3) complex
    array of (a, b, c) there, and converged is the last chunk's flag.
    """
    kept, states, converged = [0], [tuple(complex(x) for x in initial)], False
    while kept[-1] < steps:
        n = min(stride, steps - kept[-1])
        state, converged = evolve_mean_field(sys, states[-1], dt, n, signal_flux)
        kept.append(kept[-1] + n)
        states.append(state)
    return kept, np.array(states), converged


def _csv(path):
    """A written table as (header, rows of text cells)."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows


def assert_outputs_agree(run_dir):
    """Assert that one run's files agree with each other as written text; returns
    the names of the identities whose files are present, each of which held.

    - "convert", "noise": convert.csv's (power_mW, eta_ext) and noise.csv's
      (power_mW, R_FWM_Hz) rows are tradeoff.csv's at the device width, when
      that width is one of experiment.widths_nm;
    - "couplings": the coupling_ratios.csv row at device.mzi_delta_T_K, when
      the sweep has that row, holds the three eta of match.json's best match;
    - "combs": each (m, wavelength) of the best match is a row of its comb;
    - "operating point": convert.meta.json's operating point is match.json's best.
    """
    run_dir, checked = Path(run_dir), set()
    have = {path.name for path in run_dir.iterdir()}
    best = json.loads((run_dir / "match.json").read_text())["best"] if "match.json" in have else None
    if "tradeoff.csv" in have:
        cfg = json.loads((run_dir / "tradeoff.meta.json").read_text())["resolved_config"]
        width = cfg["device"]["width_nm"]
        at_width = [row for row in _csv(run_dir / "tradeoff.csv")[1] if float(row[0]) == width]
        for name, ours, theirs in (("convert", 3, 2), ("noise", 1, 3)):
            if f"{name}.csv" in have and width in cfg["experiment"]["widths_nm"]:
                rows = [(row[0], row[ours]) for row in _csv(run_dir / f"{name}.csv")[1]]
                assert rows and rows == [(row[1], row[theirs]) for row in at_width], name
                checked.add(name)
    if best is None:
        return checked
    if "coupling_ratios.csv" in have:
        meta = json.loads((run_dir / "coupling_ratios.meta.json").read_text())
        header, rows = _csv(run_dir / "coupling_ratios.csv")
        drive = "%.12g" % meta["operating_delta_T_K"]
        at = [row[1:] for row in rows if row[0] == drive]
        if at:
            etas = ["%.12g" % best[h.removeprefix("eta_")]["eta"] for h in header[1:]]
            assert at == [etas], (at, etas)
            checked.add("couplings")
    for role in ("pump", "signal", "idler"):
        if f"comb_{role}.csv" in have:
            line = [str(best[role]["m"]), "%.12g" % best[role]["wavelength_nm"]]
            assert line in [row[:2] for row in _csv(run_dir / f"comb_{role}.csv")[1]], role
            checked.add("combs")
    if "convert.meta.json" in have:
        meta = json.loads((run_dir / "convert.meta.json").read_text())
        assert meta["operating_point"] == best
        checked.add("operating point")
    return checked


# The solver iterates lambda -> n_eff(lambda) L / m, which contracts by
# q = |dn/dlambda| lambda / n = |n - n_g| / n per step.  Where it does not
# contract (q >~ 0.73) the solver's residual check raises NumericalFailure
# (test_non_contracting_model_raises_instead_of_a_wrong_root).  The draws keep
# q <= 0.5 over the window, where the roots must agree with brentq (the
# packaged widths have q < 0.1).
MAX_CONTRACTION = 0.5


@st.composite
def random_rings(draw):
    """A 100-2000 um ring on a random cubic n_eff model that DispersionModel accepts."""
    coeffs = [draw(st.floats(1.7, 2.3)), draw(st.floats(-0.4, 0.4)),
              draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.3, 0.3))]
    dn_dt = draw(st.floats(1e-5, 1e-4)) * draw(st.sampled_from([-1.0, 1.0]))
    try:
        model = simple_model(coeffs, dn_dt=dn_dt)
    except DomainError:  # n_eff leaves (N_EFF_MIN, N_EFF_MAX) or n_g <= 0
        assume(False)
    lam = np.linspace(*model.lambda_window_nm, 257)
    for t in model.temperature_window_K:
        n = model.n_eff(lam, t, WIDTH)
        assume(np.all(np.abs(n - model.group_index(lam, t, WIDTH)) <= MAX_CONTRACTION * n))
    ring = RingCavity(length_um=draw(st.floats(100.0, 2000.0)), width_nm=WIDTH,
                      alpha_prop_dB_per_m=30.0, ppln_fraction=0.0, poling_period_um=5.0)
    return Device(dispersion=model, ring=ring)


def multi_key_draws(count=100, seed=5):
    """Override lists of the multi-key design fuzz, each changing 2-5 numeric packaged keys.

    A key's packaged value is scaled by e^U(-1.2, 1.2), a zero-valued key
    draws U(-50, 50) instead, and an integer key is rounded.  The same count
    and seed give the same lists.
    """
    cfg = default_config()
    keys = [(section, key) for section, body in SCHEMA.items() for key in body
            if type(cfg[section][key]) in (int, float)]
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        overrides = []
        for section, key in rng.sample(keys, rng.randint(2, 5)):
            old = cfg[section][key]
            new = old * math.exp(rng.uniform(-1.2, 1.2)) if old else rng.uniform(-50.0, 50.0)
            overrides.append(f"{section}.{key}={round(new) if type(old) is int else repr(new)}")
        draws.append(overrides)
    return draws


@pytest.fixture(autouse=True)
def fresh_sweep_memo():
    """Start every test with no memoised operating point.

    A verified sweep memoised by an earlier test would otherwise answer a
    later test's call, and the faults those tests inject into the sweep or
    the verification would never run.
    """
    builders._verified_matches.cache_clear()


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def constant_model():
    return simple_model([2.0])


def _bare_ring(length_um, ppln_fraction=0.0, poling_um=5.0, alpha=30.0):
    return RingCavity(
        length_um=length_um,
        width_nm=WIDTH,
        alpha_prop_dB_per_m=alpha,
        ppln_fraction=ppln_fraction,
        poling_period_um=poling_um,
    )


def planted_fixture_a():
    """Dispersionless device with an exact triple at T = 350 K.

    An equidistant comb satisfies the energy match with zero mismatch only
    for m_s = m_p + m_i, so the poled fraction is 0 (M = 0).  The signal
    target is the m_s = 1357 line of the T = 350 K comb; pump/idler lines
    616 and 741 land inside the default windows.
    """
    model = simple_model([2.0])
    ring = _bare_ring(500.0, ppln_fraction=0.0)
    device = Device(dispersion=model, ring=ring)
    length_nm = 500.0 * 1e3
    lam_target = 2.0 * length_nm / 1357.0
    # every m_p + m_i = 1357 pair is an exact solution of the equidistant
    # comb, so the windows are narrowed to a single pump/idler line each
    constraints = SearchConstraints(
        signal_wavelength_nm=lam_target,
        pump_base_nm=2.0 * length_nm / 616.0,
        idler_base_nm=2.0 * length_nm / 741.0,
        half_window_nm=1.2,
        t_min_K=340.0,
        t_max_K=360.0,
        t_step_K=0.01,
    )
    planted = {"t_ring_K": 350.0, "m": (1357, 616, 741), "mismatch_Hz": 0.0}
    return device, constraints, planted


def planted_fixture_curved(n2=0.30, length_um=500.0, n0=2.0,
                           n1=0.0, delta_target_hz=5.0e4, sweep_half_K=5.0,
                           t_step_K=0.005):
    """Device with quadratic index curvature and a planted nonzero-M triple.

    The poling offset is the comb's own: M = m_s - m_p - m_i with m_i the
    line nearest the energy-conserving frequency, which keeps the planted
    mismatch within a comb spacing.  The curvature makes the group indices
    of the three bands differ, so that mismatch drifts smoothly with
    temperature (~GHz/K); the planted temperature is the root of
    mismatch(T) = delta_target_hz for fixed mode numbers, and the signal
    target is defined from the device's own comb there, so the solution
    exists by construction.
    """
    length_nm = length_um * 1e3
    model = simple_model([n0, n1, n2])
    unpoled = Device(dispersion=model, ring=_bare_ring(length_um))

    def lines(m_s, m_p, m_i, t):
        lam_s = float(solve_resonance_wavelength(unpoled, m_s, t))
        lam_p = float(solve_resonance_wavelength(unpoled, m_p, t))
        lam_i = float(solve_resonance_wavelength(unpoled, m_i, t))
        return lam_s, lam_p, lam_i

    m_s = int(round(float(model.n_eff(737.0, 350.0, WIDTH)) * length_nm / 737.0))
    m_p0 = int(round(float(model.n_eff(1623.0, 350.0, WIDTH)) * length_nm / 1623.0))
    lam_s0 = float(solve_resonance_wavelength(unpoled, m_s, 350.0))
    lam_p0 = float(solve_resonance_wavelength(unpoled, m_p0, 350.0))
    f_i_guess = freq_hz(lam_s0) - freq_hz(lam_p0)
    lam_i_guess = C_M_PER_S / f_i_guess * 1e9
    m_i0 = int(round(float(model.n_eff(lam_i_guess, 350.0, WIDTH))
                     * length_nm / lam_i_guess))
    m_offset = m_s - m_p0 - m_i0
    assert m_offset > 0, "fixture parameters give a nonpositive poling offset"

    solution = None
    for dmp in (0, 1, -1, 2, -2, 3, -3):
        m_p = m_p0 + dmp
        m_i = m_s - m_p - m_offset

        def delta_at(t):
            lam_s, lam_p, lam_i = lines(m_s, m_p, m_i, t)
            return freq_hz(lam_s) - freq_hz(lam_p) - freq_hz(lam_i)

        ts = np.linspace(302.0, 398.0, 193)
        vals = [delta_at(t) - delta_target_hz for t in ts]
        for a, b, fa, fb in zip(ts, ts[1:], vals, vals[1:]):
            if fa * fb <= 0.0:
                t_star = brentq(lambda t: delta_at(t) - delta_target_hz, a, b,
                                xtol=1e-10)
                solution = (t_star, m_p, m_i)
                break
        if solution is not None:
            break
    if solution is None:
        raise RuntimeError("no planted temperature for the curved fixture")

    t_star, m_p, m_i = solution
    lams = lines(m_s, m_p, m_i, t_star)
    poling_um = 0.25 * length_um / m_offset
    ring = _bare_ring(length_um, ppln_fraction=0.25, poling_um=poling_um)
    device = Device(dispersion=model, ring=ring)
    constraints = SearchConstraints(
        signal_wavelength_nm=lams[0],
        t_min_K=t_star - sweep_half_K,
        t_max_K=t_star + sweep_half_K,
        t_step_K=t_step_K,
        pump_base_nm=lams[1],
        idler_base_nm=lams[2],
        half_window_nm=10.0,
    )
    planted = {"t_ring_K": t_star, "m": (m_s, m_p, m_i),
               "mismatch_Hz": delta_target_hz, "n2": n2, "lambda_nm": lams}
    return device, constraints, planted


def partial_sweep():
    """Asserts the coverage warning of a sweep over less than one FSR of signal shift.

    The planted and oracle fixtures sweep a few kelvin around their planted
    temperature, and every sweep of them warns so.
    """
    return pytest.warns(UserWarning, match=r"less than one FSR \(.*\); coverage is incomplete")


def oracle_fixtures():
    """Five small devices for the coarse-vs-fine sweep equivalence check."""
    out = [planted_fixture_a(), planted_fixture_curved()]
    out.append(planted_fixture_curved(n2=0.27, length_um=420.0,
                                      delta_target_hz=2.0e4))
    out.append(planted_fixture_curved(n2=0.33, length_um=610.0, n0=1.9,
                                      delta_target_hz=8.0e4))
    out.append(planted_fixture_curved(n2=0.29, length_um=500.0, n0=2.1,
                                      n1=-0.05, delta_target_hz=-4.0e4))
    return out


@functools.lru_cache(maxsize=None)
def oracle_fixture_best(index):
    """brute_force_best of oracle_fixtures()[index] on its 10x finer grid.

    Memoised: the exhaustive sweep is the slowest part of the suite, and more
    than one test compares the matcher against it.
    """
    device, constraints, _ = oracle_fixtures()[index]
    return brute_force_best(device, constraints, constraints.t_step_K / 10.0)


def _bisect_roots(f, lo, hi, xtol=1e-12):
    """Elementwise roots of f on [lo, hi] by plain bisection to xtol.

    f maps an array of wavelengths to an array of its own shape (which may
    broadcast lo and hi).  NaN where f(lo) and f(hi) have the same sign.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    f_lo = f(lo)
    bracketed = f_lo * f(hi) <= 0.0
    while True:
        active = bracketed & (hi - lo > xtol)
        if not active.any():
            return np.where(bracketed, 0.5 * (lo + hi), np.nan)
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        left = active & (np.sign(f_mid) != np.sign(f_lo))  # the root lies in [lo, mid]
        right = active & ~left
        hi, lo, f_lo = np.where(left, mid, hi), np.where(right, mid, lo), np.where(right, f_mid, f_lo)


def brute_force_best(device, constraints, step_K):
    """Independent exhaustive sweep: all grid temperatures at once, bisection roots.

    Returns (t_K, (m_s, m_p, m_i), signal_detuning_Hz, mismatch_Hz) of the
    best candidate under the same (|mismatch|, |detuning|, T) order, or None;
    of equal keys the first in (T, m_p, m_i) order wins.
    """
    model = device.dispersion
    width = device.width_nm
    length_nm = device.ring.length_m * 1e9
    f_target = constraints.signal_target_hz
    tol_s = constraints.max_signal_detuning_Hz
    tol_d = constraints.max_mismatch_Hz
    m_off = device.ring.m_offset
    lo_w, hi_w = model.lambda_window_nm

    def solve_lambda(m, t, lo, hi):
        return _bisect_roots(
            lambda lam: m * lam - model._n_eff_unchecked(lam, t, width) * length_nm, lo, hi)

    def lines(t, lo, hi):
        """(m, lambda) of the comb lines in [lo, hi]: m ascending over columns,
        lambda per (temperature, m), NaN where that line is not in the window."""
        m_lo = np.ceil(model.n_eff(hi, t, width) * length_nm / hi).astype(int)
        m_hi = np.floor(model.n_eff(lo, t, width) * length_nm / lo).astype(int)
        m = np.arange(m_lo.min(), m_hi.max() + 1)
        lam = solve_lambda(m, t[:, None], max(lo - 20.0, lo_w), min(hi + 20.0, hi_w))
        inside = (m_lo[:, None] <= m) & (m <= m_hi[:, None]) & (lo <= lam) & (lam <= hi)
        return m, np.where(inside, lam, np.nan)

    n_steps = int(math.floor((constraints.t_max_K - constraints.t_min_K) / step_K + 1e-9))
    t = constraints.t_min_K + np.arange(n_steps + 1) * step_K
    lam_t = constraints.signal_wavelength_nm
    m_float = model.n_eff(lam_t, t, width) * length_nm / lam_t
    m_s = np.stack([np.floor(m_float), np.ceil(m_float)]).astype(int)
    f_s = C_M_PER_S / (solve_lambda(m_s, t, lam_t - 30.0, lam_t + 30.0) * 1e-9)
    det = f_s - f_target
    # the floor line, unless it has no root or the ceil line is strictly closer
    pick = (np.isnan(det[0]) | (np.abs(det[1]) < np.abs(det[0]))).astype(int)
    cols = np.arange(t.size)
    keep = np.abs(det[pick, cols]) <= tol_s
    if not keep.any():
        return None
    pick, cols, t = pick[keep], cols[keep], t[keep]
    m_s, f_s, det_s = m_s[pick, cols], f_s[pick, cols], det[pick, cols]
    m_p, lam_p = lines(t, *constraints.pump_window_nm)
    m_i, lam_i = lines(t, *constraints.idler_window_nm)
    # axes (T, pump, idler); a NaN wavelength fails the mismatch bound
    delta = (f_s[:, None, None] - (C_M_PER_S / (lam_p * 1e-9))[:, :, None]
             - (C_M_PER_S / (lam_i * 1e-9))[:, None, :])
    ok = np.abs(delta) <= tol_d
    if constraints.require_qpm:
        ok &= m_s[:, None, None] - m_p[None, :, None] - m_i[None, None, :] - m_off == 0
    hits = np.flatnonzero(ok)  # in (T, m_p, m_i) scan order
    if not hits.size:
        return None
    k, p, i = np.unravel_index(hits, delta.shape)
    # same 1 Hz mismatch quantum as the production sort; the scan order breaks ties
    j = np.lexsort((hits, t[k], np.abs(det_s[k]), np.rint(np.abs(delta[k, p, i]))))[0]
    k, p, i = k[j], p[j], i[j]
    return (float(t[k]), (int(m_s[k]), int(m_p[p]), int(m_i[i])),
            float(det_s[k]), float(delta[k, p, i]))
