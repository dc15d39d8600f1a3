"""Coupler, MZI, ring cavity, and resonance comb tests."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qfcring import elements
from qfcring.builders import build_constraints, build_device
from qfcring.config import apply_overrides
from qfcring.constants import C_M_PER_S, TWO_PI, db_per_m_to_kappa, freq_hz
from qfcring.dispersion import default_model
from qfcring.elements import (
    RESIDUAL_TOL,
    Device,
    DirectionalCoupler,
    MziCoupler,
    RingCavity,
    _m_range,
    _temperature_at,
    coupling_ratio,
    mode_rates,
    qpm_mismatch,
    resonance_combs,
    resonance_residual,
    ring_spectrum,
    solve_resonance_wavelength,
)
from qfcring.errors import DomainError, NoResonance, NumericalFailure, OutOfDomain
from qfcring.experiments import run_experiment
from qfcring.matching import find_triple_resonance

import reference_solver
from conftest import WIDTH, mzi_transfer, random_rings, simple_model

WINDOW = (600.0, 1800.0)


def flat_dc(k2, length_um=10.0):
    """Coupler with wavelength-independent cross coupling |k|^2 = k2."""
    lc = math.pi * length_um / (2.0 * math.asin(math.sqrt(k2)))
    return DirectionalCoupler(length_um=length_um, lc_coeffs_um=(lc,),
                              lambda_ref_nm=1200.0, lambda_window_nm=WINDOW)


def make_mzi(k2=0.3, delta_len_um=1.0, heater_um=100.0, delta_T=0.0,
             model=None, dndt=3.9e-5):
    model = model or simple_model([2.0])
    dc = flat_dc(k2)
    return MziCoupler(dc=dc, delta_len_um=delta_len_um,
                      heater_len_um=heater_um, delta_T_K=delta_T,
                      dn_dT_per_K=dndt, dispersion=model, width_nm=WIDTH,
                      t_base_K=300.0)


# --- directional coupler ---------------------------------------------------

def test_dc_full_transfer_at_beat_length():
    dc = DirectionalCoupler(length_um=25.0, lc_coeffs_um=(25.0,),
                            lambda_ref_nm=1200.0, lambda_window_nm=WINDOW)
    assert dc.cross_coupling(1000.0) == pytest.approx(1.0, abs=1e-15)


def test_dc_zero_length_no_coupling():
    dc = DirectionalCoupler(length_um=0.0, lc_coeffs_um=(25.0,),
                            lambda_ref_nm=1200.0, lambda_window_nm=WINDOW)
    assert dc.cross_coupling(1000.0) == 0.0


def test_dc_default_model_wavelength_trend(cfg):
    pinned = json.loads(
        (Path(__file__).parent / "golden" / "regression.json").read_text())
    device = build_device(cfg)
    k2_s = float(device.mzi.dc.cross_coupling(737.0))
    k2_p = float(device.mzi.dc.cross_coupling(1623.0))
    assert k2_s < k2_p
    assert k2_s == pytest.approx(pinned["dc_cross_737"], rel=1e-9)
    assert k2_p == pytest.approx(pinned["dc_cross_1623"], rel=1e-9)


def test_dc_out_of_window():
    dc = flat_dc(0.2)
    with pytest.raises(OutOfDomain):
        dc.cross_coupling(2500.0)


# --- MZI -------------------------------------------------------------------

def test_mzi_unitarity_1000_draws():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        mzi = make_mzi(k2=rng.uniform(0.02, 0.98),
                       delta_len_um=rng.uniform(0.0, 3.0))
        lam = rng.uniform(*WINDOW)
        m = mzi_transfer(mzi, lam, delta_T_K=rng.uniform(0.0, 60.0))
        dev = np.max(np.abs(m.conj().T @ m - np.eye(2)))
        worst = max(worst, dev)
    assert worst < 1e-12


def test_mzi_composite_closed_form():
    # matrix element vs 4|k|^2|t|^2 cos^2(dtheta/2), as an equality
    rng = np.random.default_rng(4)
    for _ in range(200):
        k2 = rng.uniform(0.05, 0.95)
        mzi = make_mzi(k2=k2, delta_len_um=rng.uniform(0.0, 2.0))
        lam = rng.uniform(*WINDOW)
        dT = rng.uniform(0.0, 50.0)
        m = mzi_transfer(mzi, lam, delta_T_K=dT)
        k_matrix = abs(m[1, 0]) ** 2
        dtheta = float(mzi.arm_phase(lam, dT))
        k_closed = 4.0 * k2 * (1.0 - k2) * math.cos(dtheta / 2.0) ** 2
        assert k_matrix == pytest.approx(k_closed, rel=1e-12, abs=1e-15)


def test_mzi_zero_asymmetry_zero_drive():
    k2 = 0.3
    mzi = make_mzi(k2=k2, delta_len_um=0.0)
    K = float(mzi.cross_coupling(1200.0, delta_T_K=0.0))
    assert K == pytest.approx(4.0 * k2 * (1.0 - k2), rel=1e-12)


def test_mzi_balanced_coupler_full_cross():
    mzi = make_mzi(k2=0.5, delta_len_um=0.0)
    assert float(mzi.cross_coupling(1200.0, delta_T_K=0.0)) == pytest.approx(1.0, rel=1e-12)


def test_envelope_law():
    # K(dL, dT) / K(0, 0) = cos^2((beta dL + phi_T)/2)
    model = simple_model([2.0, -0.1])
    rng = np.random.default_rng(5)
    for _ in range(100):
        k2 = rng.uniform(0.05, 0.95)
        dl = rng.uniform(0.0, 2.0)
        dT = rng.uniform(0.0, 50.0)
        lam = rng.uniform(*WINDOW)
        driven = make_mzi(k2=k2, delta_len_um=dl, model=model)
        ref = make_mzi(k2=k2, delta_len_um=0.0, model=model)
        ratio = float(driven.cross_coupling(lam, delta_T_K=dT)) / \
            float(ref.cross_coupling(lam, delta_T_K=0.0))
        assert ratio == pytest.approx(
            math.cos(float(driven.arm_phase(lam, dT)) / 2.0) ** 2,
            rel=1e-12, abs=1e-15)


def test_mzi_cross_coupling_bounded():
    rng = np.random.default_rng(6)
    mzi = make_mzi(k2=0.4, delta_len_um=1.5)
    lams = rng.uniform(*WINDOW, size=500)
    dts = rng.uniform(0.0, 60.0, size=500)
    for lam, dt in zip(lams, dts):
        K = float(mzi.cross_coupling(lam, delta_T_K=dt))
        assert 0.0 <= K <= 1.0


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_cross_coupling_is_the_bits_of_the_transfer_element(cfg, width):
    # cross_coupling forms only M10; it must equal |M10|^2 read from the full
    # matrix, bit for bit, at scalar and array wavelengths and random drives.
    rng = np.random.default_rng(29)
    mzis = [build_device(cfg, width_nm=width).mzi,
            make_mzi(k2=rng.uniform(0.05, 0.95), delta_len_um=rng.uniform(0.0, 3.0),
                     model=simple_model([2.0, -0.1, 0.05]))]
    for mzi in mzis:
        lo, hi = mzi.dispersion.lambda_window_nm
        for drive in (None, 0.0, *rng.uniform(-80.0, 80.0, size=6)):
            for lam in (rng.uniform(lo, hi), rng.uniform(lo, hi, size=1),
                        rng.uniform(lo, hi, size=1300), np.linspace(lo, hi, 7)):
                got = mzi.cross_coupling(lam, drive)
                ref = np.abs(mzi_transfer(mzi, lam, drive)[..., 1, 0]) ** 2
                assert np.shape(got) == np.shape(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


# --- coupling ratio --------------------------------------------------------

def ring_500(alpha=30.0, f=0.0):
    return RingCavity(length_um=500.0, width_nm=WIDTH, alpha_prop_dB_per_m=alpha,
                      ppln_fraction=f, poling_period_um=5.0)


def coupled(ring, mzi):
    """Device whose ring shares the coupler's dispersion model."""
    return Device(dispersion=mzi.dispersion, ring=ring, mzi=mzi)


def test_coupling_ratio_zero_coupling():
    mzi = make_mzi(k2=0.5, delta_len_um=0.0)
    # dtheta = 0 and k2=0.5 gives K=1; instead force K=0 with a zero-length DC
    dc0 = DirectionalCoupler(length_um=0.0, lc_coeffs_um=(25.0,),
                             lambda_ref_nm=1200.0, lambda_window_nm=WINDOW)
    mzi0 = MziCoupler(dc=dc0, delta_len_um=1.0, heater_len_um=100.0,
                      delta_T_K=0.0, dn_dT_per_K=3.9e-5, dispersion=mzi.dispersion,
                      width_nm=WIDTH, t_base_K=300.0)
    eta = coupling_ratio(coupled(ring_500(), mzi0), 1200.0, 350.0, delta_T_K=0.0)
    assert eta == 0.0


def test_coupling_ratio_lossless_limit():
    mzi = make_mzi(k2=0.1)
    eta = coupling_ratio(coupled(ring_500(alpha=1e-12), mzi), 1200.0, 350.0,
                         delta_T_K=10.0)
    assert eta > 1.0 - 1e-9


def test_coupling_ratio_monotone_in_cross_coupling():
    ring = ring_500(alpha=40.0)
    etas = []
    for k2 in np.linspace(0.001, 0.13, 30):
        mzi = make_mzi(k2=float(k2), delta_len_um=0.0)
        etas.append(coupling_ratio(coupled(ring, mzi), 1200.0, 350.0, delta_T_K=0.0))
    assert np.all(np.diff(etas) > 0.0)


def test_coupling_ratio_warns_beyond_weak_coupling():
    mzi = make_mzi(k2=0.5, delta_len_um=0.0)  # K = 1
    with pytest.warns(UserWarning, match="weak-coupling"):
        coupling_ratio(coupled(ring_500(), mzi), 1200.0, 350.0, delta_T_K=0.0)


def test_couplings_experiment_warns_once_beyond_weak_coupling(cfg, tmp_path):
    # a longer directional coupler pushes K past the bound over much of the
    # MZI drive sweep; the experiment reports that once, not per point
    strong = apply_overrides(cfg, ["device.dc_length_um=60.0"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment("couplings", strong, str(tmp_path))
    assert sum("weak-coupling" in str(w.message) for w in caught) == 1


@pytest.mark.parametrize("delta_T_K", [None, 0.0, 37.5])
def test_coupling_ratio_is_mode_rates_ratio(cfg, delta_T_K):
    # one kappa_ex formula: the ratio from the rates at the same drive, bit for bit
    device = build_device(cfg)
    match = find_triple_resonance(device, build_constraints(cfg))[0]
    for sol in (match.pump, match.signal, match.idler):
        if delta_T_K is None:
            kappa_ex, kappa_0 = mode_rates(device, sol.lambda_nm, match.t_ring_K)
        else:
            _, kappa_ex, kappa_0 = elements._rates(device, sol.lambda_nm, match.t_ring_K,
                                                   delta_T_K)
        eta = coupling_ratio(device, sol.lambda_nm, match.t_ring_K, delta_T_K)
        assert float(eta) == kappa_ex / (kappa_ex + kappa_0)


def test_operating_point_coupling_ratios(cfg):
    # calibrated defaults under the operating thermal drive
    device = build_device(cfg)
    match = find_triple_resonance(device, build_constraints(cfg))[0]
    assert 0.45 <= match.pump.eta <= 0.55
    assert match.signal.eta >= 0.8
    assert match.idler.eta >= 0.8


# --- ring spectrum ---------------------------------------------------------

def test_spectrum_all_pass_when_lossless():
    mzi = make_mzi(k2=0.2, delta_len_um=0.5, delta_T=5.0)
    ring = ring_500(alpha=0.0)
    lam = np.linspace(1540.0, 1560.0, 2001)
    t = ring_spectrum(coupled(ring, mzi), lam, 350.0)
    assert np.max(np.abs(t - 1.0)) < 1e-12


def test_spectrum_critical_coupling_extinction():
    model = simple_model([2.0])
    ring = ring_500(alpha=40.0)
    # kappa_ex = kappa_0  <=>  K = alpha_nepers * L (round-trip loss)
    K_target = 40.0 * math.log(10.0) / 10.0 * 500e-6
    k2 = 0.5 * (1.0 - math.sqrt(1.0 - K_target))
    mzi = make_mzi(k2=k2, delta_len_um=0.0, model=model)
    comb = resonance_combs(Device(dispersion=model, ring=ring), [(1540.0, 1560.0)], 350.0)[0]
    lam0 = comb[0][1]
    lam = np.linspace(lam0 - 0.05, lam0 + 0.05, 40001)
    t = ring_spectrum(coupled(ring, mzi), lam, 350.0)
    assert t.min() <= 1e-3


def _fwhm_hz(lam_nm, trans):
    j = int(np.argmin(trans))
    floor_t = trans.min()
    top = trans.max()
    half = 0.5 * (top + floor_t)
    left = np.nonzero(trans[:j] >= half)[0]
    right = np.nonzero(trans[j:] >= half)[0]
    a = np.interp(half, [trans[left[-1] + 1], trans[left[-1]]],
                  [lam_nm[left[-1] + 1], lam_nm[left[-1]]])
    b = np.interp(half, [trans[j + right[0] - 1], trans[j + right[0]]],
                  [lam_nm[j + right[0] - 1], lam_nm[j + right[0]]])
    return abs(freq_hz(a) - freq_hz(b))


def test_spectrum_linewidth_matches_rate_model():
    rng = np.random.default_rng(12)
    model = simple_model([2.0])
    for _ in range(10):
        alpha = rng.uniform(20.0, 60.0)
        ring = ring_500(alpha=alpha)
        k2 = rng.uniform(0.002, 0.02)
        mzi = make_mzi(k2=float(k2), delta_len_um=0.0, model=model)
        device = Device(dispersion=model, ring=ring, mzi=mzi)
        comb = resonance_combs(device, [(1540.0, 1560.0)], 350.0)[0]
        lam0 = comb[len(comb) // 2][1]
        vg = float(model.group_velocity(lam0, 350.0, WIDTH))
        kappa_ex = float(mzi.cross_coupling(lam0, delta_T_K=0.0)) * vg / ring.length_m
        kappa_0 = db_per_m_to_kappa(ring.alpha_prop_dB_per_m, vg)
        kappa_tot = kappa_ex + kappa_0
        fsr = float(model.fsr_hz(lam0, 350.0, WIDTH, ring.length_m))
        assert kappa_tot / TWO_PI < fsr / 10.0  # resolved-resonance regime
        span_nm = 12.0 * kappa_tot / TWO_PI * lam0**2 / C_M_PER_S * 1e-9
        lam = np.linspace(lam0 - span_nm, lam0 + span_nm, 30001)
        t = ring_spectrum(device, lam, 350.0)
        fwhm = _fwhm_hz(lam, t)
        assert fwhm == pytest.approx(kappa_tot / TWO_PI, rel=0.05)


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_spectrum_equals_the_stacked_transfer_formula(cfg, width):
    # ring_spectrum reads the four matrix entries without stacking them; the
    # result must keep the bits of the formula on the stacked transfer.
    device = build_device(cfg, width_nm=width)
    ring, mzi = device.ring, device.mzi
    lo, hi = device.dispersion.lambda_window_nm
    for lam in (np.linspace(lo, hi, 4001), np.linspace(1549.0, 1551.0, 7)):
        for t_K in (300.0, 350.0, 372.5):
            n = device.dispersion.n_eff(lam, t_K, ring.width_nm)
            rt = 10.0 ** (-ring.alpha_prop_dB_per_m * ring.length_m / 20.0) * np.exp(
                1j * (TWO_PI * n * ring.length_m / (lam * 1e-9)))
            m = mzi_transfer(mzi, lam)
            ref = np.abs(m[..., 0, 0] + m[..., 0, 1] * m[..., 1, 0] * rt
                         / (1.0 - m[..., 1, 1] * rt)) ** 2
            got = ring_spectrum(device, lam, t_K)
            assert got.shape == ref.shape and np.array_equal(got, ref)
            assert got.tobytes() == ref.tobytes()


# --- resonance comb --------------------------------------------------------

def test_comb_dispersionless_closed_form():
    model = simple_model([2.0], dn_dt=0.0)
    ring = RingCavity(length_um=100.0, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                      ppln_fraction=0.0, poling_period_um=5.0)
    device = Device(dispersion=model, ring=ring)
    comb = resonance_combs(device, [(950.0, 1050.0)], 350.0)[0]
    ms = dict((m, lam) for m, lam in comb)
    assert ms[200] == pytest.approx(1000.0, abs=1e-9)


def test_comb_spacing_matches_fsr(cfg):
    device = build_device(cfg, with_coupler=False)
    comb = resonance_combs(device, [(1600.0, 1646.0)], 350.0)[0]
    lams = np.array([lam for _, lam in comb])
    centers = 0.5 * (lams[1:] + lams[:-1])
    for lam_c, dlam in zip(centers, np.diff(lams)):
        fsr = float(device.dispersion.fsr_hz(lam_c, 350.0, device.width_nm,
                                             device.ring.length_m))
        expect = lam_c**2 * fsr / C_M_PER_S * 1e-9
        assert dlam == pytest.approx(expect, rel=0.01)


def test_comb_thermal_shift_first_order(cfg):
    device = build_device(cfg, with_coupler=False)
    dT = 5.0
    comb_a = resonance_combs(device, [(1615.0, 1631.0)], 340.0)[0]
    comb_b = resonance_combs(device, [(1615.0, 1631.0)], 340.0 + dT)[0]
    by_m_a = dict(comb_a)
    model = device.dispersion
    for m, lam_b in comb_b:
        if m not in by_m_a:
            continue
        lam_a = by_m_a[m]
        ng = float(model.group_index(lam_a, 340.0, device.width_nm))
        expect = lam_a * model.dn_dT_per_K * dT / ng
        assert (lam_b - lam_a) == pytest.approx(expect, rel=0.02)


def test_comb_residual_and_ordering(cfg):
    device = build_device(cfg, with_coupler=False)
    comb = resonance_combs(device, [(1340.0, 1360.0)], 372.0)[0]
    length_nm = device.ring.length_m * 1e9
    for m, lam in comb:
        n = float(device.dispersion.n_eff(lam, 372.0, device.width_nm))
        assert abs(m * lam - n * length_nm) / lam < 1e-10
    ms = [m for m, _ in comb]
    assert ms == sorted(ms, reverse=True)
    assert all(a - b == 1 for a, b in zip(ms, ms[1:]))


def test_comb_empty_narrow_band_raises(cfg):
    device = build_device(cfg, with_coupler=False)
    comb = resonance_combs(device, [(1610.0, 1640.0)], 350.0)[0]
    lams = np.array([lam for _, lam in comb])
    gap_center = 0.5 * (lams[3] + lams[4])
    with pytest.raises(NoResonance, match="narrower than one FSR"):
        resonance_combs(device, [(gap_center - 0.05, gap_center + 0.05)], 350.0)


COMB_BANDS = {"signal": (727.0, 747.0), "pump": (1613.0, 1633.0), "idler": (1340.0, 1360.0)}
COMB_TEMPS_K = (300.0, 347.25, 400.0)


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_combs_of_three_bands_equal_three_combs_in_one_solve(cfg, width, monkeypatch):
    device = build_device(cfg, width_nm=width, with_coupler=False)
    bands = list(COMB_BANDS.values())
    solves = []

    def counted(*args):
        solves.append(args)
        return solve_resonance_wavelength(*args)

    for t in COMB_TEMPS_K:
        one_by_one = [resonance_combs(device, [band], t)[0] for band in bands]
        with monkeypatch.context() as m:
            m.setattr(elements, "solve_resonance_wavelength", counted)
            assert resonance_combs(device, bands, t) == one_by_one
        assert len(solves) == 1
        solves.clear()


def test_empty_band_raises_the_same_text_through_both_calls(cfg):
    device = build_device(cfg, with_coupler=False)
    lams = [lam for _, lam in resonance_combs(device, [(1610.0, 1640.0)], 350.0)[0]]
    gap = (0.5 * (lams[3] + lams[4]) - 0.05, 0.5 * (lams[3] + lams[4]) + 0.05)
    with pytest.raises(NoResonance) as one:
        resonance_combs(device, [gap], 350.0)
    with pytest.raises(NoResonance) as many:
        resonance_combs(device, [COMB_BANDS["pump"], gap, COMB_BANDS["idler"]], 350.0)
    assert str(many.value) == str(one.value)


def _scalar_lines(device, ms, t_K):
    return {m: solve_resonance_wavelength(device, m, t_K) for m in ms}


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
@pytest.mark.parametrize("band", sorted(COMB_BANDS))
def test_comb_equals_per_line_scalar_solves(cfg, width, band):
    device = build_device(cfg, width_nm=width, with_coupler=False)
    lo, hi = COMB_BANDS[band]
    for t in COMB_TEMPS_K:
        comb = resonance_combs(device, [(lo, hi)], t)[0]
        ms = [m for m, _ in comb]
        # a few lines past each end, solved one at a time, must stay outside the band
        lines = _scalar_lines(device, range(min(ms) - 3, max(ms) + 4), t)
        expect = sorted(((m, lam) for m, lam in lines.items() if lo <= lam <= hi),
                        key=lambda p: p[1])
        assert comb == expect
        assert all(type(m) is int and type(lam) is float for m, lam in comb)


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
@pytest.mark.parametrize("band", sorted(COMB_BANDS))
def test_m_range_contains_every_in_band_line(cfg, width, band):
    device = build_device(cfg, width_nm=width, with_coupler=False)
    lo, hi = COMB_BANDS[band]
    for temps in ((300.0,), (347.25,), (300.0, 400.0), (333.0, 366.0)):
        ms = _m_range(device, [(lo, hi)], temps)[0]
        assert len(ms) > 0
        # the range from the extreme temperatures covers every temperature between
        for t in np.linspace(min(temps), max(temps), 5):
            lines = _scalar_lines(device, range(ms.start - 5, ms.stop + 5), float(t))
            inside = [m for m, lam in lines.items() if lo <= lam <= hi]
            assert inside
            assert all(m in ms for m in inside)


# --- the resonance condition on random models ------------------------------

EPS = float(np.finfo(float).eps)
BRENTQ_XTOL, BRENTQ_RTOL = 1e-12, 4.0 * EPS
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(device=random_rings(), lam0=st.floats(650.0, 1750.0), t_K=st.floats(250.0, 450.0))
def test_resonance_condition_solves_agree_on_random_models(device, lam0, t_K):
    model = device.dispersion
    length_nm = device.ring.length_m * 1e9
    m = round(float(model.n_eff(lam0, t_K, WIDTH)) * length_nm / lam0)

    def f(lam):
        return m * lam - float(model.n_eff(lam, t_K, WIDTH)) * length_nm

    assume(f(WINDOW[0]) < 0.0 < f(WINDOW[1]))
    lam_b = brentq(f, *WINDOW, xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL)
    lam_s = solve_resonance_wavelength(device, m, t_K)

    # Tolerances from the residual f = m*lam - n_eff*L.  Horner's rule for a
    # degree-d polynomial errs by at most 2d eps times the sum S of the term
    # magnitudes (sum |c_k| |u|^k, plus the thermal term), so f evaluates to
    # within delta_f = eps (m lam + (2d + 3) S L).  Near the root f' = m - n' L
    # = L n_g / lam, so a root found from float residuals sits within
    # delta_f / f' of the true root, plus eps lam for rounding lam itself.  The
    # solver's two Newton steps reach that floor (x2 for the second-order term
    # of the last step); brentq adds xtol + rtol lam to it.
    n = float(model.n_eff(lam_b, t_K, WIDTH))
    ng = float(model.group_index(lam_b, t_K, WIDTH))
    u = (lam_b - model.lambda_ref_nm) / 1000.0
    coeffs = model.coeffs_by_width[WIDTH]
    S = sum(abs(c) * abs(u) ** k for k, c in enumerate(coeffs)) \
        + abs(model.dn_dT_per_K * (t_K - model.t_ref_K))
    deg = len(coeffs) - 1
    delta_lam = EPS * (m * lam_b + (2 * deg + 3) * S * length_nm) / (length_nm * ng / lam_b)
    solver_bound = 2.0 * (delta_lam + EPS * lam_b)
    assert abs(lam_s - lam_b) <= solver_bound + delta_lam + BRENTQ_XTOL + BRENTQ_RTOL * lam_b

    # T = T_ref + (m lam / L - P(u)) / (dn/dT) moves by n_g / (lam |dn/dT|) per
    # nm of lam, and its float evaluation errs by eps (3 n + (2d + 3) S) / |dn/dT|
    # before the final division and addition, which add 2 eps T.
    dn_dt = abs(model.dn_dT_per_K)
    tol_t = (ng / lam_b * solver_bound + EPS * (3.0 * n + (2 * deg + 3) * S)) / dn_dt \
        + 2.0 * EPS * t_K
    assert abs(float(_temperature_at(device, m, lam_s)) - t_K) <= tol_t

    assert m in _m_range(device, [(lam_s, lam_s)], t_K)[0]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(device=random_rings(), lo=st.floats(*WINDOW), span=st.floats(1.0, 300.0),
       t_K=st.floats(250.0, 450.0))
def test_resonance_comb_lines_are_consecutive_roots_on_random_models(device, lo, span, t_K):
    band = (lo, min(lo + span, WINDOW[1]))
    assume(band[0] < band[1])
    try:
        pairs = resonance_combs(device, [band], t_K)[0]
    except NoResonance:
        assume(False)
    ms = [m for m, _ in pairs]
    assert ms == list(range(ms[0], ms[0] - len(ms), -1))
    lams = [lam for _, lam in pairs]
    assert all(band[0] <= lam <= band[1] for lam in lams)
    assert np.all(np.abs(resonance_residual(device, ms, lams, t_K)) <= RESIDUAL_TOL)


@pytest.mark.parametrize("m", [450, 340])
def test_non_contracting_model_raises_instead_of_a_wrong_root(m):
    # q = |n - n_g| / n reaches ~0.75 here, so the fixed point does not
    # contract: its roots land at 17025.9 nm for m = 450 (brentq: 1600.0 nm)
    # and at -7.5e131 nm for m = 340 (brentq: 1749.49 nm).
    ring = RingCavity(length_um=500.0, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                      ppln_fraction=0.0, poling_period_um=5.0)
    device = Device(dispersion=simple_model([2.0, -1.2, -0.5, 0.0]), ring=ring)
    with pytest.raises(NumericalFailure, match=f"m={m} at T=350.0 K"):
        solve_resonance_wavelength(device, m, 350.0)


# --- the root solver against its frozen array-only reference ---------------
#
# Every input, scalar or array, runs the solver's array steps.
# tests/reference_solver.py keeps a frozen copy of them: roots must keep
# their bytes and type, and errors and RuntimeWarnings their text.

def _solve_outcome(solve, device, m, t_K):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lam = solve(device, m, t_K)
            result = ("root", type(lam), np.shape(lam), np.asarray(lam).tobytes())
        except (NumericalFailure, OverflowError, ZeroDivisionError) as exc:
            result = ("error", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same_solve(device, m, t_K):
    got = _solve_outcome(solve_resonance_wavelength, device, m, t_K)
    assert got == _solve_outcome(reference_solver.solve_resonance_wavelength, device, m, t_K)
    return got[0]


def _line_near(device, lam, t_K):
    return round(float(device.dispersion.n_eff(lam, t_K, WIDTH)) * device.ring.length_m * 1e9 / lam)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(device=random_rings(), lam0=st.floats(*WINDOW), t_K=st.floats(250.0, 450.0),
       offsets=st.lists(st.integers(-40, 40), min_size=1, max_size=6),
       temps=st.lists(st.floats(250.0, 450.0), min_size=1, max_size=5))
def test_solver_keeps_the_bits_of_the_array_reference_on_random_models(
        device, lam0, t_K, offsets, temps):
    m = _line_near(device, lam0, t_K)
    ms = [m + d for d in offsets]
    for m_k in ms:
        _assert_same_solve(device, m_k, t_K)          # Python int and float T
        _assert_same_solve(device, float(m_k), int(t_K))
        _assert_same_solve(device, np.int64(m_k), np.float64(t_K))
    _assert_same_solve(device, np.array(ms), t_K)      # 1-D m
    _assert_same_solve(device, m, np.array(temps))     # 1-D T
    _assert_same_solve(device, np.array(ms, dtype=float)[:, None], np.array(temps))  # (m, T)
    _assert_same_solve(device, np.asarray(float(m)), np.asarray(t_K))  # 0-d arrays


@pytest.mark.parametrize("m", [450, 340, 600, 900.5])
def test_solver_failures_keep_the_text_of_the_array_reference(m):
    # The non-contracting model of the test above: the solver fails its
    # residual check and raises the reference's text.
    ring = RingCavity(length_um=500.0, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                      ppln_fraction=0.0, poling_period_um=5.0)
    device = Device(dispersion=simple_model([2.0, -1.2, -0.5, 0.0]), ring=ring)
    for args in ((m, 350.0), (np.int64(m), 300), (np.array([m, 700]), 350.0)):
        kind = _assert_same_solve(device, *args)[0]
        if m in (450, 340):
            assert kind == "error"


@pytest.mark.parametrize("m", [0, -1, 0.5, 1e-310, 5e-324, 1e300, 1.7e308, math.inf,
                               -math.inf, math.nan, 10**400, True, 2**63])
@pytest.mark.parametrize("t_K", [350.0, -1e308, 1e308, math.inf, math.nan, 1e20])
def test_solver_edge_inputs_keep_the_outcome_of_the_array_reference(m, t_K):
    # Values on which numpy warns (overflow, invalid, divide) or the root
    # fails: the warnings, errors and roots are the reference's.
    for length_um, coeffs in ((628.3, [2.0, -0.1, 0.05, 0.01]), (1e300, [2.0]),
                              (1e-3, [2.0, 0.3])):
        ring = RingCavity(length_um=length_um, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                          ppln_fraction=0.0, poling_period_um=5.0)
        _assert_same_solve(Device(dispersion=simple_model(coeffs), ring=ring), m, t_K)


def test_solver_hands_a_hidden_overflow_or_a_zero_slope_to_the_array_steps():
    ring = RingCavity(length_um=1e-3, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                      ppln_fraction=0.0, poling_period_um=5.0)
    # The seed 2 L / m overflows (numpy warns) and the clip hides it; at
    # n_eff = 1.5 every later value is finite and the root passes its check.
    assert _assert_same_solve(Device(dispersion=simple_model([1.5]), ring=ring),
                              ring.length_m * 1e9 / 1e308, 350.0)[0] == "root"
    # With dn/dlambda * L equal to m the Newton slope is exactly 0: numpy
    # divides by zero and warns, with the reference's text.
    ring = RingCavity(length_um=628.3, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                      ppln_fraction=0.0, poling_period_um=5.0)
    m = 0.3 / 1000.0 * (ring.length_m * 1e9)
    _assert_same_solve(Device(dispersion=simple_model([2.0, 0.3]), ring=ring), m, 350.0)


# --- QPM -------------------------------------------------------------------

def test_qpm_mismatch_arithmetic():
    assert qpm_mismatch(2000, 800, 1100, 100) == 0
    assert qpm_mismatch(2000, 800, 1100, 101) == -1
    # swapping pump and idler preserves the mismatch
    assert qpm_mismatch(2000, 1100, 800, 100) == 0


def test_poling_offset_rounding_warns():
    with pytest.warns(UserWarning, match="poling-compensated"):
        RingCavity(length_um=500.0, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                   ppln_fraction=0.45, poling_period_um=1.0003)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        RingCavity(length_um=500.0, width_nm=WIDTH, alpha_prop_dB_per_m=30.0,
                   ppln_fraction=0.0, poling_period_um=5.0)


def _ring(**change):
    return RingCavity(**{"length_um": 500.0, "width_nm": WIDTH, "alpha_prop_dB_per_m": 30.0,
                         "ppln_fraction": 0.0, "poling_period_um": 5.0, **change})


def _cubic_ring_device():
    # n_g peaks at 1200 nm, so [1108, 1248.5] nm spans one FSR at its centre but
    # lies between the m = 9 and m = 8 lines of a 5 um ring.
    return Device(dispersion=simple_model([2.0, 0.0, 0.0, 12.0], window=(1000.0, 1400.0)),
                  ring=_ring(length_um=5.0))


@pytest.mark.parametrize("make, exc, message", [
    (lambda: DirectionalCoupler(length_um=-1.0, lc_coeffs_um=(25.0,), lambda_ref_nm=1200.0,
                                lambda_window_nm=WINDOW),
     DomainError, r"^coupler interaction length must be >= 0$"),
    (lambda: _ring(ppln_fraction=1.5), DomainError, r"^ppln_fraction must lie in \[0, 1\]$"),
    (lambda: _ring(poling_period_um=0.0), DomainError, r"^poling period must be positive$"),
    (lambda: _ring(alpha_prop_dB_per_m=-1.0), DomainError, r"^propagation loss must be >= 0$"),
    (lambda: ring_spectrum(Device(dispersion=simple_model([2.0]), ring=_ring()), [1550.0], 350.0),
     DomainError, r"^spectrum needs at least 2 wavelength samples$"),
    (lambda: resonance_combs(Device(dispersion=simple_model([2.0]), ring=_ring()),
                             [(1500.0, 1400.0)], 350.0),
     DomainError, r"^empty wavelength band \(1500.0, 1400.0\)$"),
    (lambda: resonance_combs(_cubic_ring_device(), [(1108.0, 1248.5)], 350.0),
     NoResonance, r"^band \[1108.0, 1248.5\] nm contains no resonance$"),
], ids=["coupler-length", "ppln-fraction", "poling-period", "propagation-loss",
        "one-sample-spectrum", "empty-band", "band-of-one-fsr-without-a-line"])
def test_element_refusals(make, exc, message):
    with pytest.raises(exc, match=message):
        make()

