"""Triple-resonance search: planted solutions, oracle equivalence, verification."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfcring import matching
from qfcring.builders import build_constraints, build_device, operating_point
from qfcring.config import apply_overrides
from qfcring.constants import C_M_PER_S, TWO_PI
from qfcring.elements import Device, _m_range, solve_resonance_wavelength
from qfcring.errors import (
    NoFeasibleMatch,
    OutOfDomain,
    QfcError,
    StaleResult,
    SweepStepTooCoarse,
)
from qfcring.matching import (
    SearchConstraints,
    _signal_bracket,
    companion_detuning,
    find_triple_resonance,
    sweep_step_K,
    verify_match,
)

from conftest import (
    WIDTH,
    oracle_fixture_best,
    oracle_fixtures,
    planted_fixture_a,
    planted_fixture_curved,
    random_rings,
    simple_model,
)


def test_planted_dispersionless_solution_recovered():
    device, constraints, planted = planted_fixture_a()
    results = find_triple_resonance(device, constraints)
    best = results[0]
    assert (best.signal.m, best.pump.m, best.idler.m) == planted["m"]
    assert best.t_ring_K == pytest.approx(planted["t_ring_K"], abs=1e-9)
    assert abs(best.signal_detuning_Hz) < 1e3
    assert abs(best.mismatch_Hz) < 1e3
    assert best.qpm_mismatch == 0


def test_planted_curved_solution_and_tightened_bound():
    device, constraints, planted = planted_fixture_curved()
    best = find_triple_resonance(device, constraints)[0]
    assert (best.signal.m, best.pump.m, best.idler.m) == planted["m"]
    assert best.mismatch_Hz == pytest.approx(planted["mismatch_Hz"], abs=2e4)

    tight = dataclasses.replace(constraints,
                                max_mismatch_Hz=abs(planted["mismatch_Hz"]) / 5.0)
    with pytest.raises(NoFeasibleMatch) as err:
        find_triple_resonance(device, tight)
    assert any("mismatch" in v for v in err.value.violations)
    cand = err.value.best_candidate
    assert cand is not None and not cand.feasible
    assert (cand.signal.m, cand.pump.m, cand.idler.m) == planted["m"]

    # Without QPM every in-window pair competes; the near miss is the pair of
    # least mismatch, not the first pair in (pump, idler) order.
    with pytest.raises(NoFeasibleMatch) as err:
        find_triple_resonance(device, dataclasses.replace(tight, require_qpm=False))
    cand = err.value.best_candidate
    assert (cand.signal.m, cand.pump.m, cand.idler.m) == planted["m"]
    assert cand.pump.kappa_0 > 0.0 and err.value.violations == list(cand.violations)


def test_near_miss_names_a_sub_MHz_bound():
    # a bound below 0.05 MHz must not print as "0.0 MHz"
    device, constraints, _ = planted_fixture_curved()
    with pytest.raises(NoFeasibleMatch) as err:
        find_triple_resonance(device, dataclasses.replace(constraints, max_mismatch_Hz=1e4))
    (violation,) = err.value.violations
    assert violation.endswith(" MHz exceeds 0.01 MHz")
    assert violation in str(err.value)


def test_accepted_matches_satisfy_all_constraints():
    for device, constraints, _ in oracle_fixtures():
        for res in find_triple_resonance(device, constraints):
            assert abs(res.signal_detuning_Hz) <= constraints.max_signal_detuning_Hz
            assert abs(res.mismatch_Hz) <= constraints.max_mismatch_Hz
            p_lo, p_hi = constraints.pump_window_nm
            i_lo, i_hi = constraints.idler_window_nm
            assert p_lo <= res.pump.lambda_nm <= p_hi
            assert i_lo <= res.idler.lambda_nm <= i_hi
            assert res.qpm_mismatch == 0
            # energy bookkeeping re-derivable from the stored wavelengths
            rederived = (res.signal.freq_hz - res.pump.freq_hz - res.idler.freq_hz)
            assert rederived == pytest.approx(res.mismatch_Hz,
                                              abs=1e-12 * res.signal.freq_hz)


def test_oracle_equivalence_on_fixtures():
    for k, (device, constraints, _) in enumerate(oracle_fixtures()):
        coarse = find_triple_resonance(device, constraints)[0]
        oracle = oracle_fixture_best(k)
        assert oracle is not None
        t_o, m_o, det_o, delta_o = oracle
        assert (coarse.signal.m, coarse.pump.m, coarse.idler.m) == m_o
        assert abs(coarse.t_ring_K - t_o) <= constraints.t_step_K
        # residual drift within one fine-grid step of temperature motion
        rate = coarse.signal.freq_hz * 3.9e-5 / 2.2
        assert abs(coarse.signal_detuning_Hz - det_o) <= rate * constraints.t_step_K
        assert abs(coarse.mismatch_Hz - delta_o) <= rate * constraints.t_step_K


def test_determinism():
    device, constraints, _ = planted_fixture_curved()
    a = find_triple_resonance(device, constraints)
    b = find_triple_resonance(device, constraints)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.t_ring_K == y.t_ring_K
        assert x.mismatch_Hz == y.mismatch_Hz
        assert x.signal_detuning_Hz == y.signal_detuning_Hz


def test_sweep_step_guard():
    device, constraints, _ = planted_fixture_a()
    coarse = dataclasses.replace(constraints, t_step_K=1.0)
    with pytest.raises(SweepStepTooCoarse):
        find_triple_resonance(device, coarse)


def test_out_of_domain_band():
    device, constraints, _ = planted_fixture_a()
    bad = dataclasses.replace(constraints, pump_base_nm=2500.0)
    with pytest.raises(OutOfDomain):
        find_triple_resonance(device, bad)


def test_coverage_warning_when_sweep_too_narrow():
    device, constraints, _ = planted_fixture_a()
    narrow = dataclasses.replace(constraints, t_min_K=349.0, t_max_K=351.0)
    with pytest.warns(UserWarning, match="less than one FSR"):
        find_triple_resonance(device, narrow)


def test_verify_match_round_trip_and_tamper():
    curved, curved_constraints, _ = planted_fixture_curved()
    flat, flat_constraints, _ = planted_fixture_a()
    # Lines that do not move with T: dn/dT = 0.
    flat = dataclasses.replace(flat, dispersion=simple_model([2.0], dn_dt=0.0))
    for device, constraints in ((curved, curved_constraints), (flat, flat_constraints)):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "sweep range covers", UserWarning)
            best = find_triple_resonance(device, constraints)[0]
        report = verify_match(device, best)
        assert report["qpm_mismatch"] == 0

        tampered = dataclasses.replace(
            best, pump=dataclasses.replace(best.pump, m=best.pump.m + 1))
        with pytest.raises(StaleResult):
            verify_match(device, tampered)


def test_verify_match_catches_shifted_solver(monkeypatch):
    # A solver whose roots are all 1e-4 nm long (~7 mK of ring temperature)
    # still yields a match; the stored lines' resonance residuals, taken
    # from raw dispersion in closed form, notice.
    device, constraints, _ = planted_fixture_curved()

    def shifted(*args):
        return solve_resonance_wavelength(*args) + 1e-4

    monkeypatch.setattr(matching, "solve_resonance_wavelength", shifted)
    best = find_triple_resonance(device, constraints)[0]
    with pytest.raises(StaleResult, match="closed form"):
        verify_match(device, best)


@pytest.mark.parametrize("role", ["pump", "idler"])
def test_verify_match_catches_a_wrong_pump_or_idler_root(monkeypatch, role):
    # Only this role's roots are 1e-4 nm long (11.5 MHz on the pump); the
    # signal line, and with it the ring temperature, stays exact.
    device, constraints, _ = planted_fixture_curved()
    t_ends = (constraints.t_min_K, constraints.t_max_K)
    role_ms = np.asarray(_m_range(device, getattr(constraints, f"{role}_window_nm"), t_ends))

    def shifted(device, m, t_K):
        return solve_resonance_wavelength(device, m, t_K) + 1e-4 * np.isin(m, role_ms)

    monkeypatch.setattr(matching, "solve_resonance_wavelength", shifted)
    best = find_triple_resonance(device, constraints)[0]
    with pytest.raises(StaleResult, match=f"^{role} line m={getattr(best, role).m} "):
        verify_match(device, best)


def test_verify_step_independence():
    device, constraints, _ = planted_fixture_curved()
    fine = dataclasses.replace(constraints, t_step_K=constraints.t_step_K / 2.0)
    best_coarse = find_triple_resonance(device, constraints)[0]
    best_fine = find_triple_resonance(device, fine)[0]
    assert (best_coarse.signal.m, best_coarse.pump.m, best_coarse.idler.m) == \
        (best_fine.signal.m, best_fine.pump.m, best_fine.idler.m)
    verify_match(device, best_coarse)
    verify_match(device, best_fine)


# --- closed-form signal bracket --------------------------------------------

def _bracket_and_full_grid_hits(device, constraints):
    """The bracket's kept mask and the full-grid signal hits, solved per line."""
    step = sweep_step_K(device, constraints)
    span = constraints.t_max_K - constraints.t_min_K
    t_grid = constraints.t_min_K + step * np.arange(int(math.floor(span / step + 1e-9)) + 1)
    target = constraints.signal_wavelength_nm
    m_s_list = _m_range(device, (target, target), (constraints.t_min_K, constraints.t_max_K))
    keep = _signal_bracket(device, constraints, m_s_list, t_grid, step)
    lam = np.array([solve_resonance_wavelength(device, float(m), t_grid) for m in m_s_list])
    det = np.abs(C_M_PER_S / (lam * 1e-9) - constraints.signal_target_hz)
    hits = det.min(axis=0) <= constraints.max_signal_detuning_Hz
    return keep, hits


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_bracket_covers_full_grid_hits_packaged_widths(cfg, width):
    device = build_device(cfg, width_nm=width, with_coupler=False)
    base = build_constraints(cfg)
    for t_min, t_max in ((300.0, 400.0), (333.0, 366.0), (341.5, 350.5), (345.0, 400.0)):
        for t_step in (None, 2e-3, 13e-3):
            cons = dataclasses.replace(base, t_min_K=t_min, t_max_K=t_max, t_step_K=t_step)
            keep, hits = _bracket_and_full_grid_hits(device, cons)
            assert np.any(hits)
            assert np.all(keep[hits])
            assert np.count_nonzero(keep) < keep.size // 20
    keep, _ = _bracket_and_full_grid_hits(device, base)
    assert np.count_nonzero(keep) < keep.size // 100


def test_bracket_covers_full_grid_hits_fixtures():
    for device, constraints, _ in oracle_fixtures():
        keep, hits = _bracket_and_full_grid_hits(device, constraints)
        assert np.any(hits)
        assert np.all(keep[hits])


def test_bracket_covers_full_grid_hits_negative_dn_dT():
    device, constraints, _ = planted_fixture_curved()
    coeffs = device.dispersion.coeffs_by_width[WIDTH]
    model = simple_model(coeffs, dn_dt=-3.9e-5)
    cooled = Device(dispersion=model, ring=device.ring)
    wide = dataclasses.replace(constraints, t_min_K=constraints.t_min_K - 30.0,
                               t_max_K=constraints.t_max_K + 30.0)
    keep, hits = _bracket_and_full_grid_hits(cooled, wide)
    assert np.any(hits)
    assert np.all(keep[hits])
    assert not np.all(keep)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(device=random_rings(), target_nm=st.floats(700.0, 1700.0),
       t_min=st.floats(250.0, 449.0), span=st.floats(1.0, 60.0),
       step_mK=st.floats(1.0, 20.0), tol_MHz=st.floats(50.0, 2000.0))
def test_bracket_covers_full_grid_hits_on_random_models(device, target_nm, t_min, span,
                                                        step_mK, tol_MHz):
    assume(t_min + span <= 450.0)
    constraints = SearchConstraints(signal_wavelength_nm=target_nm,
                                    max_signal_detuning_Hz=tol_MHz * 1e6,
                                    t_min_K=t_min, t_max_K=t_min + span,
                                    t_step_K=step_mK * 1e-3)
    try:
        keep, hits = _bracket_and_full_grid_hits(device, constraints)
    except QfcError:
        assume(False)
    assert np.all(keep[hits])


@pytest.mark.parametrize("dn_dt", [0.0, -0.0])
def test_bracket_falls_back_to_full_grid_without_thermo_optic_shift(dn_dt):
    # dn/dT vanishes, so the target line sits on the target at every T and
    # every point hits.
    device, constraints, planted = planted_fixture_curved()
    coeffs = device.dispersion.coeffs_by_width[WIDTH]
    still = Device(dispersion=simple_model(coeffs, dn_dt=dn_dt), ring=device.ring)
    on_comb = solve_resonance_wavelength(still, planted["m"][0], 350.0)
    # None: the adaptive step, which spans the range when the lines stand still.
    for t_step in (constraints.t_step_K, None):
        keep, hits = _bracket_and_full_grid_hits(still, dataclasses.replace(
            constraints, signal_wavelength_nm=on_comb, t_step_K=t_step))
        assert np.all(hits)
        assert np.all(keep)


# --- operating point and companion detuning --------------------------------

@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_verified_sweep_equals_direct_sweep(cfg, width):
    device, matches = operating_point(cfg, width_nm=width)
    assert device == build_device(cfg, width_nm=width)
    direct = find_triple_resonance(device, build_constraints(cfg))
    assert [m.as_dict() for m in matches] == [m.as_dict() for m in direct]


def test_sweep_propagates_infeasible_width(cfg):
    impossible = apply_overrides(cfg, ["constraints.max_mismatch_MHz=1.0e-9"])
    for width in (1400.0, 1500.0):
        with pytest.raises(NoFeasibleMatch):
            operating_point(impossible, width_nm=width)


def test_sweep_companion_from_table_for_default_window(cfg):
    # The comb line leaves the packaged window, so the companion comes from the
    # config's table (test_builders covers that path).
    device, matches = operating_point(cfg)
    assert companion_detuning(device, matches[0]) is None


def test_companion_comb_path_wide_window():
    # model window wide enough to contain 2*w_p - w_i
    device, constraints, _ = planted_fixture_curved()
    model = simple_model([2.0, 0.0, device.dispersion.coeffs_by_width[WIDTH][2]],
                         window=(600.0, 2400.0))
    wide = Device(dispersion=model, ring=device.ring)
    match = find_triple_resonance(wide, constraints)[0]
    got = companion_detuning(wide, match)
    assert got is not None
    # long-range second difference of the strongly curved comb: THz scale
    assert 0.0 < abs(got) / TWO_PI < 2e13
