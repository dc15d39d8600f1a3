"""Triple-resonance search: planted solutions, oracle equivalence, verification."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfcring import matching
from qfcring.builders import (CalibrationDrift, build_constraints, build_device,
                              fwm_channel_at, operating_point)
from qfcring.config import apply_overrides, width_key
from qfcring.constants import C_M_PER_S, TWO_PI, freq_hz
from qfcring.dispersion import DispersionModel
from qfcring.elements import Device, _m_range, solve_resonance_wavelength
from qfcring.errors import (
    NoFeasibleMatch,
    OutOfDomain,
    QfcError,
    StaleResult,
    SweepStepTooCoarse,
)
from qfcring.experiments import run_experiment
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
    partial_sweep,
    planted_fixture_a,
    planted_fixture_curved,
    random_rings,
    simple_model,
)


def test_planted_dispersionless_solution_recovered():
    device, constraints, planted = planted_fixture_a()
    with partial_sweep():
        results = find_triple_resonance(device, constraints)
    best = results[0]
    assert (best.signal.m, best.pump.m, best.idler.m) == planted["m"]
    assert best.t_ring_K == pytest.approx(planted["t_ring_K"], abs=1e-9)
    assert abs(best.signal_detuning_Hz) < 1e3
    assert abs(best.mismatch_Hz) < 1e3
    assert best.qpm_mismatch == 0


def test_planted_curved_solution_and_tightened_bound():
    device, constraints, planted = planted_fixture_curved()
    with partial_sweep():
        best = find_triple_resonance(device, constraints)[0]
    assert (best.signal.m, best.pump.m, best.idler.m) == planted["m"]
    assert best.mismatch_Hz == pytest.approx(planted["mismatch_Hz"], abs=2e4)

    tight = dataclasses.replace(constraints,
                                max_mismatch_Hz=abs(planted["mismatch_Hz"]) / 5.0)
    with partial_sweep(), pytest.raises(NoFeasibleMatch) as err:
        find_triple_resonance(device, tight)
    assert "best candidate violates: mismatch " in str(err.value)
    cand = err.value.best_candidate
    assert cand is not None
    assert (cand.signal.m, cand.pump.m, cand.idler.m) == planted["m"]

    # Without QPM every in-window pair competes; the near miss is the pair of
    # least mismatch, not the first pair in (pump, idler) order.
    with partial_sweep(), pytest.raises(NoFeasibleMatch) as err:
        find_triple_resonance(device, dataclasses.replace(tight, require_qpm=False))
    cand = err.value.best_candidate
    assert (cand.signal.m, cand.pump.m, cand.idler.m) == planted["m"]
    assert cand.pump.kappa_0 > 0.0
    assert str(err.value).split("violates: ")[1].split()[0] == "mismatch"


def test_near_miss_names_a_sub_MHz_bound():
    # a bound below 0.05 MHz must not print as "0.0 MHz"
    device, constraints, _ = planted_fixture_curved()
    with partial_sweep(), pytest.raises(NoFeasibleMatch) as err:
        find_triple_resonance(device, dataclasses.replace(constraints, max_mismatch_Hz=1e4))
    assert str(err.value).endswith(" MHz exceeds 0.01 MHz")


def test_a_sweep_that_qpm_alone_refuses_names_qpm(cfg):
    # A poled fraction of 0 makes M = 0: the sweep has signal hits with pump
    # and idler lines inside their windows, and no pair meets M = 0.
    run = apply_overrides(cfg, ["device.ppln_fraction=0"])
    with pytest.raises(NoFeasibleMatch) as err:
        find_triple_resonance(build_device(run, with_coupler=False), build_constraints(run))
    assert str(err.value) == ("no pump/idler pair inside their windows is quasi-phase matched "
                              "at any signal hit: m_s - m_p - m_i never equals the poling "
                              "offset M = 0")
    assert err.value.best_candidate is None and err.value.exit_code == 3
    free = apply_overrides(run, ["constraints.require_qpm=false"])
    assert find_triple_resonance(build_device(free, with_coupler=False), build_constraints(free))


def test_signal_tolerance_must_stay_below_the_target_frequency():
    f_t = freq_hz(737.0)
    assert SearchConstraints(max_signal_detuning_Hz=math.nextafter(f_t, 0.0))
    for tol in (f_t, 1e15, math.inf):
        with pytest.raises(ValueError, match="must be below the target frequency"):
            SearchConstraints(max_signal_detuning_Hz=tol)
    # a target with no frequency is left to the sweep's window check
    for lam in (0.0, -5.0, 1e-320):
        assert SearchConstraints(signal_wavelength_nm=lam)


def test_accepted_matches_satisfy_all_constraints():
    for device, constraints, _ in oracle_fixtures():
        with partial_sweep():
            results = find_triple_resonance(device, constraints)
        for res in results:
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
        with partial_sweep():
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
    with partial_sweep():
        a = find_triple_resonance(device, constraints)
    with partial_sweep():
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


def test_sweep_step_text_names_half_the_tolerance_in_MHz():
    device, constraints, _ = planted_fixture_a()
    coarse = dataclasses.replace(constraints, t_step_K=1.0, max_signal_detuning_Hz=3.0e6)
    with pytest.raises(SweepStepTooCoarse, match=r"> tolerance/2 = 1\.5 MHz$"):
        find_triple_resonance(device, coarse)


def test_out_of_domain_band():
    device, constraints, _ = planted_fixture_a()
    bad = dataclasses.replace(constraints, pump_base_nm=2500.0)
    with pytest.raises(OutOfDomain):
        find_triple_resonance(device, bad)


def test_coverage_warning_when_sweep_too_narrow():
    device, constraints, _ = planted_fixture_a()
    narrow = dataclasses.replace(constraints, t_min_K=349.0, t_max_K=351.0)
    with pytest.warns(UserWarning, match="less than one FSR") as caught:
        find_triple_resonance(device, narrow)
    # the 2 K sweep's signal shift and the signal FSR at the sweep's centre
    shift_GHz = 2.0 * matching._signal_tuning(device, narrow)[1] / 1e9
    fsr_GHz = device.dispersion.fsr_hz(narrow.signal_wavelength_nm, 350.0, device.width_nm,
                                       device.ring.length_m) / 1e9
    assert [str(w.message) for w in caught] == [
        f"sweep range covers {shift_GHz:.1f} GHz of signal shift, less than one FSR "
        f"({fsr_GHz:.1f} GHz); coverage is incomplete"]
    assert 0.1 < shift_GHz < fsr_GHz / 10.0


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_one_signal_group_index_per_sweep(cfg, width, monkeypatch):
    # The step, the shift rate and the coverage warning's FSR share one n_g.
    device = build_device(cfg, width_nm=width, with_coupler=False)
    constraints = build_constraints(cfg)
    signal_at = (constraints.signal_wavelength_nm,
                 0.5 * (constraints.t_min_K + constraints.t_max_K))
    calls = []
    group_index = DispersionModel.group_index

    def spy(self, lambda_nm, t_K, width_nm):
        calls.append((lambda_nm, t_K))
        return group_index(self, lambda_nm, t_K, width_nm)

    monkeypatch.setattr(DispersionModel, "group_index", spy)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "sweep range covers", UserWarning)
        find_triple_resonance(device, constraints)
    assert [c for c in calls if np.shape(c[0]) == () and c == signal_at] == [signal_at]


@pytest.mark.parametrize("step_mK", [0.0, 7.0])
def test_recorded_sweep_step_is_the_step_the_sweep_used(cfg, step_mK, tmp_path, monkeypatch):
    used = []
    bracket = matching._signal_bracket

    def spy(device, constraints, m_s_list, t_grid, step):
        used.append(step)
        return bracket(device, constraints, m_s_list, t_grid, step)

    monkeypatch.setattr(matching, "_signal_bracket", spy)
    run_experiment("match", apply_overrides(cfg, [f"constraints.t_step_mK={step_mK}"]),
                   str(tmp_path))
    record = json.loads((tmp_path / "match.json").read_text())
    assert len(used) == 1
    assert record["sweep_step_mK"] == used[0] * 1e3
    if step_mK:
        assert used[0] == step_mK * 1e-3


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

        # Each stored field is re-derived: 1 MHz is past RESIDUAL_TOL * f_s (~0.41 MHz).
        cases = [
            ("^pump line", device, dataclasses.replace(
                best, pump=dataclasses.replace(best.pump, m=best.pump.m + 1))),
            ("^signal detuning re-derives", device, dataclasses.replace(
                best, signal_detuning_Hz=best.signal_detuning_Hz + 1e6)),
            ("^mismatch re-derives", device, dataclasses.replace(
                best, mismatch_Hz=best.mismatch_Hz + 1e6)),
            ("^QPM mismatch re-derives to 0, stored 1", device, dataclasses.replace(
                best, qpm_mismatch=best.qpm_mismatch + 1)),
        ]
        ring = device.ring
        if ring.ppln_fraction > 0.0:  # the curved fixture's poled section
            # One more poling period per ring: every line stays, M grows by one.
            repoled = dataclasses.replace(device, ring=dataclasses.replace(
                ring, poling_period_um=ring.ppln_fraction * ring.length_um
                / (ring.m_offset + 1)))
            cases.append(("^QPM mismatch re-derives to -1, stored 0", repoled, best))
        for field, on, stored in cases:
            with pytest.raises(StaleResult, match=field):
                verify_match(on, stored)


def test_verify_match_catches_shifted_solver(monkeypatch):
    # A solver whose roots are all 1e-4 nm long (~7 mK of ring temperature)
    # still yields a match; the stored lines' resonance residuals, taken
    # from raw dispersion in closed form, notice.
    device, constraints, _ = planted_fixture_curved()

    def shifted(*args):
        return solve_resonance_wavelength(*args) + 1e-4

    monkeypatch.setattr(matching, "solve_resonance_wavelength", shifted)
    with partial_sweep():
        best = find_triple_resonance(device, constraints)[0]
    with pytest.raises(StaleResult, match="closed form"):
        verify_match(device, best)


@pytest.mark.parametrize("role", ["pump", "idler"])
def test_verify_match_catches_a_wrong_pump_or_idler_root(monkeypatch, role):
    # Only this role's roots are 1e-4 nm long (11.5 MHz on the pump); the
    # signal line, and with it the ring temperature, stays exact.
    device, constraints, _ = planted_fixture_curved()
    t_ends = (constraints.t_min_K, constraints.t_max_K)
    role_ms = np.asarray(
        _m_range(device, [getattr(constraints, f"{role}_window_nm")], t_ends)[0])

    def shifted(device, m, t_K):
        return solve_resonance_wavelength(device, m, t_K) + 1e-4 * np.isin(m, role_ms)

    monkeypatch.setattr(matching, "solve_resonance_wavelength", shifted)
    with partial_sweep():
        best = find_triple_resonance(device, constraints)[0]
    with pytest.raises(StaleResult, match=f"^{role} line m={getattr(best, role).m} "):
        verify_match(device, best)


def test_verify_step_independence():
    device, constraints, _ = planted_fixture_curved()
    fine = dataclasses.replace(constraints, t_step_K=constraints.t_step_K / 2.0)
    with partial_sweep():
        best_coarse = find_triple_resonance(device, constraints)[0]
    with partial_sweep():
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
    m_s_list, = _m_range(device, [(target, target)], (constraints.t_min_K, constraints.t_max_K))
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
    assert list(matches) == direct


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_a_sweep_solves_every_line_in_one_call(cfg, monkeypatch, width):
    device = build_device(cfg, width_nm=width, with_coupler=False)
    constraints = build_constraints(cfg)
    calls = []

    def spy(dev, m, t_K):
        calls.append((np.shape(m), np.shape(t_K)))
        return solve_resonance_wavelength(dev, m, t_K)

    monkeypatch.setattr(matching, "solve_resonance_wavelength", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert find_triple_resonance(device, constraints)
    t_ends = (constraints.t_min_K, constraints.t_max_K)
    target = constraints.signal_wavelength_nm
    n_lines = sum(len(r) for r in _m_range(device, [
        (target, target), constraints.pump_window_nm, constraints.idler_window_nm], t_ends))
    assert len(calls) == 1
    (m_shape, t_shape), = calls
    assert m_shape == (n_lines, 1) and len(t_shape) == 1 and t_shape[0] > 0


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
    with partial_sweep():
        match = find_triple_resonance(wide, constraints)[0]
    got = companion_detuning(wide, match)
    assert got is not None
    # long-range second difference of the strongly curved comb: THz scale
    assert 0.0 < abs(got) / TWO_PI < 2e13


FAR_COMPANION = ["constraints.pump_base_wavelength_nm=1680",
                 "constraints.idler_base_wavelength_nm=1313.0",
                 "constraints.require_qpm=false", "constraints.half_window_nm=15",
                 "constraints.max_mismatch_MHz=50000"]


def test_far_out_companion_falls_back_to_the_table(cfg):
    # The companion's m = 2 m_p - m_i lies far outside the window's mode
    # numbers; its root solve diverges (NaN residual), so it must not run.
    run = apply_overrides(cfg, FAR_COMPANION)
    with pytest.warns(CalibrationDrift, match="pump eta 0.0112 misses its calibration target"):
        device, matches = operating_point(run)
    m_comp = 2 * matches[0].pump.m - matches[0].idler.m
    assert m_comp not in _m_range(device, [device.dispersion.lambda_window_nm],
                                  matches[0].t_ring_K)[0]
    assert companion_detuning(device, matches[0]) is None
    channel, source = fwm_channel_at(run, device, matches[0])
    assert source == "table"
    table = run["physics"]["fwm_companion_detuning_THz_by_width"]
    assert channel.delta_comp == TWO_PI * float(table[width_key(device.width_nm)]) * 1e12


# --- pairing oracle ----------------------------------------------------------

def _reference_scan(device, constraints, t_points, m_s_list, m_p_list, m_i_list, m_offset,
                    hits=None):
    """matching._scan as a loop over hit temperatures, one (pump, idler) grid each.

    The independent reference of the one-pass pairing.  hits, when given,
    collects the number of hit temperatures of each call.
    """
    tol_s = constraints.max_signal_detuning_Hz
    tol_d = constraints.max_mismatch_Hz
    p_lo, p_hi = constraints.pump_window_nm
    i_lo, i_hi = constraints.idler_window_nm

    m_s_arr, m_p_arr, m_i_arr = (np.asarray(ms) for ms in (m_s_list, m_p_list, m_i_list))
    lam_s = solve_resonance_wavelength(device, m_s_arr[:, None], t_points)
    det_s = freq_hz(lam_s) - constraints.signal_target_hz
    pick = np.argmin(np.abs(det_s), axis=0)
    cols = np.arange(t_points.size)
    det_best = det_s[pick, cols]
    hit = np.abs(det_best) <= tol_s
    if hits is not None:
        hits.append(int(np.count_nonzero(hit)))
    if not np.any(hit):
        return [], None, False

    t_hit = t_points[hit]
    m_s_hit = m_s_arr[pick[hit]]
    lam_s_hit = lam_s[pick[hit], cols[hit]]
    det_hit = det_best[hit]

    lam_p = solve_resonance_wavelength(device, m_p_arr[:, None], t_hit)
    lam_i = solve_resonance_wavelength(device, m_i_arr[:, None], t_hit)
    f_p, f_i = freq_hz(lam_p), freq_hz(lam_i)
    in_p = (lam_p >= p_lo) & (lam_p <= p_hi)
    in_i = (lam_i >= i_lo) & (lam_i <= i_hi)

    feasible, near, near_score, paired = [], None, None, False
    for h in range(t_hit.size):
        f_s_h = freq_hz(lam_s_hit[h])
        delta = f_s_h - np.add.outer(f_p[:, h], f_i[:, h])
        window_ok = np.logical_and.outer(in_p[:, h], in_i[:, h])
        paired = paired or bool(np.any(window_ok))
        qpm = int(m_s_hit[h]) - np.add.outer(m_p_arr, m_i_arr) - m_offset
        qpm_ok = (qpm == 0) if constraints.require_qpm else np.ones_like(qpm, bool)
        base = window_ok & qpm_ok
        if not np.any(base):
            continue
        ok = base & (np.abs(delta) <= tol_d)
        is_ok = bool(np.any(ok))
        if is_ok:
            pairs = zip(*np.nonzero(ok))
        else:
            score = np.abs(delta) / tol_d
            pair = np.unravel_index(np.argmin(np.where(base, score, np.inf)), base.shape)
            if near is not None and not score[pair] < near_score:
                continue
            pairs, near_score = [pair], score[pair]
        for jp, ji in pairs:
            match = matching.MatchResult(
                t_ring_K=float(t_hit[h]),
                pump=matching.ModeSolution(int(m_p_arr[jp]), float(lam_p[jp, h]), 0.0, 0.0),
                signal=matching.ModeSolution(int(m_s_hit[h]), float(lam_s_hit[h]), 0.0, 0.0),
                idler=matching.ModeSolution(int(m_i_arr[ji]), float(lam_i[ji, h]), 0.0, 0.0),
                signal_detuning_Hz=float(det_hit[h]), mismatch_Hz=float(delta[jp, ji]),
                qpm_mismatch=int(qpm[jp, ji]), constraints=constraints,
            )
            if is_ok:
                feasible.append(match)
            else:
                near = match
    return feasible, near, paired


def _sweep_outcome(device, constraints, scan):
    """The matches of a sweep that pairs with scan, or its error's class, text and near miss."""
    with pytest.MonkeyPatch.context() as m, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m.setattr(matching, "_scan", scan)
        try:
            return find_triple_resonance(device, constraints)
        except QfcError as exc:
            return type(exc).__name__, str(exc), getattr(exc, "best_candidate", None)


def _chunked(scan, hits_per_chunk):
    """scan with the pairing's cell bound set to hits_per_chunk hits' worth of pairs."""
    def chunked(*args):
        cells = hits_per_chunk * len(args[4]) * len(args[5])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(matching, "MAX_GRID_CELLS", cells)
            return scan(*args)
    return chunked


def _assert_pairing_equals_reference(device, constraints, hits_per_chunk=None):
    """Asserts the sweep's outcome equals the reference loop's; returns that outcome."""
    hits = []
    expected = _sweep_outcome(device, constraints,
                              lambda *args: _reference_scan(*args, hits=hits))
    scan = matching._scan
    if hits_per_chunk is not None:
        scan = _chunked(scan, hits_per_chunk)
    assert _sweep_outcome(device, constraints, scan) == expected
    return expected, sum(hits)


def _random_sweep(device, signal_nm, pump_share, half_window, t_min, span, tol_s_MHz,
                  log_tol_d, require_qpm):
    """(device, constraints) of a sweep with signal hits and pairs on a random ring.

    The target is a signal line at mid-sweep, so the sweep has hits.  With
    f_p = pump_share * f_s and f_i = f_s - f_p both windows sit near energy
    conservation, and the poling makes the window centres' lines
    quasi-phase matched, so the hits have pairs.
    """
    t_mid = min(t_min + 0.5 * span, 450.0)

    def line(lam):
        return round(float(device.dispersion.n_eff(lam, t_mid, WIDTH))
                     * device.ring.length_um * 1e3 / lam)

    signal_nm = solve_resonance_wavelength(device, line(signal_nm), t_mid)
    assume(650.0 <= signal_nm <= 700.0)
    pump_nm, idler_nm = signal_nm / pump_share, signal_nm / (1.0 - pump_share)
    m_offset = line(signal_nm) - line(pump_nm) - line(idler_nm)
    if m_offset > 0:
        device = dataclasses.replace(device, ring=dataclasses.replace(
            device.ring, ppln_fraction=0.25,
            poling_period_um=0.25 * device.ring.length_um / m_offset))
    constraints = SearchConstraints(
        signal_wavelength_nm=signal_nm, pump_base_nm=pump_nm,
        idler_base_nm=idler_nm, half_window_nm=half_window,
        t_min_K=t_min, t_max_K=min(t_min + span, 450.0),
        max_signal_detuning_Hz=tol_s_MHz * 1e6, max_mismatch_Hz=10.0**log_tol_d,
        require_qpm=require_qpm)
    return device, constraints


RANDOM_SWEEPS = dict(
    device=random_rings(), signal_nm=st.floats(650.0, 700.0),
    pump_share=st.floats(0.4, 0.6), half_window=st.floats(2.0, 20.0),
    t_min=st.floats(260.0, 430.0), span=st.floats(0.5, 10.0),
    tol_s_MHz=st.floats(50.0, 2000.0), log_tol_d=st.floats(4.0, 12.0),
    require_qpm=st.booleans())


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(**RANDOM_SWEEPS)
def test_pairing_equals_the_per_hit_loop_on_random_rings(device, signal_nm, pump_share,
                                                          half_window, t_min, span,
                                                          tol_s_MHz, log_tol_d, require_qpm):
    _assert_pairing_equals_reference(*_random_sweep(
        device, signal_nm, pump_share, half_window, t_min, span, tol_s_MHz, log_tol_d,
        require_qpm))


@pytest.mark.parametrize("hits_per_chunk", [None, 1, 3])
@pytest.mark.parametrize("require_qpm", [True, False])
def test_pairing_equals_the_per_hit_loop_on_the_packaged_config(cfg, require_qpm,
                                                                 hits_per_chunk):
    matched = near_misses = 0
    for width in (1400.0, 1500.0, 1600.0):
        for bound_MHz in ("1.0e-3", "0.5", "20", "150"):
            narrow = apply_overrides(cfg, [f"constraints.max_mismatch_MHz={bound_MHz}",
                                           f"constraints.require_qpm={require_qpm}"])
            outcome, hits = _assert_pairing_equals_reference(
                build_device(narrow, width_nm=width, with_coupler=False),
                build_constraints(narrow), hits_per_chunk)
            if isinstance(outcome, list):
                matched += 1
            elif outcome[2] is not None:
                near_misses += 1
            if hits_per_chunk is not None:
                assert hits > 2 * hits_per_chunk  # the pairing runs in several chunks
    assert matched and near_misses


@pytest.mark.parametrize("hits_per_chunk", [None, 1, 3])
@pytest.mark.parametrize("require_qpm", [True, False])
def test_pairing_breaks_ties_as_the_per_hit_loop(require_qpm, hits_per_chunk):
    # Lines that stand still (dn/dT = 0) give every grid temperature the same
    # pairs, and the poling offset M = 1 leaves every QPM pair one FSR off:
    # the near miss is then a tie across all hits, which the first hit wins.
    device, constraints, _ = planted_fixture_a()
    still = Device(dispersion=simple_model([2.0], dn_dt=0.0),
                   ring=dataclasses.replace(device.ring, ppln_fraction=0.25,
                                            poling_period_um=125.0))
    assert still.ring.m_offset == 1
    outcome, hits = _assert_pairing_equals_reference(
        still, dataclasses.replace(constraints, half_window_nm=6.0, t_step_K=0.5,
                                   require_qpm=require_qpm), hits_per_chunk)
    assert hits == 41
    if require_qpm:
        assert outcome[2].t_ring_K == constraints.t_min_K
    else:
        assert len(outcome) == 5


def _scan_builds(device, constraints):
    """Per _scan call of a sweep: (MatchResults it built, feasible pairs, their distinct
    (m_s, m_p, m_i) triples, 1 if it returned a near miss else 0).

    The pairs come from the per-hit reference loop, which builds one match per pair.
    """
    scan, real = matching._scan, matching.MatchResult
    counts = []

    def counting_scan(*args):
        built = []

        def counted(**fields):
            built.append(fields)
            return real(**fields)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(matching, "MatchResult", counted)
            result = scan(*args)
        pairs = _reference_scan(*args)[0]
        triples = {(p.signal.m, p.pump.m, p.idler.m) for p in pairs}
        counts.append((len(built), len(pairs), len(triples), int(result[1] is not None)))
        return result

    _sweep_outcome(device, constraints, counting_scan)
    return counts


@pytest.mark.parametrize("bound_MHz", ["1.0e-3", "20", "150", "1.0e+4"])
def test_scan_builds_one_match_per_triple_on_the_packaged_device(cfg, bound_MHz):
    narrow = apply_overrides(cfg, [f"constraints.max_mismatch_MHz={bound_MHz}"])
    (built, pairs, triples, near), = _scan_builds(
        build_device(narrow, width_nm=1500.0, with_coupler=False), build_constraints(narrow))
    assert built == triples + near
    if bound_MHz == "150":  # the packaged bound: one triple, feasible at several hits
        assert pairs > triples == 1


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(**RANDOM_SWEEPS)
def test_scan_builds_one_match_per_triple_on_random_rings(device, signal_nm, pump_share,
                                                          half_window, t_min, span,
                                                          tol_s_MHz, log_tol_d, require_qpm):
    for built, pairs, triples, near in _scan_builds(*_random_sweep(
            device, signal_nm, pump_share, half_window, t_min, span, tol_s_MHz, log_tol_d,
            require_qpm)):
        assert built == triples + near
