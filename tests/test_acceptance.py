"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import filecmp
import math
import os
from pathlib import Path

import numpy as np
import pytest

from qfcring.builders import build_twm_system, fwm_channel_at, operating_point
from qfcring.config import default_config
from qfcring.constants import HBAR_J_S, TWO_PI
from qfcring.conversion import (
    ModeChannel,
    TwmSystem,
    efficiency_vs_power,
    external_efficiency,
    pump_power_unity_cooperativity,
    steady_state_conversion,
)
from qfcring.experiments import EXPERIMENTS, run_experiment
from qfcring.matching import find_triple_resonance
from qfcring.noise import efficiency_snr_tradeoff, fwm_noise_rate, noise_vs_power

from conftest import (mzi_transfer, oracle_fixture_best, oracle_fixtures, partial_sweep,
                      resumed_run)
from test_conversion import make_system
from test_elements import make_mzi

GOLDEN = Path(__file__).parent / "golden" / "default_run"


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_closed_form_unit_anchors():
    """eta_int at C = 1, 0.5, 4 with zero detuning, to 1e-12."""
    sys0 = make_system()
    p1 = pump_power_unity_cooperativity(sys0)
    for factor, expect in ((1.0, 1.0), (0.5, 8.0 / 9.0), (4.0, 0.64)):
        s = sys0.with_power(factor * p1)
        assert efficiency_vs_power(s, s.pump_power_W)[0, 1] == pytest.approx(factor, abs=1e-12)
        eta_int, _ = external_efficiency(s)
        assert eta_int == pytest.approx(expect, abs=1e-12)
    _report(1, "eta_int(C=1)=1, eta_int(C=0.5)=8/9, eta_int(C=4)=0.64 to 1e-12")


def test_criterion_2_pump_power_identity():
    """Simplified-form identity + C = 1 round trip over 1e4 random draws."""
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_c = 0.0
    for _ in range(10_000):
        sys = make_system(
            eta_p=rng.uniform(0.02, 0.98),
            eta_s=rng.uniform(0.02, 0.98),
            eta_i=rng.uniform(0.02, 0.98),
            kappa_p=rng.uniform(1e7, 1e11),
            kappa_s=rng.uniform(1e7, 1e11),
            kappa_i=rng.uniform(1e7, 1e11),
            g0=rng.uniform(1e4, 1e8),
        )
        p_max = pump_power_unity_cooperativity(sys)
        simplified = (HBAR_J_S * sys.pump.omega * sys.pump.kappa_tot
                      * sys.signal.kappa_tot * sys.idler.kappa_tot
                      / (16.0 * sys.g0**2 * sys.pump.eta))
        worst_rel = max(worst_rel, abs(p_max / simplified - 1.0))
        worst_c = max(worst_c, abs(efficiency_vs_power(sys, p_max)[0, 1] - 1.0))
    assert worst_rel < 1e-12
    assert worst_c < 1e-12
    _report(2, f"10^4 draws: identity rel err {worst_rel:.2e}, "
               f"round-trip |C-1| {worst_c:.2e}")


def test_criterion_3_time_domain_oracle():
    """Mean-field steady state vs closed form (50 draws) + Manley-Rowe."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        sys = make_system(
            eta_p=rng.uniform(0.25, 0.75),
            eta_s=rng.uniform(0.6, 0.97),
            eta_i=rng.uniform(0.6, 0.97),
            kappa_p=rng.uniform(4e8, 3e9),
            kappa_s=rng.uniform(4e8, 3e9),
            kappa_i=rng.uniform(4e8, 3e9),
            delta_s=rng.uniform(-3e8, 3e8),
            delta_p=rng.uniform(-3e8, 3e8),
            mismatch=rng.uniform(-3e8, 3e8),
        )
        p_max = pump_power_unity_cooperativity(sys)
        sys = sys.with_power(rng.uniform(0.1, 3.0) * p_max)
        eta_ref, _ = external_efficiency(sys)
        eta_sim, _ = steady_state_conversion(sys)
        worst = max(worst, abs(eta_sim / eta_ref - 1.0))
    assert worst < 1e-5

    lossless = TwmSystem(
        pump=ModeChannel("pump", TWO_PI * 184.7e12, 1, 0.0, 1e-300, delta=0.2),
        signal=ModeChannel("signal", TWO_PI * 406.8e12, 2, 0.0, 1e-300, delta=-0.1),
        idler=ModeChannel("idler", TWO_PI * 222.1e12, 1, 0.0, 1e-300, delta=0.4),
        g0=1.0,
    )
    _, states, _ = resumed_run(lossless, 1e-3, 100_000, 100, initial=(0.9, 0.4 - 0.3j, 0.2j))
    na, nb, nc = (np.abs(states) ** 2).T
    drift = max(
        float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))
        for inv in (na + nb, nb + nc, na - nc)
    )
    assert drift < 1e-9
    _report(3, f"50 driven draws worst rel err {worst:.2e}; "
               f"Manley-Rowe drift {drift:.2e} over 1e5 lossless steps")


def test_criterion_4_paper_figure_anchors():
    """Calibrated defaults: peak efficiency, noise rate, quadratic slope."""
    cfg = default_config()
    device, matches = operating_point(cfg)
    match = matches[0]
    system = build_twm_system(cfg, match)

    powers = np.geomspace(0.01e-3, 10e-3, 241)
    rows = efficiency_vs_power(system, powers)
    j = int(np.argmax(rows[:, 3]))
    peak_eta, peak_p = rows[j, 3], rows[j, 0]
    assert 0.85 <= peak_eta <= 0.95
    assert 0.3e-3 <= peak_p <= 3e-3

    channel, _ = fwm_channel_at(cfg, device, match)
    r_at_peak = fwm_noise_rate(channel, peak_p)
    assert r_at_peak < 0.1

    noise_rows = noise_vs_power(channel, powers)
    slope = np.polyfit(np.log(noise_rows[:, 0]), np.log(noise_rows[:, 1]), 1)[0]
    assert abs(slope - 2.0) < 1e-9
    _report(4, f"peak eta_ex {peak_eta:.4f} at {peak_p * 1e3:.3f} mW; "
               f"R_FWM(peak) {r_at_peak:.4f} Hz; log-log slope {slope:.12f}")


def test_criterion_5_coupler_algebra():
    """Unitarity over 1000 draws; composite-K closed form; K in [0, 1]."""
    rng = np.random.default_rng(505)
    worst_unit = 0.0
    worst_closed = 0.0
    k_min, k_max = math.inf, -math.inf
    for _ in range(1000):
        k2 = rng.uniform(0.01, 0.99)
        mzi = make_mzi(k2=k2, delta_len_um=rng.uniform(0.0, 3.0))
        lam = rng.uniform(650.0, 1750.0)
        dT = rng.uniform(0.0, 60.0)
        m = mzi_transfer(mzi, lam, delta_T_K=dT)
        worst_unit = max(worst_unit, float(np.max(np.abs(m.conj().T @ m - np.eye(2)))))
        K = abs(m[1, 0]) ** 2
        closed = 4.0 * k2 * (1.0 - k2) * math.cos(float(mzi.arm_phase(lam, dT)) / 2.0) ** 2
        worst_closed = max(worst_closed, abs(K - closed))
        k_min, k_max = min(k_min, K), max(k_max, K)
    assert worst_unit < 1e-12
    assert worst_closed < 1e-12
    assert 0.0 <= k_min and k_max <= 1.0
    _report(5, f"unitarity dev {worst_unit:.2e}; closed-form dev {worst_closed:.2e}; "
               f"K range [{k_min:.3f}, {k_max:.3f}]")


def test_criterion_6_matcher_correctness():
    """Planted fixture residuals, fine-grid oracle agreement, constraint audit."""
    fixtures = oracle_fixtures()

    device, constraints, planted = fixtures[0]
    with partial_sweep():
        best = find_triple_resonance(device, constraints)[0]
    assert (best.signal.m, best.pump.m, best.idler.m) == planted["m"]
    assert abs(best.signal_detuning_Hz) < 1e3
    assert abs(best.mismatch_Hz) < 1e3

    agree = 0
    for k, (device, constraints, _) in enumerate(fixtures):
        with partial_sweep():
            coarse = find_triple_resonance(device, constraints)
        oracle = oracle_fixture_best(k)
        assert oracle is not None
        t_o, m_o, _, _ = oracle
        top = coarse[0]
        assert (top.signal.m, top.pump.m, top.idler.m) == m_o
        assert abs(top.t_ring_K - t_o) <= constraints.t_step_K
        agree += 1
        for res in coarse:
            assert abs(res.signal_detuning_Hz) <= constraints.max_signal_detuning_Hz
            assert abs(res.mismatch_Hz) <= constraints.max_mismatch_Hz
            assert constraints.pump_window_nm[0] <= res.pump.lambda_nm <= \
                constraints.pump_window_nm[1]
            assert constraints.idler_window_nm[0] <= res.idler.lambda_nm <= \
                constraints.idler_window_nm[1]
            assert res.qpm_mismatch == 0
    _report(6, f"planted residuals < 1 kHz; {agree}/5 fixtures agree with the "
               "10x-finer exhaustive oracle; all accepted matches within bounds")


def test_criterion_7_dispersion_engineering_ordering():
    """1.4 um width achieves the best noise figure at its peak efficiency."""
    cfg = default_config()
    channels = {}
    for width in (1400.0, 1500.0, 1600.0):
        device, matches = operating_point(cfg, width_nm=width)
        channels[width], _ = fwm_channel_at(cfg, device, matches[0])
    powers = np.geomspace(0.01e-3, 10e-3, 121)
    rows, best_width = efficiency_snr_tradeoff(
        channels, powers, float(cfg["physics"]["signal_input_rate_Hz"]))
    assert best_width == 1400.0
    _report(7, f"best noise figure at peak eta_ex: width {best_width:.0f} nm "
               f"among (1400, 1500, 1600)")


def test_criterion_8_determinism_and_goldens(tmp_path):
    """Byte-identical reruns; outputs match the committed golden files."""
    cfg = default_config()
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    n_files = 0
    for name in EXPERIMENTS:
        out_a = run_experiment(name, cfg, str(run_a))
        run_experiment(name, cfg, str(run_b))
        for path in out_a:
            rel = os.path.basename(path)
            assert filecmp.cmp(run_a / rel, run_b / rel, shallow=False), \
                f"{name}/{rel} differs between identical runs"
            golden = GOLDEN / rel
            assert golden.exists(), f"missing golden file {rel}"
            assert filecmp.cmp(run_a / rel, golden, shallow=False), \
                f"{name}/{rel} differs from the committed golden file"
            n_files += 1
    _report(8, f"{n_files} output files byte-identical across reruns and "
               "equal to the committed goldens")
