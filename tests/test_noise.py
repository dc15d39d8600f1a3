"""Four-wave-mixing noise rate, SNR reporting, and the width trade-off."""

import math

import numpy as np
import pytest

from qfcring import noise
from qfcring.constants import TWO_PI
from qfcring.conversion import ModeChannel, TwmSystem
from qfcring.errors import DomainError
from qfcring.noise import (
    FwmChannel,
    TradeoffVariant,
    efficiency_snr_tradeoff,
    fwm_noise_rate,
    noise_vs_power,
    snr_report,
)

OMEGA_P = TWO_PI * 184.7e12


def make_channel(delta_thz=1.0, g_chi3=TWO_PI * 0.11, kappa_i=TWO_PI * 4.7e9,
                 kappa_p=TWO_PI * 0.22e9, eta_p=0.5):
    return FwmChannel(
        g_chi3=g_chi3,
        delta_comp=TWO_PI * delta_thz * 1e12,
        kappa_comp=TWO_PI * 0.36e9,
        kappa_idler=kappa_i,
        kappa_p=kappa_p,
        kappa_p_ex=eta_p * kappa_p,
        omega_p=OMEGA_P,
    )


def test_zero_power_zero_rate():
    assert fwm_noise_rate(make_channel(), 0.0) == 0.0


def test_exact_quadratic_power_law():
    ch = make_channel()
    assert fwm_noise_rate(ch, 2e-3) == pytest.approx(
        4.0 * fwm_noise_rate(ch, 1e-3), rel=1e-14)
    rows = noise_vs_power(ch, np.geomspace(1e-5, 1e-2, 40))
    slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_lorentzian_in_companion_detuning():
    k_sum = TWO_PI * (4.7e9 + 0.36e9)
    peak = fwm_noise_rate(make_channel(delta_thz=0.0), 1e-3)
    half = fwm_noise_rate(
        FwmChannel(g_chi3=TWO_PI * 0.11, delta_comp=k_sum / 2.0,
                   kappa_comp=TWO_PI * 0.36e9, kappa_idler=TWO_PI * 4.7e9,
                   kappa_p=TWO_PI * 0.22e9, kappa_p_ex=TWO_PI * 0.11e9,
                   omega_p=OMEGA_P),
        1e-3)
    assert half == pytest.approx(0.5 * peak, rel=1e-12)
    # maximized at zero detuning
    assert fwm_noise_rate(make_channel(delta_thz=0.3), 1e-3) < peak


def test_monotone_in_pump_rates():
    base = fwm_noise_rate(make_channel(), 1e-3)
    more_ex = fwm_noise_rate(make_channel(eta_p=0.8), 1e-3)
    assert more_ex == pytest.approx(base * (0.8 / 0.5) ** 2, rel=1e-12)
    wider = fwm_noise_rate(make_channel(kappa_p=TWO_PI * 0.44e9), 1e-3)
    assert wider < base


def test_snr_report_values():
    fom, _ = snr_report(0.1, 1.0)
    assert fom == pytest.approx(-10.0, abs=1e-12)
    fom, snr = snr_report(0.1, 1.0e4)
    assert snr == pytest.approx(50.0, abs=1e-12)
    # bookkeeping identity
    assert snr + fom == pytest.approx(10.0 * math.log10(1.0e4), abs=1e-12)


def test_snr_slope_minus_20_per_decade():
    ch = make_channel()
    powers = np.geomspace(1e-4, 1e-2, 30)
    delivered = 1.0e4  # fixed delivered signal rate
    snrs = np.array([snr_report(float(fwm_noise_rate(ch, p)), delivered)[1]
                     for p in powers])
    slope = np.polyfit(np.log10(powers), snrs, 1)[0]
    assert slope == pytest.approx(-20.0, abs=1e-9)


def test_snr_zero_rate_sentinel():
    fom, snr = snr_report(0.0, 1.0e4)
    assert fom == float("-inf") and snr == float("inf")
    with pytest.raises(DomainError):
        snr_report(0.0, 0.0)


def test_noise_point_record():
    ch = make_channel()
    rate = fwm_noise_rate(ch, 1e-3)
    assert isinstance(rate, float)
    assert rate == pytest.approx(fwm_noise_rate(ch, np.array([1e-3]))[0], rel=1e-15)
    fom, snr = snr_report(rate, 1.0e4 * 0.9)
    assert snr + fom == pytest.approx(10.0 * math.log10(1.0e4 * 0.9), abs=1e-12)


# --- trade-off -------------------------------------------------------------

def make_variant(width, delta_thz, power_scale=1.0):
    def ch(role, omega, kappa, eta, delta=0.0):
        return ModeChannel(role=role, omega=omega, m=50, kappa_ex=eta * kappa,
                           kappa_0=(1 - eta) * kappa, delta=delta)

    system = TwmSystem(
        pump=ch("pump", OMEGA_P, power_scale * 1.4e9, 0.5),
        signal=ch("signal", TWO_PI * 406.8e12, 7e9, 0.92),
        idler=ch("idler", TWO_PI * 222.1e12, 3e10, 0.98),
        g0=TWO_PI * 0.31e6,
    )
    return TradeoffVariant(width, system, make_channel(delta_thz=delta_thz))


def test_larger_detuning_strictly_lower_rate():
    powers = np.geomspace(1e-4, 1e-2, 20)
    rows_a = noise_vs_power(make_channel(delta_thz=1.35), powers)
    rows_b = noise_vs_power(make_channel(delta_thz=0.7), powers)
    assert np.all(rows_a[:, 1] < rows_b[:, 1])


def test_tradeoff_best_width_and_ordering():
    variants = [make_variant(1600.0, 0.7), make_variant(1400.0, 1.35),
                make_variant(1500.0, 1.0)]
    powers = np.geomspace(1e-4, 5e-3, 30)
    rows, best = efficiency_snr_tradeoff(variants, powers, 1.0e4)
    assert best == 1400.0
    # ordered by (width, power)
    assert np.all(np.diff(rows[:, 0]) >= 0.0)
    widths = np.unique(rows[:, 0])
    assert list(widths) == [1400.0, 1500.0, 1600.0]
    for w in widths:
        sub = rows[rows[:, 0] == w]
        assert np.all(np.diff(sub[:, 1]) > 0.0)


def test_tradeoff_identical_variants_bitwise():
    variants = [make_variant(1500.0, 1.0), make_variant(1500.0, 1.0)]
    powers = np.geomspace(1e-4, 5e-3, 10)
    rows, _ = efficiency_snr_tradeoff(variants, powers, 1.0e4)
    a, b = rows[:10, 1:], rows[10:, 1:]
    assert np.array_equal(a, b)


def test_tradeoff_reports_each_row_once(monkeypatch):
    calls = []

    def counting(rate_Hz, delivered_signal_rate_Hz):
        calls.append((rate_Hz, delivered_signal_rate_Hz))
        return snr_report(rate_Hz, delivered_signal_rate_Hz)

    monkeypatch.setattr(noise, "snr_report", counting)
    variants = [make_variant(1600.0, 0.7), make_variant(1400.0, 1.35)]
    rows, best = efficiency_snr_tradeoff(variants, np.geomspace(1e-4, 5e-3, 30), 1.0e4)
    assert len(calls) == len(rows) == 60
    # the best width is still read at each width's own peak eta_ex
    curves = {w: rows[rows[:, 0] == w] for w in (1400.0, 1600.0)}
    peak_snr = {w: curve[np.argmax(curve[:, 2]), 5] for w, curve in curves.items()}
    assert best == max(peak_snr, key=peak_snr.get)


def test_negative_power_in_a_noise_grid_raises():
    with pytest.raises(DomainError):
        noise_vs_power(make_channel(), [1e-3, -1e-9])
