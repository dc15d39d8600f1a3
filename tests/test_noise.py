"""Four-wave-mixing noise rate, SNR reporting, and the width trade-off."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcring import noise
from qfcring.builders import fwm_channel_at, operating_point
from qfcring.config import apply_overrides
from qfcring.conversion import efficiency_vs_power
from qfcring.experiments import _power_grid_W
from qfcring.constants import TWO_PI
from qfcring.conversion import ModeChannel, TwmSystem, _pump_drive
from qfcring.errors import DomainError
from qfcring.noise import (
    FwmChannel,
    efficiency_snr_tradeoff,
    fwm_noise_rate,
    noise_vs_power,
    snr_report,
)

OMEGA_P = TWO_PI * 184.7e12


def make_system(kappa_p=TWO_PI * 0.22e9, eta_p=0.5, kappa_i=TWO_PI * 4.7e9):
    """The conversion system a test channel perturbs: one pump, one idler."""
    def ch(role, omega, kappa, eta):
        return ModeChannel(role=role, omega=omega, m=50, kappa_ex=eta * kappa,
                           kappa_0=(1 - eta) * kappa)

    return TwmSystem(
        pump=ch("pump", OMEGA_P, kappa_p, eta_p),
        signal=ch("signal", TWO_PI * 406.8e12, 7e9, 0.92),
        idler=ch("idler", TWO_PI * 222.1e12, kappa_i, 0.98),
        g0=TWO_PI * 0.31e6,
    )


def make_channel(delta_thz=1.0, g_chi3=TWO_PI * 0.11, kappa_comp=TWO_PI * 0.36e9, **rates):
    """FwmChannel on make_system(**rates)."""
    return FwmChannel(g_chi3=g_chi3, delta_comp=TWO_PI * delta_thz * 1e12,
                      kappa_comp=kappa_comp, system=make_system(**rates))


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
    on_peak = make_channel(delta_thz=0.0)
    k_sum = on_peak.system.idler.kappa_tot + on_peak.kappa_comp
    peak = fwm_noise_rate(on_peak, 1e-3)
    half = fwm_noise_rate(replace(on_peak, delta_comp=k_sum / 2.0), 1e-3)
    assert half == pytest.approx(0.5 * peak, rel=1e-12)
    # maximized at zero detuning
    assert fwm_noise_rate(make_channel(delta_thz=0.3), 1e-3) < peak


def test_monotone_in_pump_rates():
    base = fwm_noise_rate(make_channel(), 1e-3)
    more_ex = fwm_noise_rate(make_channel(eta_p=0.8), 1e-3)
    assert more_ex == pytest.approx(base * (0.8 / 0.5) ** 2, rel=1e-12)
    wider = fwm_noise_rate(make_channel(kappa_p=TWO_PI * 0.44e9), 1e-3)
    assert wider < base


def test_channel_refuses_an_uncoupled_pump():
    with pytest.raises(DomainError, match="^kappa_p_ex must be positive$"):
        make_channel(eta_p=0.0)


def pump_photons(ch: FwmChannel, pump_power_W: float) -> float:
    """On-resonance |alpha|^2 = (2 s / k_p)^2 of the channel's pump, with s the
    mean-field oracle's own drive term (not `intracavity_pump`)."""
    system = ch.system.with_power(pump_power_W)
    return (2.0 * _pump_drive(system) / system.pump.kappa_tot) ** 2


def pair_process_rate(ch: FwmChannel, pump_power_W: float) -> float:
    """kappa_i <b+b> from the steady state of the linearised pair process.

    The pump couples the noise mode b (kappa_idler) and the companion c
    (kappa_comp, detuned by delta_comp) by hbar G (b+ c+ + b c) with
    G = g_chi3 |alpha|^2; both inputs are vacuum.  The moments n_b = <b+b>,
    n_c = <c+c> and m = <b c> = x + i y obey

        dn_b/dt = -k_i n_b - 2 G y
        dn_c/dt = -k_c n_c - 2 G y
        dm/dt   = -(i delta_comp + (k_i + k_c)/2) m - i G (1 + n_b + n_c)

    and their zero is one 4x4 real linear solve.
    """
    g = ch.g_chi3 * pump_photons(ch, pump_power_W)
    k_b, k_c, d = ch.system.idler.kappa_tot, ch.kappa_comp, ch.delta_comp
    half = 0.5 * (k_b + k_c)
    # unknowns (n_b, n_c, x, y)
    a = np.array([[-k_b, 0.0, 0.0, -2.0 * g],
                  [0.0, -k_c, 0.0, -2.0 * g],
                  [0.0, 0.0, -half, d],
                  [-g, -g, -d, -half]])
    return k_b * np.linalg.solve(a, [0.0, 0.0, 0.0, g])[0]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(kappa_i=st.floats(1e8, 1e11), comp_ratio=st.floats(0.05, 20.0),
       detuning=st.floats(-20.0, 20.0), kappa_p=st.floats(1e8, 1e10),
       eta_p=st.floats(0.05, 1.0), power_W=st.floats(1e-6, 1e-1), gain=st.floats(1e-7, 1e-4))
def test_rate_is_the_weak_gain_limit_of_the_pair_process(kappa_i, comp_ratio, detuning,
                                                        kappa_p, eta_p, power_W, gain):
    """fwm_noise_rate is kappa_i <b+b>, the total emission out of the noise mode,
    to 1e-6 relative on on-resonance pumps with G <= 1e-4 min(kappa_i, kappa_comp)."""
    kappa_comp = comp_ratio * kappa_i
    ch = replace(make_channel(g_chi3=1.0, kappa_comp=kappa_comp, kappa_p=kappa_p, eta_p=eta_p,
                              kappa_i=kappa_i),
                 delta_comp=detuning * (kappa_i + kappa_comp))
    # the g_chi3 that sets G to `gain` times the slower of the two modes
    ch = replace(ch, g_chi3=gain * min(kappa_i, kappa_comp) / pump_photons(ch, power_W))
    assert fwm_noise_rate(ch, power_W) == pytest.approx(pair_process_rate(ch, power_W), rel=1e-6)


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


@pytest.mark.parametrize("rate", [1e-30, 0.08, 1e30])
def test_snr_of_no_delivered_signal_is_minus_infinity(rate):
    fom, snr = snr_report(rate, 0.0)
    assert fom == 10.0 * math.log10(rate) and snr == float("-inf")


def test_noise_point_record():
    ch = make_channel()
    rate = fwm_noise_rate(ch, 1e-3)
    assert isinstance(rate, float)
    assert rate == pytest.approx(fwm_noise_rate(ch, np.array([1e-3]))[0], rel=1e-15)
    fom, snr = snr_report(rate, 1.0e4 * 0.9)
    assert snr + fom == pytest.approx(10.0 * math.log10(1.0e4 * 0.9), abs=1e-12)


# --- trade-off -------------------------------------------------------------

def make_channels(*widths_and_detunings):
    """The trade-off's input, {width_nm: channel}, in the order given."""
    return {width: make_channel(delta_thz=delta_thz) for width, delta_thz in widths_and_detunings}


def test_larger_detuning_strictly_lower_rate():
    powers = np.geomspace(1e-4, 1e-2, 20)
    rows_a = noise_vs_power(make_channel(delta_thz=1.35), powers)
    rows_b = noise_vs_power(make_channel(delta_thz=0.7), powers)
    assert np.all(rows_a[:, 1] < rows_b[:, 1])


def test_tradeoff_best_width_and_ordering():
    channels = make_channels((1600.0, 0.7), (1400.0, 1.35), (1500.0, 1.0))
    powers = np.geomspace(1e-4, 5e-3, 30)
    rows, best = efficiency_snr_tradeoff(channels, powers, 1.0e4)
    assert best == 1400.0
    # ordered by (width, power)
    assert np.all(np.diff(rows[:, 0]) >= 0.0)
    widths = np.unique(rows[:, 0])
    assert list(widths) == [1400.0, 1500.0, 1600.0]
    for w in widths:
        sub = rows[rows[:, 0] == w]
        assert np.all(np.diff(sub[:, 1]) > 0.0)


def test_tradeoff_identical_variants_bitwise():
    # two widths with equal channels: a mapping cannot hold one width twice
    channels = make_channels((1500.0, 1.0), (1600.0, 1.0))
    powers = np.geomspace(1e-4, 5e-3, 10)
    rows, best = efficiency_snr_tradeoff(channels, powers, 1.0e4)
    assert best == 1500.0  # a tie goes to the narrower width
    a, b = rows[:10, 1:], rows[10:, 1:]
    assert np.array_equal(a, b)


def test_tradeoff_reports_each_row_once(monkeypatch):
    calls = []

    def counting(rate_Hz, delivered_signal_rate_Hz):
        calls.append((rate_Hz, delivered_signal_rate_Hz))
        return snr_report(rate_Hz, delivered_signal_rate_Hz)

    monkeypatch.setattr(noise, "snr_report", counting)
    channels = make_channels((1600.0, 0.7), (1400.0, 1.35))
    rows, best = efficiency_snr_tradeoff(channels, np.geomspace(1e-4, 5e-3, 30), 1.0e4)
    assert len(calls) == len(rows) == 60
    # the best width is still read at each width's own peak eta_ex
    curves = {w: rows[rows[:, 0] == w] for w in (1400.0, 1600.0)}
    peak_snr = {w: curve[np.argmax(curve[:, 2]), 5] for w, curve in curves.items()}
    assert best == max(peak_snr, key=peak_snr.get)


def _tradeoff_from_tuples(channels, powers_W, signal_input_rate_Hz):
    """efficiency_snr_tradeoff's rows as tuples of numpy scalars, as the reference."""
    powers = np.asarray(powers_W, dtype=float)
    rows, best = [], None
    for width, channel in sorted(channels.items()):
        rates = fwm_noise_rate(channel, powers)
        etas = efficiency_vs_power(channel.system, powers)[:, 3]
        curve = [(width, p, eta, rate,
                  *snr_report(float(rate), signal_input_rate_Hz * float(eta)))
                 for p, eta, rate in zip(powers, etas, rates)]
        rows += curve
        snr_at_peak = curve[int(np.argmax(etas))][5]
        if best is None or snr_at_peak > best[1]:
            best = (width, snr_at_peak)
    return np.asarray(rows, dtype=float), best[0]


@pytest.mark.parametrize("overrides", [
    [], ["experiment.power_spacing=linear"], ["experiment.pump_power_mW=1.7"],
    ["experiment.power_spacing=linear", "experiment.power_min_mW=0.25"],
])
def test_tradeoff_rows_equal_the_tuple_reference_on_the_packaged_widths(cfg, overrides):
    run = apply_overrides(cfg, overrides)
    channels = {}
    for width in sorted(float(w) for w in run["experiment"]["widths_nm"]):
        device, matches = operating_point(run, width_nm=width)
        channels[width] = fwm_channel_at(run, device, matches[0])[0]
    powers = _power_grid_W(run)
    rate = float(run["physics"]["signal_input_rate_Hz"])
    rows, best = efficiency_snr_tradeoff(channels, powers, rate)
    ref_rows, ref_best = _tradeoff_from_tuples(channels, powers, rate)
    assert rows.shape == ref_rows.shape == (len(channels) * powers.size, 6)
    assert np.array_equal(rows, ref_rows) and rows.tobytes() == ref_rows.tobytes()
    assert best == ref_best


def test_negative_power_in_a_noise_grid_raises():
    with pytest.raises(DomainError):
        noise_vs_power(make_channel(), [1e-3, -1e-9])


@pytest.mark.parametrize("make, message", [
    (lambda: snr_report(-1.0, 1.0), r"^noise rate must be >= 0$"),
    (lambda: snr_report(1.0, -1.0), r"^signal rate must be >= 0$"),
    (lambda: efficiency_snr_tradeoff({1500.0: make_channel()}, [1e-3], 0.0),
     r"^signal input rate must be positive$"),
], ids=["negative-noise-rate", "negative-signal-rate", "zero-input-rate"])
def test_noise_refusals(make, message):
    with pytest.raises(DomainError, match=message):
        make()
