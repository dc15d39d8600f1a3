"""Pump-induced spontaneous four-wave-mixing noise in the output idler band.

Two pump photons scatter into one noise photon in the output band and one
companion photon in a phase-matched lower-frequency mode detuned by
delta_comp.  The generation rate is quadratic in pump power and Lorentzian
in the companion detuning:

    R = 64 g3^2 (P/hbar w_p)^2 (k_p_ex^2 / k_p^4)
        (k_i + k_comp) / (4 delta_comp^2 + (k_i + k_comp)^2)

R is the total emission out of the noise mode, k_i <b+b>, not its
bus-coupled part k_i_ex <b+b>: the weak-gain limit of the pair process
hbar G (b+ c+ + b c) with G = g3 |alpha|^2 and the on-resonance pump
|alpha|^2 = 4 k_p_ex P / (hbar w_p k_p^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conversion import TwmSystem, _check_rate_powers, _photon_flux, efficiency_vs_power
from .errors import DomainError


@dataclass(frozen=True)
class FwmChannel:
    """The noise process at one operating point, all rates in rad/s.

    system is the conversion system the noise perturbs: its pump (omega,
    kappa_tot, kappa_ex) sets the intracavity pump buildup and its idler
    kappa_tot is the output-band linewidth.  delta_comp is the companion-mode
    detuning (sign allowed); kappa_comp its total linewidth.
    """

    g_chi3: float
    delta_comp: float
    kappa_comp: float
    system: TwmSystem

    def __post_init__(self):
        pump = self.system.pump
        for name, value in (("g_chi3", self.g_chi3), ("kappa_comp", self.kappa_comp),
                            ("kappa_p_ex", pump.kappa_ex)):
            if value <= 0.0:
                raise DomainError(f"{name} must be positive")
        _check_rate_powers("FWM channel", 2, {
            "g_chi3": self.g_chi3, "delta_comp": self.delta_comp,
            "kappa_idler + kappa_comp": self.system.idler.kappa_tot + self.kappa_comp})
        _check_rate_powers("FWM channel", 4, {"kappa_p": pump.kappa_tot})


def fwm_noise_rate(ch: FwmChannel, pump_power_W):
    """Noise photon generation rate (photons/s) at the given pump power."""
    p = np.asarray(pump_power_W, dtype=float)
    if np.any(p < 0.0):
        raise DomainError("pump power must be >= 0")
    pump = ch.system.pump
    flux = _photon_flux(p, pump.omega)
    k_sum = ch.system.idler.kappa_tot + ch.kappa_comp
    lorentz = k_sum / (4.0 * ch.delta_comp**2 + k_sum**2)
    with np.errstate(over="ignore"):
        out = 64.0 * ch.g_chi3**2 * flux**2 * (pump.kappa_ex**2 / pump.kappa_tot**4) * lorentz
    if not np.isfinite(out).all():
        raise DomainError(f"FWM noise rate at a {np.max(p):.6g} W drive is beyond float range")
    return float(out) if np.isscalar(pump_power_W) else out


def noise_vs_power(ch: FwmChannel, powers_W):
    """Rows (P, R) over a power grid as a (n, 2) array; log-log slope is 2."""
    powers = np.asarray(powers_W, dtype=float)
    return np.column_stack([powers, fwm_noise_rate(ch, powers)])


def snr_report(rate_Hz: float, delivered_signal_rate_Hz: float):
    """(paper_fom_dB, snr_dB) for a noise rate and a *delivered* signal rate.

    delivered_signal_rate_Hz is the signal photon rate after conversion
    (input rate times eta_ex).  paper_fom_dB = 10 log10(R) is the bare
    figure of merit; snr_dB = 10 log10(delivered/R) is the physical ratio.
    The two always satisfy snr_dB + paper_fom_dB = 10 log10(delivered).
    """
    if rate_Hz < 0.0:
        raise DomainError("noise rate must be >= 0")
    if not math.isfinite(rate_Hz):
        raise DomainError(f"noise rate must be finite, got {rate_Hz} Hz")
    if rate_Hz == 0.0:
        if delivered_signal_rate_Hz > 0.0:
            return float("-inf"), float("inf")
        raise DomainError("SNR undefined: both noise and signal rates are zero")
    paper_fom = 10.0 * math.log10(rate_Hz)
    if delivered_signal_rate_Hz < 0.0:
        raise DomainError("signal rate must be >= 0")
    if delivered_signal_rate_Hz == 0.0:
        return paper_fom, float("-inf")
    ratio = delivered_signal_rate_Hz / rate_Hz
    if ratio == 0.0:
        raise DomainError(f"SNR of a {delivered_signal_rate_Hz:g} Hz signal over "
                          f"{rate_Hz:g} Hz of noise is below float range")
    return paper_fom, 10.0 * math.log10(ratio)


def efficiency_snr_tradeoff(channels, powers_W, signal_input_rate_Hz: float):
    """Per-width (width, P, eta_ex, R, paper_fom_dB, snr_dB) curves.

    channels maps width_nm -> FwmChannel.  Returns (rows, best_width) where
    rows is a (n_widths * n_powers, 6) array ordered by (width, power) and
    best_width maximizes snr_dB at the power of its own peak eta_ex (on a
    tie, the narrowest such width).
    """
    if signal_input_rate_Hz <= 0.0:
        raise DomainError("signal input rate must be positive")
    powers = np.asarray(powers_W, dtype=float)
    n = powers.size
    rows = np.empty((len(channels) * n, 6))
    best = None
    for i, (width, channel) in enumerate(sorted(channels.items())):
        rates = fwm_noise_rate(channel, powers)
        etas = efficiency_vs_power(channel.system, powers)[:, 3]
        snrs = [snr_report(rate, signal_input_rate_Hz * eta)
                for eta, rate in zip(etas.tolist(), rates.tolist())]
        block = rows[i * n:(i + 1) * n]
        block[:, 0], block[:, 1], block[:, 2], block[:, 3] = width, powers, etas, rates
        block[:, 4:] = snrs
        snr_at_peak = snrs[int(np.argmax(etas))][1]
        if best is None or snr_at_peak > best[1]:
            best = (width, snr_at_peak)
    return rows, best[0]
