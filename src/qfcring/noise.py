"""Pump-induced spontaneous four-wave-mixing noise in the output idler band.

Two pump photons scatter into one noise photon in the output band and one
companion photon in a phase-matched lower-frequency mode detuned by
delta_comp.  The generation rate is quadratic in pump power and Lorentzian
in the companion detuning:

    R = 64 g3^2 (P/hbar w_p)^2 (k_p_ex^2 / k_p^4)
        (k_i + k_comp) / (4 delta_comp^2 + (k_i + k_comp)^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_J_S
from .conversion import TwmSystem, efficiency_vs_power
from .errors import DomainError

LOG10 = math.log(10.0)


@dataclass(frozen=True)
class FwmChannel:
    """Everything the noise-rate formula needs, all rates in rad/s.

    delta_comp is the companion-mode detuning (sign allowed); kappa_comp its
    total linewidth; kappa_idler the output idler linewidth; the pump block
    (kappa_p, kappa_p_ex, omega_p) sets the intracavity pump buildup.
    """

    g_chi3: float
    delta_comp: float
    kappa_comp: float
    kappa_idler: float
    kappa_p: float
    kappa_p_ex: float
    omega_p: float

    def __post_init__(self):
        for name in ("g_chi3", "kappa_comp", "kappa_idler", "kappa_p", "kappa_p_ex", "omega_p"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")
        if self.kappa_p_ex > self.kappa_p:
            raise DomainError("kappa_p_ex cannot exceed kappa_p")


def fwm_noise_rate(ch: FwmChannel, pump_power_W):
    """Noise photon generation rate (photons/s) at the given pump power."""
    p = np.asarray(pump_power_W, dtype=float)
    if np.any(p < 0.0):
        raise DomainError("pump power must be >= 0")
    flux = p / (HBAR_J_S * ch.omega_p)
    k_sum = ch.kappa_idler + ch.kappa_comp
    lorentz = k_sum / (4.0 * ch.delta_comp**2 + k_sum**2)
    out = 64.0 * ch.g_chi3**2 * flux**2 * (ch.kappa_p_ex**2 / ch.kappa_p**4) * lorentz
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
    if rate_Hz == 0.0:
        if delivered_signal_rate_Hz > 0.0:
            return float("-inf"), float("inf")
        raise DomainError("SNR undefined: both noise and signal rates are zero")
    paper_fom = 10.0 * math.log10(rate_Hz)
    if delivered_signal_rate_Hz < 0.0:
        raise DomainError("signal rate must be >= 0")
    snr = (
        float("-inf")
        if delivered_signal_rate_Hz == 0.0
        else 10.0 * math.log10(delivered_signal_rate_Hz / rate_Hz)
    )
    return paper_fom, snr


@dataclass(frozen=True)
class TradeoffVariant:
    """One dispersion-engineered device entry for the efficiency/SNR sweep."""

    width_nm: float
    system: TwmSystem
    channel: FwmChannel


def efficiency_snr_tradeoff(variants, powers_W, signal_input_rate_Hz: float):
    """Per-variant (width, P, eta_ex, R, paper_fom_dB, snr_dB) curves.

    Returns (rows, best_width) where rows is a (n_variants * n_powers, 6)
    array ordered by (width, power) and best_width maximizes snr_dB at the
    power of its own peak eta_ex.
    """
    if signal_input_rate_Hz <= 0.0:
        raise DomainError("signal input rate must be positive")
    powers = np.asarray(powers_W, dtype=float)
    ordered = sorted(variants, key=lambda v: v.width_nm)
    rows = []
    best = None
    for var in ordered:
        rates = fwm_noise_rate(var.channel, powers)
        etas = efficiency_vs_power(var.system, powers)[:, 3]
        curve = [(var.width_nm, p, eta, rate,
                  *snr_report(float(rate), signal_input_rate_Hz * float(eta)))
                 for p, eta, rate in zip(powers, etas, rates)]
        rows += curve
        snr_at_peak = curve[int(np.argmax(etas))][5]
        if best is None or snr_at_peak > best[1]:
            best = (var.width_nm, snr_at_peak)
    return np.asarray(rows, dtype=float), best[0]
