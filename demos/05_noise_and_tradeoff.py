#!/usr/bin/env python3
"""Walkthrough: pump-induced four-wave-mixing noise and the width trade-off.

The noise photon rate in the output band is quadratic in pump power and
Lorentzian in the companion-mode detuning, so dispersion engineering
(ring width) controls it.  The widest companion detuning wins the
efficiency-versus-SNR trade-off.
"""

import numpy as np

from qfcring.builders import fwm_channel_at, operating_point
from qfcring.config import default_config
from qfcring.constants import TWO_PI
from qfcring.noise import efficiency_snr_tradeoff, fwm_noise_rate, noise_vs_power, snr_report


def header(title):
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)


def main():
    cfg = default_config()

    header("1. Noise rate for the default (1500 nm) device")
    device, matches = operating_point(cfg)
    channel, source = fwm_channel_at(cfg, device, matches[0])
    print(f"  companion detuning : {channel.delta_comp / TWO_PI / 1e12:.2f} THz "
          f"(source: {source})")
    rows = noise_vs_power(channel, np.geomspace(0.01e-3, 10e-3, 7))
    print(f"{'P (mW)':>9} {'R_FWM (Hz)':>12}")
    for p, r in rows:
        print(f"{p * 1e3:9.3f} {r:12.5f}")
    print(f"  exact P^2 law: R(2 mW)/R(1 mW) = "
          f"{fwm_noise_rate(channel, 2e-3) / fwm_noise_rate(channel, 1e-3):.1f}")

    header("2. Efficiency / SNR trade-off across ring widths")
    widths = sorted(float(w) for w in cfg["experiment"]["widths_nm"])
    channels = {}
    for w in widths:
        device, matches = operating_point(cfg, width_nm=w)
        match = matches[0]
        ch, _ = fwm_channel_at(cfg, device, match)
        channels[w] = ch
        print(f"  width {w:6.0f} nm: T_ring = {match.t_ring_K:8.3f} K, "
              f"pump = {match.pump.lambda_nm:9.3f} nm, "
              f"|delta'| = {abs(ch.delta_comp) / TWO_PI / 1e12:.2f} THz")

    powers = np.geomspace(0.01e-3, 10e-3, 121)
    rate_in = float(cfg["physics"]["signal_input_rate_Hz"])
    rows, best = efficiency_snr_tradeoff(channels, powers, rate_in)

    print(f"\n{'width':>7} {'peak eta_ex':>12} {'R at peak (Hz)':>15} {'SNR (dB)':>9}")
    for w in widths:
        sub = rows[rows[:, 0] == w]
        j = int(np.argmax(sub[:, 2]))
        print(f"{w:7.0f} {sub[j, 2]:12.4f} {sub[j, 3]:15.4f} {sub[j, 5]:9.2f}")
    print(f"\n  best noise figure at peak efficiency: width {best:.0f} nm")
    fom, snr = snr_report(0.08, rate_in * 0.90)
    print(f"  for reference, R = 0.08 Hz at eta_ex = 0.9 and {rate_in:.0f} Hz input:")
    print(f"    bare figure of merit 10*log10(R) = {fom:.1f} dB, "
          f"physical SNR = {snr:.1f} dB")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(5.2, 3.4))
        for w in widths:
            sub = rows[rows[:, 0] == w]
            ax.plot(sub[:, 5], sub[:, 2], label=f"w = {w:.0f} nm")
        ax.set_xlabel("SNR (dB)")
        ax.set_ylabel("external efficiency")
        ax.legend(fontsize=8)
        fig.tight_layout()
        fig.savefig("demo05_tradeoff.png", dpi=140)
        print("\nwrote demo05_tradeoff.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
