#!/usr/bin/env python3
"""Walkthrough: waveguide dispersion model and ring resonance comb.

Loads the packaged per-width effective-index model (a Sellmeier-based
synthetic standing in for an electromagnetic mode solver), evaluates
n_eff / group index / FSR across the three operating bands, and prints
part of the pump-band resonance comb with its thermal tuning rate.
"""

import numpy as np

from qfcring.builders import build_device
from qfcring.config import default_config
from qfcring.dispersion import default_model
from qfcring.elements import resonance_combs


def header(title):
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)


def main():
    model = default_model()
    cfg = default_config()
    width = cfg["device"]["width_nm"]
    length_m = cfg["device"]["ring_length_um"] * 1e-6

    header("1. Effective index and group index (width 1500 nm, T = 350 K)")
    print(f"{'band':>8} {'lambda (nm)':>12} {'n_eff':>9} {'n_g':>9} {'FSR (GHz)':>10}")
    for band, lam in (("signal", 737.0), ("idler", 1350.0), ("pump", 1623.0)):
        n = float(model.n_eff(lam, 350.0, width))
        ng = float(model.group_index(lam, 350.0, width))
        fsr = float(model.fsr_hz(lam, 350.0, width, length_m)) / 1e9
        print(f"{band:>8} {lam:12.1f} {n:9.4f} {ng:9.4f} {fsr:10.2f}")

    header("2. Thermo-optic tuning")
    for lam in (737.0, 1623.0):
        ng = float(model.group_index(lam, 350.0, width))
        rate = 299792458.0 / (lam * 1e-9) * model.dn_dT_per_K / ng
        print(f"resonance shift at {lam:7.1f} nm: {rate / 1e9:6.2f} GHz/K "
              f"(dn/dT = {model.dn_dT_per_K:.2e} / K)")

    header("3. Pump-band resonance comb at T_ring = 350 K")
    device = build_device(cfg, with_coupler=False)
    comb = resonance_combs(device, [(1613.0, 1633.0)], 350.0)[0]
    print(f"{'m':>6} {'lambda (nm)':>12} {'FSR (GHz)':>10}")
    for m, lam in comb:
        fsr = float(model.fsr_hz(lam, 350.0, width, length_m)) / 1e9
        print(f"{m:6d} {lam:12.4f} {fsr:10.2f}")
    print(f"\ncomb residuals |m*lambda - n*L| / lambda are below 1e-10 by "
          f"construction of the root solver")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        lam = np.linspace(*model.lambda_window_nm, 600)
        fig, ax = plt.subplots(1, 2, figsize=(9, 3.4))
        for w in model.widths_nm:
            ax[0].plot(lam, model.n_eff(lam, 350.0, w), label=f"w = {w:.0f} nm")
            ax[1].plot(lam, model.group_index(lam, 350.0, w))
        ax[0].set_xlabel("wavelength (nm)"), ax[0].set_ylabel("n_eff")
        ax[1].set_xlabel("wavelength (nm)"), ax[1].set_ylabel("n_g")
        ax[0].legend(fontsize=8)
        fig.tight_layout()
        fig.savefig("demo01_dispersion.png", dpi=140)
        print("\nwrote demo01_dispersion.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
