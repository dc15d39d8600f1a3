#!/usr/bin/env python3
"""Walkthrough: directional coupler and thermally tuned MZI coupling ratios.

Reproduces the coupling-design story: the bare coupler's cross-transmission
grows with wavelength, the asymmetric MZI imposes a cos^2 envelope on top,
and at the operating thermal drive the pump lands near critical coupling
while signal and idler stay overcoupled.
"""

import numpy as np

from qfcring.builders import build_constraints, build_device
from qfcring.config import default_config
from qfcring.elements import coupling_ratio
from qfcring.matching import find_triple_resonance


def header(title):
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)


def main():
    cfg = default_config()
    device = build_device(cfg)
    mzi = device.mzi
    dt_op = cfg["device"]["mzi_delta_T_K"]

    header("1. Bare directional coupler cross-transmission |k|^2")
    for lam in (737.0, 1350.0, 1623.0):
        print(f"  |k|^2({lam:7.1f} nm) = {float(mzi.dc.cross_coupling(lam)):.4f}")
    print("  (longer wavelengths couple more strongly at fixed gap)")

    header("2. Operating point from the triple-resonance search")
    match = find_triple_resonance(device, build_constraints(cfg))[0]
    print(f"  T_ring = {match.t_ring_K:.3f} K")
    for role, sol in match.carriers:
        print(f"  {role:>7}: lambda = {sol.lambda_nm:9.3f} nm   eta = {sol.eta:.3f}")

    header(f"3. Coupling ratios versus MZI drive (operating at {dt_op} K)")
    dts = np.linspace(0.0, 60.0, 13)
    print(f"{'dT (K)':>8} {'eta_pump':>9} {'eta_signal':>11} {'eta_idler':>10}")
    for dt in dts:
        etas = [coupling_ratio(device, sol.lambda_nm, match.t_ring_K, delta_T_K=float(dt))
                for _, sol in match.carriers]
        mark = "  <== operating drive" if abs(dt - dt_op) < 2.5 else ""
        print(f"{dt:8.1f} {etas[0]:9.3f} {etas[1]:11.3f} {etas[2]:10.3f}{mark}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        dts = np.linspace(0.0, 60.0, 241)
        fig, ax = plt.subplots(figsize=(5.4, 3.4))
        for role, sol in match.carriers:
            eta = [coupling_ratio(device, sol.lambda_nm, match.t_ring_K, delta_T_K=float(d))
                   for d in dts]
            ax.plot(dts, eta, label=role)
        ax.axvline(dt_op, color="k", ls="--", lw=0.8)
        ax.set_xlabel("MZI thermal drive (K)")
        ax.set_ylabel("coupling ratio")
        ax.legend(fontsize=8)
        fig.tight_layout()
        fig.savefig("demo02_coupling_ratios.png", dpi=140)
        print("\nwrote demo02_coupling_ratios.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
