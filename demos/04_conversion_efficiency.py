#!/usr/bin/env python3
"""Walkthrough: conversion efficiency versus pump power.

Builds the three-wave-mixing system at the matched operating point,
computes the closed-form internal/external efficiencies over a power
grid (peaking at unity cooperativity), and cross-checks one point
against the time-domain mean-field integrator.
"""

import numpy as np

from qfcring.builders import build_constraints, build_device, build_twm_system
from qfcring.config import default_config
from qfcring.constants import TWO_PI
from qfcring.conversion import (
    efficiency_vs_power,
    external_efficiency,
    pump_power_unity_cooperativity,
    steady_state_conversion,
)
from qfcring.matching import find_triple_resonance


def header(title):
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)


def main():
    cfg = default_config()
    device = build_device(cfg)
    match = find_triple_resonance(device, build_constraints(cfg))[0]
    system = build_twm_system(cfg, match)

    header("1. Operating point")
    print(f"  g0/2pi = {system.g0 / TWO_PI / 1e6:.3f} MHz "
          f"(poled fraction {cfg['device']['ppln_fraction']})")
    for ch in system.channels:
        print(f"  {ch.role:>7}: kappa/2pi = {ch.kappa_tot / TWO_PI / 1e9:6.3f} GHz, "
              f"eta = {ch.eta:.3f}")
    p_max = pump_power_unity_cooperativity(system)
    print(f"  unity-cooperativity power: {p_max * 1e3:.4f} mW")

    header("2. Efficiency versus pump power")
    powers = np.geomspace(0.01e-3, 10e-3, 13)
    rows = efficiency_vs_power(system, powers)
    print(f"{'P (mW)':>9} {'C':>8} {'eta_int':>9} {'eta_ex':>8}")
    for p, c, ei, ee in rows:
        print(f"{p * 1e3:9.3f} {c:8.3f} {ei:9.4f} {ee:8.4f}")
    grid = np.geomspace(0.01e-3, 10e-3, 241)
    curve = efficiency_vs_power(system, grid)
    j = int(np.argmax(curve[:, 3]))
    print(f"\n  peak eta_ex = {curve[j, 3]:.4f} at {curve[j, 0] * 1e3:.3f} mW")

    header("3. Time-domain oracle cross-check at the peak")
    at_peak = system.with_power(curve[j, 0])
    eta_ref, _ = external_efficiency(at_peak)
    eta_sim, _ = steady_state_conversion(at_peak)
    print(f"  closed form eta_int  : {eta_ref:.8f}")
    print(f"  integrator eta_int   : {eta_sim:.8f}")
    print(f"  relative difference  : {abs(eta_sim / eta_ref - 1.0):.2e}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(5.2, 3.4))
        ax.semilogx(curve[:, 0] * 1e3, curve[:, 2], label="internal")
        ax.semilogx(curve[:, 0] * 1e3, curve[:, 3], label="external")
        ax.set_xlabel("pump power (mW)")
        ax.set_ylabel("conversion efficiency")
        ax.legend(fontsize=8)
        fig.tight_layout()
        fig.savefig("demo04_efficiency.png", dpi=140)
        print("\nwrote demo04_efficiency.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
