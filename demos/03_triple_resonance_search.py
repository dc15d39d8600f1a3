#!/usr/bin/env python3
"""Walkthrough: the thermally tuned triple-resonance search.

Sweeps the ring-tuner temperature over [300, 400] K looking for a mode
triple that (a) parks the signal resonance within 200 MHz of the memory
transition, (b) keeps the three-resonance frequency mismatch below
150 MHz, (c) stays inside the pump/idler wavelength windows, and
(d) satisfies integer quasi-phase matching.  Every accepted result is
re-verified from raw dispersion.
"""

from qfcring.builders import build_constraints, build_device
from qfcring.config import default_config
from qfcring.matching import find_triple_resonance, sweep_step_K, verify_match


def header(title):
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)


def main():
    cfg = default_config()
    device = build_device(cfg)
    constraints = build_constraints(cfg)

    header("1. Search setup")
    step = sweep_step_K(device, constraints)
    print(f"  signal target     : {constraints.signal_wavelength_nm:.1f} nm")
    print(f"  sweep range       : [{constraints.t_min_K:.0f}, {constraints.t_max_K:.0f}] K")
    print(f"  adaptive step     : {step * 1e3:.2f} mK "
          f"(a quarter of the signal tolerance per step)")
    print(f"  pump window       : {constraints.pump_window_nm} nm")
    print(f"  idler window      : {constraints.idler_window_nm} nm")

    header("2. Matches (sorted by |mismatch|, then |signal detuning|)")
    results = find_triple_resonance(device, constraints)
    print(f"{'T (K)':>9} {'m_s':>6} {'m_p':>5} {'m_i':>5} "
          f"{'detuning (MHz)':>15} {'mismatch (MHz)':>15}")
    for res in results:
        print(f"{res.t_ring_K:9.3f} {res.signal.m:6d} {res.pump.m:5d} "
              f"{res.idler.m:5d} {res.signal_detuning_Hz / 1e6:15.3f} "
              f"{res.mismatch_Hz / 1e6:15.4f}")

    header("3. Independent re-verification of the best match")
    best = results[0]
    report = verify_match(device, best)
    print(f"  pump   : {report['pump_lambda_nm']:.4f} nm")
    print(f"  signal : {report['signal_lambda_nm']:.4f} nm")
    print(f"  idler  : {report['idler_lambda_nm']:.4f} nm")
    print(f"  re-derived mismatch : {report['mismatch_Hz'] / 1e6:.4f} MHz")
    print(f"  QPM integer check   : {report['qpm_mismatch']} (0 = matched, "
          f"M = {device.ring.m_offset})")
    print("\n  verify_match recomputes everything from raw dispersion and")
    print("  raises StaleResult on any disagreement beyond 1e-9 relative.")


if __name__ == "__main__":
    main()
