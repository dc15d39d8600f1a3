"""The array-only resonance solver, frozen as the reference for the solver.

`solve_resonance_wavelength` below is a copy of
`qfcring.elements.solve_resonance_wavelength`: every input goes through 0-d
or n-d numpy arrays, with the Horner loop, the evaluators and the residual
written out here so that no later change to `qfcring` moves the reference.
The tests compare roots by their bytes, and errors and RuntimeWarnings by
their text.
"""

from __future__ import annotations

import numpy as np

from qfcring.dispersion import U_SCALE_NM
from qfcring.elements import RESIDUAL_TOL
from qfcring.errors import NumericalFailure


def _polyval(coeffs, u):
    if len(coeffs) == 0:
        return np.zeros_like(np.asarray(u, dtype=float))
    out = 0.0 * u + coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * u + c
    return out


def _n_eff(model, lambda_nm, t_K, width_nm):
    c, _ = model._coeffs(width_nm)
    u = (np.asarray(lambda_nm, dtype=float) - model.lambda_ref_nm) / U_SCALE_NM
    n = _polyval(c, u)
    return n + model.dn_dT_per_K * (np.asarray(t_K, dtype=float) - model.t_ref_K)


def _dn_dlambda(model, lambda_nm, width_nm):
    _, dc = model._coeffs(width_nm)
    u = (np.asarray(lambda_nm, dtype=float) - model.lambda_ref_nm) / U_SCALE_NM
    return _polyval(dc, u) / U_SCALE_NM


def _residual(device, m, lambda_nm, t_K):
    m_lam = np.asarray(m, dtype=float) * np.asarray(lambda_nm, dtype=float)
    n = _n_eff(device.dispersion, lambda_nm, t_K, device.width_nm)
    return (m_lam - n * (device.ring.length_m * 1e9)) / m_lam


def solve_resonance_wavelength(device, m, t_K):
    model, width_nm, length_nm = device.dispersion, device.width_nm, device.ring.length_m * 1e9
    m_arr = np.asarray(m, dtype=float)
    lo, hi = model.lambda_window_nm
    lam = np.full(np.broadcast(m_arr, np.asarray(t_K, dtype=float)).shape, 0.0)
    lam = np.clip(lam + length_nm * 2.0 / m_arr, lo, hi)
    for _ in range(13):
        lam = _n_eff(model, lam, t_K, width_nm) * length_nm / m_arr
    for _ in range(2):
        f = m_arr * lam - _n_eff(model, lam, t_K, width_nm) * length_nm
        fp = m_arr - _dn_dlambda(model, lam, width_nm) * length_nm
        lam = lam - f / fp
    r = np.abs(_residual(device, m_arr, lam, t_K))
    if not np.all(r <= RESIDUAL_TOL):
        k = np.argmax(np.where(np.isnan(r), np.inf, r))
        m_k, t_k = (np.broadcast_to(x, lam.shape).flat[k] for x in (m_arr, t_K))
        raise NumericalFailure(f"resonance root of m={m_k:.0f} at T={t_k} K has "
                               f"relative residual {r.flat[k]:.3g} > {RESIDUAL_TOL:g}")
    if np.isscalar(m) and np.isscalar(t_K):
        return float(lam)
    return lam
