"""Photonic building blocks: directional coupler, thermally tuned MZI
coupler, and the ring cavity.

The MZI acts as the ring's bus coupler.  Its composite 2x2 transfer matrix
is unitary (lossless model); the power cross-coupling K sets the extrinsic
rate of each cavity mode through the weak-coupling mapping
kappa_ex = K * v_g / L_ring.  The ring operations take the Device and read
n_eff, v_g and kappa_0 from its dispersion model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI, db_per_m_to_kappa, freq_hz
from .dispersion import DispersionModel, U_SCALE_NM, _polyval
from .errors import DomainError, NoResonance, NumericalFailure, OutOfDomain

# kappa_ex = K v_g / L is a weak-coupling correspondence; beyond this K it
# degrades and we warn rather than fail.
WEAK_COUPLING_K_MAX = 0.5

# At |arm phase| = 2**32 rad the float spacing reaches 1e-6 rad; beyond it the
# phase's cosine rests on its last bits, which change with the numeric
# backend, so such a phase counts as unusable.
MAX_ARM_PHASE_RAD = 2.0**32


@dataclass(frozen=True)
class DirectionalCoupler:
    """Lossless directional coupler with a polynomial coupling-length model.

    lc_coeffs_um are ascending coefficients of L_c (in um) versus
    u = (lambda_nm - lambda_ref_nm)/1000.
    """

    length_um: float
    lc_coeffs_um: tuple
    lambda_ref_nm: float
    lambda_window_nm: tuple

    def __post_init__(self):
        if self.length_um < 0.0:
            raise DomainError("coupler interaction length must be >= 0")

    def _check(self, lambda_nm):
        lo, hi = self.lambda_window_nm
        lam = np.asarray(lambda_nm, dtype=float)
        if ((lam < lo) | (lam > hi)).any():
            raise OutOfDomain(f"wavelength {lambda_nm} nm outside coupler window [{lo}, {hi}] nm")

    def coupling_length_um(self, lambda_nm):
        """Full-transfer beat half-length L_c (um) at the given wavelength."""
        self._check(lambda_nm)
        u = (np.asarray(lambda_nm, dtype=float) - self.lambda_ref_nm) / U_SCALE_NM
        lc = _polyval(self.lc_coeffs_um, u)
        if np.any(lc <= 0.0):
            raise DomainError(f"coupling-length model non-positive at {lambda_nm} nm")
        return lc

    def cross_coupling(self, lambda_nm):
        """Power cross-transmission |k|^2 = sin^2(pi L_dc / (2 L_c))."""
        lc = self.coupling_length_um(lambda_nm)
        return np.sin(math.pi * self.length_um / (2.0 * lc)) ** 2


def _m10(k, t, ph):
    """Bus-to-ring element M10 of the composite MZI transfer matrix."""
    return 1j * (t * k * ph + k * t)


@dataclass(frozen=True)
class MziCoupler:
    """Asymmetric MZI used as a tunable ring-bus coupler.

    Two identical directional couplers `dc` joined by arms whose lengths
    differ by delta_len_um; a heater of length heater_len_um on the long
    arm applies a differential thermo-optic phase with coefficient
    dn_dT_per_K.  delta_T_K is the default thermal drive; operations accept
    an explicit override.

    dispersion/width_nm/t_base_K provide beta(lambda) of the arm waveguide
    at the interferometer's ambient temperature.
    """

    dc: DirectionalCoupler
    delta_len_um: float
    heater_len_um: float
    delta_T_K: float
    dn_dT_per_K: float
    dispersion: DispersionModel
    width_nm: float
    t_base_K: float

    def arm_phase(self, lambda_nm, delta_T_K=None):
        """Differential arm phase beta*dL + (2 pi/lambda) dn/dT dT L_h (rad)."""
        dT = self.delta_T_K if delta_T_K is None else delta_T_K
        lam = np.asarray(lambda_nm, dtype=float)
        beta = self.dispersion.propagation_constant(lam, self.t_base_K, self.width_nm)
        geo = beta * self.delta_len_um * 1e-6
        thermal = (TWO_PI / (lam * 1e-9)) * self.dn_dT_per_K * dT * (
            self.heater_len_um * 1e-6
        )
        return geo + thermal

    def _field_terms(self, lambda_nm, delta_T_K):
        """(k, t, e^{i dtheta}): field cross and through amplitudes of C, arm phasor."""
        lam = np.asarray(lambda_nm, dtype=float)
        k = np.sqrt(self.dc.cross_coupling(lam))
        t = np.sqrt(1.0 - k**2)
        return k, t, np.exp(1j * self.arm_phase(lam, delta_T_K))

    def transfer(self, lambda_nm, delta_T_K=None):
        """Composite 2x2 matrix C . diag(e^{i dtheta}, 1) . C of the coupler C.

        Only the differential arm phase is modeled; the common arm phase
        belongs to the ring round trip.  Returns shape (2, 2) for scalar
        input, (n, 2, 2) for an n-vector of wavelengths.
        """
        k, t, ph = self._field_terms(lambda_nm, delta_T_K)
        m00 = t * t * ph - k * k
        m01 = 1j * (k * t * ph + t * k)
        m10 = _m10(k, t, ph)
        m11 = -k * k * ph + t * t
        out = np.stack(
            [np.stack([m00, m01], axis=-1), np.stack([m10, m11], axis=-1)], axis=-2
        )
        return out

    def cross_coupling(self, lambda_nm, delta_T_K=None):
        """Composite power cross-coupling K(lambda, dT) = |M10|^2 in [0, 1]."""
        return np.abs(_m10(*self._field_terms(lambda_nm, delta_T_K))) ** 2


@dataclass(frozen=True)
class RingCavity:
    """Ring resonator with a periodically poled section.

    The poling-compensated mode-number offset M = f_ppln * L_ring / Lambda
    is stored exactly; `m_offset` is its nearest integer and
    `m_offset_residual` the rounding gap (a warning is emitted beyond 0.05).
    """

    length_um: float
    width_nm: float
    alpha_prop_dB_per_m: float
    ppln_fraction: float
    poling_period_um: float

    def __post_init__(self):
        if self.length_um <= 0.0:
            raise DomainError("ring length must be positive")
        if not 0.0 <= self.ppln_fraction <= 1.0:
            raise DomainError("ppln_fraction must lie in [0, 1]")
        if self.poling_period_um <= 0.0:
            raise DomainError("poling period must be positive")
        if self.alpha_prop_dB_per_m < 0.0:
            raise DomainError("propagation loss must be >= 0")
        if abs(self.m_offset_residual) > 0.05:
            warnings.warn(
                f"poling-compensated mode number {self.m_offset_exact:.4f} is "
                f"{self.m_offset_residual:+.3f} away from integer {self.m_offset}; "
                "quasi-phase matching treats it as the rounded integer",
                stacklevel=2,
            )

    @property
    def length_m(self) -> float:
        return self.length_um * 1e-6

    @property
    def m_offset_exact(self) -> float:
        return self.ppln_fraction * self.length_um / self.poling_period_um

    @property
    def m_offset(self) -> int:
        return int(round(self.m_offset_exact))

    @property
    def m_offset_residual(self) -> float:
        return self.m_offset_exact - self.m_offset


@dataclass(frozen=True)
class Device:
    """A complete converter: dispersion model + ring + (optionally) MZI coupler."""

    dispersion: DispersionModel
    ring: RingCavity
    mzi: MziCoupler | None = None

    @property
    def width_nm(self) -> float:
        return self.ring.width_nm


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def _rates(device: Device, lambda_nm, t_ring_K, delta_T_K=None):
    """(K, kappa_ex = K v_g / L_ring, kappa_0) from one v_g; K = kappa_ex = 0.0 bare."""
    ring = device.ring
    vg = device.dispersion.group_velocity(lambda_nm, t_ring_K, ring.width_nm)
    kappa_0 = db_per_m_to_kappa(ring.alpha_prop_dB_per_m, vg)
    if device.mzi is None:
        return 0.0, 0.0, kappa_0
    K = device.mzi.cross_coupling(lambda_nm, delta_T_K)
    return K, K * vg / ring.length_m, kappa_0


def coupling_ratio(device: Device, lambda_nm, t_ring_K, delta_T_K=None):
    """Coupling ratio eta = kappa_ex / (kappa_ex + kappa_0) of one cavity mode.

    Rates as in mode_rates.  Warns when K exceeds the weak-coupling bound
    instead of failing.
    """
    K, kappa_ex, kappa_0 = _rates(device, lambda_nm, t_ring_K, delta_T_K)
    if np.any(np.asarray(K) > WEAK_COUPLING_K_MAX):
        warnings.warn(
            f"cross-coupling K={np.max(K):.3f} exceeds the weak-coupling bound "
            f"{WEAK_COUPLING_K_MAX}; the rate mapping kappa_ex = K v_g / L degrades",
            stacklevel=2,
        )
    return kappa_ex / (kappa_ex + kappa_0)


def mode_rates(device: Device, lambda_nm, t_ring_K, delta_T_K=None):
    """(kappa_ex, kappa_0) in rad/s for a cavity mode at lambda_nm (0.0 kappa_ex bare)."""
    _, kappa_ex, kappa_0 = _rates(device, lambda_nm, t_ring_K, delta_T_K)
    return float(kappa_ex), float(kappa_0)


def ring_spectrum(device: Device, lambda_grid_nm, t_ring_K):
    """All-pass power transmission sampled on a wavelength grid.

    Round-trip phase 2 pi n_eff(lambda, T_ring) L / lambda, round-trip field
    amplitude from the propagation loss, composite MZI coupler at its own
    thermal drive.
    """
    lam = np.asarray(lambda_grid_nm, dtype=float)
    if lam.size < 2:
        raise DomainError("spectrum needs at least 2 wavelength samples")
    ring = device.ring
    n = device.dispersion.n_eff(lam, t_ring_K, ring.width_nm)
    phi = TWO_PI * n * ring.length_m / (lam * 1e-9)
    amp = 10.0 ** (-ring.alpha_prop_dB_per_m * ring.length_m / 20.0)
    rt = amp * np.exp(1j * phi)

    m = device.mzi.transfer(lam)
    m00, m01 = m[..., 0, 0], m[..., 0, 1]
    m10, m11 = m[..., 1, 0], m[..., 1, 1]
    out = m00 + m01 * m10 * rt / (1.0 - m11 * rt)
    return np.abs(out) ** 2


# m * lambda = n_eff(lambda, T) * L, solved below for m, lambda and T.  The
# solver's roots and verify_match's stored lines keep |residual| <= RESIDUAL_TOL.
RESIDUAL_TOL = 1e-9


def _length_nm(device: Device) -> float:
    return device.ring.length_m * 1e9


def _m_range(device: Device, band_nm, t_K) -> range:
    """Azimuthal numbers whose resonance can fall inside band_nm at temperatures t_K.

    m(lambda, T) = n_eff(lambda, T) * L / lambda falls with lambda (n_g > 0)
    and is linear in T, so its values at the band edges and the extreme
    temperatures bound every line in the band.
    """
    lam = np.asarray(band_nm, dtype=float)[:, None]
    t = np.asarray(t_K, dtype=float).reshape(1, -1)
    m = device.dispersion.n_eff(lam, t, device.width_nm) * _length_nm(device) / lam
    if not np.isfinite(m).all():
        raise DomainError(f"mode numbers of a {device.ring.length_um:g} um ring "
                          f"in band {tuple(band_nm)} nm are beyond float range")
    return range(int(math.floor(m.min())), int(math.ceil(m.max())) + 1)


def resonance_comb(device: Device, band_nm, t_ring_K):
    """All (m, lambda_m) resonances with lambda_m inside band_nm, sorted by lambda.

    Each pair satisfies m * lambda_m = n_eff(lambda_m, T) * L to machine
    precision; consecutive azimuthal numbers differ by 1.
    """
    return resonance_combs(device, [band_nm], t_ring_K)[0]


def resonance_combs(device: Device, bands_nm, t_ring_K):
    """resonance_comb of each band in bands_nm, with every line root-solved in one call."""
    model, ring = device.dispersion, device.ring
    bands, ms = [], []
    for band_nm in bands_nm:
        lo, hi = float(band_nm[0]), float(band_nm[1])
        if not lo < hi:
            raise DomainError(f"empty wavelength band {band_nm}")
        model._check_domain(np.array([lo, hi]), t_ring_K)
        bands.append((lo, hi))
        ms.append(np.asarray(_m_range(device, (lo, hi), t_ring_K)))
    lams = solve_resonance_wavelength(device, np.concatenate(ms), t_ring_K)
    ends = np.cumsum([band_ms.size for band_ms in ms])
    combs = []
    for (lo, hi), m, lam in zip(bands, ms, np.split(lams, ends[:-1])):
        inside = (lam >= lo) & (lam <= hi)
        pairs = sorted(zip(m[inside].tolist(), lam[inside].tolist()), key=lambda p: p[1])
        if not pairs:
            fsr = model.fsr_hz(0.5 * (lo + hi), t_ring_K, ring.width_nm, ring.length_m)
            band_hz = freq_hz(lo) - freq_hz(hi)
            if band_hz < fsr:
                raise NoResonance(
                    f"band [{lo}, {hi}] nm is narrower than one FSR and contains no resonance"
                )
            raise NoResonance(f"band [{lo}, {hi}] nm contains no resonance")
        combs.append(pairs)
    return combs


def resonance_residual(device: Device, m, lambda_nm, t_K):
    """(m*lambda - n_eff(lambda, T)*L) / (m*lambda) from raw dispersion, with no solve."""
    m_lam = np.asarray(m, dtype=float) * np.asarray(lambda_nm, dtype=float)
    n = device.dispersion._n_eff_unchecked(lambda_nm, t_K, device.width_nm)
    return (m_lam - n * _length_nm(device)) / m_lam


def solve_resonance_wavelength(device: Device, m, t_K):
    """Root of m*lambda = n_eff(lambda, T)*L for fixed azimuthal number m (nm).

    Vectorized over t_K (and m when both are arrays of equal shape).
    Fixed-point iterations then two Newton polishes; NumericalFailure names
    the worst (m, T) when a root's |resonance_residual| exceeds RESIDUAL_TOL
    or is NaN (the fixed point need not contract).
    """
    model, width_nm, length_nm = device.dispersion, device.width_nm, _length_nm(device)
    m_arr = np.asarray(m, dtype=float)
    lo, hi = model.lambda_window_nm
    lam = np.full(np.broadcast(m_arr, np.asarray(t_K, dtype=float)).shape, 0.0)
    # crude seed (n ~ 2), clipped into the window so the first n_eff
    # evaluations stay inside the fitted basin
    lam = np.clip(lam + length_nm * 2.0 / m_arr, lo, hi)
    for _ in range(13):
        lam = model._n_eff_unchecked(lam, t_K, width_nm) * length_nm / m_arr
    for _ in range(2):
        f = m_arr * lam - model._n_eff_unchecked(lam, t_K, width_nm) * length_nm
        fp = m_arr - model._dn_dlambda_unchecked(lam, t_K, width_nm) * length_nm
        lam = lam - f / fp
    r = np.abs(resonance_residual(device, m_arr, lam, t_K))
    if not np.all(r <= RESIDUAL_TOL):
        k = np.argmax(np.where(np.isnan(r), np.inf, r))
        m_k, t_k = (np.broadcast_to(x, lam.shape).flat[k] for x in (m_arr, t_K))
        raise NumericalFailure(f"resonance root of m={m_k:.0f} at T={t_k} K has "
                               f"relative residual {r.flat[k]:.3g} > {RESIDUAL_TOL:g}")
    if np.isscalar(m) and np.isscalar(t_K):
        return float(lam)
    return lam


def _temperature_at(device: Device, m, lambda_nm):
    """Exact temperature at which comb line m resonates at lambda_nm (K).

    n_eff is linear in T, so m*lambda = n_eff(lambda, T)*L solves in closed
    form: T = T_ref + (m*lambda/L - P_w(u)) / (dn/dT).  Callers ensure
    dn/dT != 0.
    """
    model = device.dispersion
    lam = np.asarray(lambda_nm, dtype=float)
    n_ref = model._n_eff_unchecked(lam, model.t_ref_K, device.width_nm)
    return model.t_ref_K + (m * lam / _length_nm(device) - n_ref) / model.dn_dT_per_K


def qpm_mismatch(m_s: int, m_p: int, m_i: int, m_offset: int) -> int:
    """Integer quasi-phase-matching mismatch m_s - m_p - m_i - M (0 = matched)."""
    return m_s - m_p - m_i - m_offset
