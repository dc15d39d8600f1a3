"""Physical constants and unit helpers used throughout the package.

Conventions:
  * wavelengths at every interface are vacuum wavelengths in nm,
  * all loss/coupling rates are angular *energy* decay rates in rad/s
    (full linewidth; the field decays at rate kappa/2),
  * reports divide by 2*pi to quote linewidths in ordinary Hz.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

C_M_PER_S = 299_792_458.0        # speed of light in vacuum, exact
HBAR_J_S = 1.054_571_817e-34     # reduced Planck constant (2019 SI)

TWO_PI = 2.0 * math.pi

# Power attenuation alpha_dB (dB/m) -> alpha (1/m, power): alpha = alpha_dB * ln(10)/10
DB_TO_NEPERS_POWER = math.log(10.0) / 10.0

# Largest array a search or a grid may build: 2**24 float64 cells, 128 MiB.
MAX_GRID_CELLS = 2**24


def freq_hz(lambda_nm) -> float:
    """Ordinary frequency (Hz) of a vacuum wavelength given in nm."""
    return C_M_PER_S / (lambda_nm * 1e-9)


def db_per_m_to_kappa(alpha_db_per_m: float, group_velocity_m_s: float) -> float:
    """Propagation loss (dB/m) -> intrinsic energy decay rate kappa_0 (rad/s);
    DomainError where it overflows."""
    with np.errstate(over="ignore"):
        kappa_0 = alpha_db_per_m * DB_TO_NEPERS_POWER * group_velocity_m_s
    if not np.isfinite(kappa_0).all():
        raise DomainError(f"intrinsic decay rate of a {alpha_db_per_m:g} dB/m propagation "
                          "loss is beyond float range")
    return kappa_0
