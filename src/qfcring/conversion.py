"""Triply resonant three-wave-mixing conversion core.

Rate convention: every kappa is a total *energy* decay rate in rad/s (the
full linewidth); fields decay at kappa/2.  Detunings are drive-minus-
resonance in rad/s.  With that convention the closed forms below and the
time-domain mean-field integrator agree exactly.

Closed forms (undepleted pump):

    |alpha|^2 = kappa_p_ex (P/hbar w_p) / (delta_p^2 + (kappa_p/2)^2)
    C         = 4 g0^2 |alpha|^2 / (kappa_s kappa_i)
    eta_int   = 4C / |(1 + 2i d_s/kappa_s)(1 + 2i (d_s - d_p - d)/kappa_i) + C|^2
    eta_ex    = (kappa_s_ex/kappa_s)(kappa_i_ex/kappa_i) eta_int
    P_max     = hbar w_p kappa_p0 kappa_s0 kappa_i0
                / (16 g0^2 eta_p (1-eta_p)(1-eta_s)(1-eta_i))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR_J_S
from .errors import (
    DegenerateCoupling,
    DomainError,
    NonFinite,
    NonphysicalRate,
    NumericalFailure,
    StepSizeTooLarge,
)

ROLES = ("pump", "signal", "idler")


@dataclass(frozen=True)
class ModeChannel:
    """One interacting cavity mode.

    omega: carrier angular frequency (rad/s); m: azimuthal number;
    kappa_ex/kappa_0: extrinsic/intrinsic energy decay rates (rad/s);
    delta: drive-minus-resonance detuning (rad/s).
    """

    role: str
    omega: float
    m: int
    kappa_ex: float
    kappa_0: float
    delta: float = 0.0

    def __post_init__(self):
        if self.role not in ROLES:
            raise DomainError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.omega <= 0.0:
            raise DomainError("carrier frequency must be positive")
        if self.kappa_ex < 0.0 or self.kappa_0 < 0.0:
            raise NonphysicalRate("decay rates must be >= 0")
        if self.kappa_tot <= 0.0:
            raise NonphysicalRate("total decay rate must be positive")

    @property
    def kappa_tot(self) -> float:
        return self.kappa_ex + self.kappa_0

    @property
    def eta(self) -> float:
        return self.kappa_ex / self.kappa_tot


@dataclass(frozen=True)
class TwmSystem:
    """Pump/signal/idler channels + vacuum coupling rate + drive.

    mismatch is delta = w_s,res - w_p,res - w_i,res (rad/s) between the
    three cavity resonances; pump_power_W the drive power reaching the bus.
    """

    pump: ModeChannel
    signal: ModeChannel
    idler: ModeChannel
    g0: float
    mismatch: float = 0.0
    pump_power_W: float = 0.0

    def __post_init__(self):
        roles = (self.pump.role, self.signal.role, self.idler.role)
        if roles != ROLES:
            raise DomainError(f"channels must be (pump, signal, idler), got {roles}")
        if self.g0 < 0.0:
            raise DomainError("vacuum coupling rate must be >= 0")
        if self.pump_power_W < 0.0:
            raise DomainError("pump power must be >= 0")

    def with_power(self, pump_power_W: float) -> "TwmSystem":
        return replace(self, pump_power_W=pump_power_W)


def intracavity_pump(pump_power_W, omega_p, kappa_p, kappa_p_ex, delta_p=0.0):
    """Steady-state intracavity pump photon number |alpha|^2."""
    if np.any(np.asarray(pump_power_W) < 0.0):
        raise DomainError("pump power must be >= 0")
    if kappa_p <= 0.0:
        raise NonphysicalRate("kappa_p must be positive")
    if kappa_p_ex > kappa_p:
        raise NonphysicalRate(
            f"kappa_p_ex={kappa_p_ex} exceeds kappa_p={kappa_p}; the extrinsic "
            "rate cannot exceed the total"
        )
    flux = np.asarray(pump_power_W) / (HBAR_J_S * omega_p)
    return kappa_p_ex * flux / (delta_p**2 + (kappa_p / 2.0) ** 2)


def cooperativity(sys: TwmSystem) -> float:
    """C = 4 g0^2 |alpha|^2 / (kappa_s kappa_i) at the system's pump power."""
    return float(_efficiencies(sys, sys.pump_power_W)[0])


def external_efficiency(sys: TwmSystem):
    """(eta_int, eta_ex) at the system's detunings and pump power."""
    _, eta_int, eta_ex = _efficiencies(sys, sys.pump_power_W)
    return float(eta_int), float(eta_ex)


def _efficiencies(sys: TwmSystem, powers_W):
    """(C, eta_int, eta_ex) over an array of drive powers: the one closed form.

    |bracket|^2 is float_power(hypot(re, im), 2.0), bit for bit Python's
    abs(bracket) ** 2 (libm hypot, then libm pow); numpy's ** 2 and x * x
    square exactly and differ from pow in the last bit.
    """
    n_pump = intracavity_pump(
        powers_W, sys.pump.omega, sys.pump.kappa_tot, sys.pump.kappa_ex, sys.pump.delta,
    )
    ks, ki = sys.signal.kappa_tot, sys.idler.kappa_tot
    C = 4.0 * sys.g0**2 * n_pump / (ks * ki)
    d_s = sys.signal.delta
    d_i_eff = d_s - sys.pump.delta - sys.mismatch
    bracket = (1.0 + 2j * d_s / ks) * (1.0 + 2j * d_i_eff / ki)
    eta_int = 4.0 * C / np.float_power(np.hypot(bracket.real + C, bracket.imag), 2.0)
    eta_ex = sys.signal.eta * sys.idler.eta * eta_int
    return C, eta_int, eta_ex


def pump_power_unity_cooperativity(sys: TwmSystem) -> float:
    """Drive power (W) at which C = 1 with the pump on resonance."""
    etas = {
        "pump": sys.pump.eta, "signal": sys.signal.eta, "idler": sys.idler.eta,
    }
    for role, eta in etas.items():
        if eta <= 0.0 or eta >= 1.0:
            raise DegenerateCoupling(
                f"{role} coupling ratio eta={eta} makes the unity-cooperativity "
                "power singular; need 0 < eta < 1"
            )
    if sys.g0 <= 0.0:
        raise DegenerateCoupling("g0 must be positive for a finite pump power")
    num = sys.pump.kappa_0 * sys.signal.kappa_0 * sys.idler.kappa_0
    den = (
        16.0 * sys.g0**2 * etas["pump"] * (1.0 - etas["pump"])
        * (1.0 - etas["signal"]) * (1.0 - etas["idler"])
    )
    return num / den * HBAR_J_S * sys.pump.omega


def g0_effective(g0_full: float, ppln_fraction: float) -> float:
    """Vacuum rate scaled by the poled length fraction of the ring."""
    if not 0.0 <= ppln_fraction <= 1.0:
        raise DomainError("ppln_fraction must lie in [0, 1]")
    return g0_full * ppln_fraction


def efficiency_vs_power(sys: TwmSystem, powers_W):
    """Rows (P, C, eta_int, eta_ex) over a power grid, as a (n, 4) array."""
    powers = np.asarray(powers_W, dtype=float).ravel()
    return np.column_stack([powers, *_efficiencies(sys, powers)])


# --------------------------------------------------------------------------
# Time-domain mean-field integrator (verification oracle)
# --------------------------------------------------------------------------

_RESIDUAL_TOL = 1e-9  # relative equilibrium residual of `converged`
_CHECK_EVERY = 200    # steady-state steps between two convergence tests


@dataclass(frozen=True)
class MeanFieldTrajectory:
    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    converged: bool

    def final(self):
        return self.a[-1], self.b[-1], self.c[-1]


def evolve_mean_field(sys: TwmSystem, initial=(0j, 0j, 0j), dt=None, steps=None,
                      signal_flux=0.0, sample_stride=1):
    """Fixed-step RK4 integration of the mean-field equations of motion.

        da/dt = (i d_p - k_p/2) a - i g b c* + sqrt(k_p_ex) s_in
        db/dt = (i d_b - k_s/2) b - i g a c  + sqrt(k_s_ex) s_b
        dc/dt = (i d_c - k_i/2) c - i g a* b

    s_in = sqrt(P/hbar w_p) is the pump drive; signal_flux (photons/s) adds
    the weak signal input s_b = sqrt(signal_flux) used by the steady-state
    conversion oracle.  The rotating-frame detunings are the channels'
    `delta` fields with d_c = d_s - d_p - mismatch for the idler.

    Raises StepSizeTooLarge when dt * max(kappa, g|a|, |delta|) >= 0.1 and
    NonFinite if amplitudes overflow.  Bitwise deterministic for fixed dt; the
    last step is always sampled, so resuming from final() is bit-identical.
    converged: |f_x| < _RESIDUAL_TOL * min(kappa) * |x| at the end for x = a, b, c.
    """
    if steps is None or steps < 1:
        raise DomainError("steps must be >= 1")
    if dt is None or dt <= 0.0:
        raise DomainError("dt must be positive")

    kp, ks, ki = sys.pump.kappa_tot, sys.signal.kappa_tot, sys.idler.kappa_tot
    dp = sys.pump.delta
    db_ = sys.signal.delta
    dc_ = sys.signal.delta - sys.pump.delta - sys.mismatch
    g = sys.g0
    drive_p = math.sqrt(sys.pump.kappa_ex * sys.pump_power_W / (HBAR_J_S * sys.pump.omega))
    drive_b = math.sqrt(sys.signal.kappa_ex * signal_flux)

    a, b, c = (complex(x) for x in initial)
    a_scale = max(abs(a), abs(b), abs(c), 4.0 * drive_p / kp if kp > 0 else 0.0)
    rate = max(kp, ks, ki, abs(dp), abs(db_), abs(dc_), g * a_scale)
    if dt * rate >= 0.1:
        raise StepSizeTooLarge(
            f"dt*max-rate = {dt * rate:.3g} >= 0.1; reduce dt below {0.1 / rate:.3g}"
        )

    cp = 1j * dp - 0.5 * kp
    cb = 1j * db_ - 0.5 * ks
    cc = 1j * dc_ - 0.5 * ki

    def rhs(ya, yb, yc):
        return (
            cp * ya - 1j * g * yb * yc.conjugate() + drive_p,
            cb * yb - 1j * g * ya * yc + drive_b,
            cc * yc - 1j * g * ya.conjugate() * yb,
        )

    n_samples = -(-steps // sample_stride) + 1  # every stride-th step and the last
    times = np.empty(n_samples)
    traj_a = np.empty(n_samples, dtype=complex)
    traj_b = np.empty(n_samples, dtype=complex)
    traj_c = np.empty(n_samples, dtype=complex)
    times[0], traj_a[0], traj_b[0], traj_c[0] = 0.0, a, b, c

    half = 0.5 * dt
    sixth = dt / 6.0
    idx = 1
    for step in range(1, steps + 1):
        k1a, k1b, k1c = rhs(a, b, c)
        k2a, k2b, k2c = rhs(a + half * k1a, b + half * k1b, c + half * k1c)
        k3a, k3b, k3c = rhs(a + half * k2a, b + half * k2b, c + half * k2c)
        k4a, k4b, k4c = rhs(a + dt * k3a, b + dt * k3b, c + dt * k3c)
        a = a + sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
        b = b + sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
        c = c + sixth * (k1c + 2.0 * (k2c + k3c) + k4c)
        if step % 1000 == 0 or step == steps:
            mags = (abs(a), abs(b), abs(c))
            if not all(math.isfinite(m) for m in mags):
                raise NonFinite(f"amplitudes diverged at step {step}")
            if dt * g * max(mags) >= 0.1:
                raise StepSizeTooLarge(
                    f"nonlinear rate g|a| grew past the stability bound at step {step}"
                )
        if step % sample_stride == 0 or step == steps:
            times[idx] = step * dt
            traj_a[idx], traj_b[idx], traj_c[idx] = a, b, c
            idx += 1

    tol = _RESIDUAL_TOL * min(kp, ks, ki)
    converged = all(abs(f) < tol * abs(x) for f, x in zip(rhs(a, b, c), (a, b, c)))
    return MeanFieldTrajectory(times, traj_a, traj_b, traj_c, converged)


def steady_state_conversion(sys: TwmSystem, steps=None):
    """Driven steady-state (eta_int, eta_ex) extracted from the integrator.

    Drives the signal with a photon flux far below the pump's so the
    linearized regime holds, integrates to steady state, and reports the
    output-idler flux over the input-signal flux:
    eta_ex = kappa_i_ex |c_ss|^2 / signal_flux.

    The step is dt = 0.05/fast, fast covering every rate the step-size guard
    measures (d_c and g * 4 sqrt(k_p_ex) s_in / k_p too); RK4's fixed point is
    the exact steady state at any stable dt.  Chunks of _CHECK_EVERY steps
    resume from the last until one ends converged; steps (default 320/slow of
    time, slow the smallest kappa) is the budget, then NumericalFailure.
    """
    kp = sys.pump.kappa_tot
    drive_p = math.sqrt(sys.pump.kappa_ex * sys.pump_power_W / (HBAR_J_S * sys.pump.omega))
    # target steady |b| ~ 1e-3 |alpha|, |alpha|^2 = s_in^2 / (d_p^2 + k_p^2/4)
    n_pump = drive_p**2 / (sys.pump.delta**2 + 0.25 * kp**2)
    signal_flux = (1e-6 * n_pump * sys.signal.kappa_tot**2
                   / (4.0 * max(sys.signal.kappa_ex, 1e-300)))
    d_c = sys.signal.delta - sys.pump.delta - sys.mismatch
    slow = min(kp, sys.signal.kappa_tot, sys.idler.kappa_tot)
    fast = max(kp, sys.signal.kappa_tot, sys.idler.kappa_tot, abs(sys.pump.delta),
               abs(sys.signal.delta), abs(d_c), sys.g0 * 4.0 * drive_p / kp)
    dt = 0.05 / fast
    steps = int(320.0 / (slow * dt)) + 1 if steps is None else steps
    state = (0j, 0j, 0j)
    for _ in range(-(-steps // _CHECK_EVERY)):
        traj = evolve_mean_field(sys, initial=state, dt=dt, steps=_CHECK_EVERY,
                                 signal_flux=signal_flux, sample_stride=_CHECK_EVERY)
        state = traj.final()
        if traj.converged:
            break
    else:
        raise NumericalFailure("steady state not reached; increase steps")
    eta_ex = sys.idler.kappa_ex * abs(state[2]) ** 2 / signal_flux
    eta_int = eta_ex / (sys.signal.eta * sys.idler.eta)
    return eta_int, eta_ex
