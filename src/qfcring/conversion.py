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


def _check_rate_powers(owner: str, power: int, rates: dict) -> None:
    """DomainError naming the first rate whose power-th power is not a finite float.

    The closed forms raise Python floats to powers, and float ** raises
    OverflowError where numpy would give inf, so each channel checks its
    rates once, where it is built.
    """
    for name, value in rates.items():
        try:
            finite = math.isfinite(value**power)
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"{owner} {name}={value:.6g} rad/s is beyond float range"
                              + (f" at power {power}" if power > 1 else ""))


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
        owner = f"{self.role} mode"
        _check_rate_powers(owner, 1, {"omega": self.omega})
        _check_rate_powers(owner, 2, {"kappa_ex": self.kappa_ex, "kappa_0": self.kappa_0,
                                     "kappa_tot": self.kappa_tot, "delta": self.delta})

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
        roles = tuple(ch.role for ch in self.channels)
        if roles != ROLES:
            raise DomainError(f"channels must be (pump, signal, idler), got {roles}")
        if self.g0 < 0.0:
            raise DomainError("vacuum coupling rate must be >= 0")
        _check_rate_powers("conversion system", 1, {"mismatch": self.mismatch})
        _check_rate_powers("conversion system", 2, {"g0": self.g0})
        if self.pump_power_W < 0.0:
            raise DomainError("pump power must be >= 0")

    @property
    def channels(self) -> tuple:
        """The pump, signal and idler ModeChannels, in that order."""
        return (self.pump, self.signal, self.idler)

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
    flux = _photon_flux(pump_power_W, omega_p)
    return kappa_p_ex * flux / (delta_p**2 + (kappa_p / 2.0) ** 2)


def _photon_flux(pump_power_W, omega):
    """P / (hbar w) in photons/s; DomainError where it overflows."""
    with np.errstate(over="ignore"):
        flux = np.asarray(pump_power_W) / (HBAR_J_S * omega)
    if not np.isfinite(flux).all():
        raise DomainError(f"photon flux of a {np.max(pump_power_W):.6g} W drive at "
                          f"{omega:.6g} rad/s is beyond float range")
    return flux


def external_efficiency(sys: TwmSystem):
    """(eta_int, eta_ex) at the system's detunings and pump power."""
    _, eta_int, eta_ex = _efficiencies(sys, sys.pump_power_W)
    return float(eta_int), float(eta_ex)


def _detunings(sys: TwmSystem):
    """Rotating-frame detunings (d_p, d_b, d_c), d_c = d_s - d_p - mismatch."""
    return sys.pump.delta, sys.signal.delta, sys.signal.delta - sys.pump.delta - sys.mismatch


def _efficiencies(sys: TwmSystem, powers_W):
    """(C, eta_int, eta_ex) over an array of drive powers: the one closed form.

    |bracket|^2 is float_power(hypot(re, im), 2.0), bit for bit Python's
    abs(bracket) ** 2 (libm hypot, then libm pow); numpy's ** 2 and x * x
    square exactly and differ from pow in the last bit.
    """
    ks, ki = sys.signal.kappa_tot, sys.idler.kappa_tot
    _, d_s, d_c = _detunings(sys)
    bracket = (1.0 + 2j * d_s / ks) * (1.0 + 2j * d_c / ki)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite |bracket|^2 is refused
        n_pump = intracavity_pump(
            powers_W, sys.pump.omega, sys.pump.kappa_tot, sys.pump.kappa_ex, sys.pump.delta,
        )
        C = 4.0 * sys.g0**2 * n_pump / (ks * ki)
        square = np.float_power(np.hypot(bracket.real + C, bracket.imag), 2.0)
    if not np.isfinite(square).all():
        raise DomainError(f"conversion closed form at a {np.max(powers_W):.6g} W drive "
                          "is beyond float range")
    eta_int = 4.0 * C / square
    eta_ex = sys.signal.eta * sys.idler.eta * eta_int
    return C, eta_int, eta_ex


def pump_power_unity_cooperativity(sys: TwmSystem) -> float:
    """Drive power (W) at which C = 1 with the pump on resonance."""
    etas = {ch.role: ch.eta for ch in sys.channels}
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
    if den == 0.0:
        raise DegenerateCoupling(f"g0={sys.g0:g} rad/s is so small that the unity-cooperativity "
                                 "power is beyond float range")
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
_POLISH_GATE = 1e-3   # relative residual a chunk must reach before a Newton polish
_NEWTON_ITERATIONS = 4
_HORIZON = 320.0      # steady-state budget: integration time in units of 1/min(kappa)


def _pump_drive(sys: TwmSystem) -> float:
    """sqrt(k_p_ex) s_in, the pump's drive term, with s_in = sqrt(P/hbar w_p)."""
    return math.sqrt(sys.pump.kappa_ex * sys.pump_power_W / (HBAR_J_S * sys.pump.omega))


def _fastest_rate(sys: TwmSystem, state=(0j, 0j, 0j)) -> float:
    """The fastest rate an RK4 step resolves: each kappa_tot, |d_p|, |d_b|, |d_c|,
    g|x| for each amplitude x of state and the pump bound g 4 sqrt(k_p_ex) s_in / k_p."""
    return max(*(ch.kappa_tot for ch in sys.channels), *(abs(d) for d in _detunings(sys)),
               *(sys.g0 * abs(x) for x in state),
               sys.g0 * 4.0 * _pump_drive(sys) / sys.pump.kappa_tot)


def _mean_field(sys: TwmSystem, signal_flux):
    """(rhs, jacobian, rk4) of the mean-field equations, the one implementation.

    rhs(a, b, c) is (da/dt, db/dt, dc/dt); jacobian(a, b, c) is the 6x6
    d(f, f*)/d(a, b, c, a*, b*, c*) as nested lists of Python complex.
    rk4(a, b, c, dt, n) is the state after n RK4 steps of rhs, with rhs
    written inline in its own operation order.  Its step constants are
    complex: on CPython <= 3.13, float * complex converts the float to
    (x, 0.0) first, so the bits are rhs's while the float's NotImplemented
    round trip is skipped.
    """
    d_p, d_b, d_c = _detunings(sys)
    cp = 1j * d_p - 0.5 * sys.pump.kappa_tot
    cb = 1j * d_b - 0.5 * sys.signal.kappa_tot
    cc = 1j * d_c - 0.5 * sys.idler.kappa_tot
    ig = 1j * sys.g0
    drive_p = _pump_drive(sys)
    drive_b = math.sqrt(sys.signal.kappa_ex * signal_flux)

    def rhs(ya, yb, yc):
        return (
            cp * ya - ig * yb * yc.conjugate() + drive_p,
            cb * yb - ig * ya * yc + drive_b,
            cc * yc - ig * ya.conjugate() * yb,
        )

    def jacobian(ya, yb, yc):
        top = [[cp, -ig * yc.conjugate(), 0j, 0j, 0j, -ig * yb],
               [-ig * yc, cb, -ig * ya, 0j, 0j, 0j],
               [0j, -ig * ya.conjugate(), cc, -ig * yb, 0j, 0j]]
        return top + [[x.conjugate() for x in row[3:] + row[:3]] for row in top]

    def rk4(ya, yb, yc, dt, n):
        half, full, sixth, two = complex(0.5 * dt), complex(dt), complex(dt / 6.0), 2 + 0j
        for _ in range(n):
            k1a = cp * ya - ig * yb * yc.conjugate() + drive_p
            k1b = cb * yb - ig * ya * yc + drive_b
            k1c = cc * yc - ig * ya.conjugate() * yb
            ta, tb, tc = ya + half * k1a, yb + half * k1b, yc + half * k1c
            k2a = cp * ta - ig * tb * tc.conjugate() + drive_p
            k2b = cb * tb - ig * ta * tc + drive_b
            k2c = cc * tc - ig * ta.conjugate() * tb
            ta, tb, tc = ya + half * k2a, yb + half * k2b, yc + half * k2c
            k3a = cp * ta - ig * tb * tc.conjugate() + drive_p
            k3b = cb * tb - ig * ta * tc + drive_b
            k3c = cc * tc - ig * ta.conjugate() * tb
            ta, tb, tc = ya + full * k3a, yb + full * k3b, yc + full * k3c
            k4a = cp * ta - ig * tb * tc.conjugate() + drive_p
            k4b = cb * tb - ig * ta * tc + drive_b
            k4c = cc * tc - ig * ta.conjugate() * tb
            ya = ya + sixth * (k1a + two * (k2a + k3a) + k4a)
            yb = yb + sixth * (k1b + two * (k2b + k3b) + k4b)
            yc = yc + sixth * (k1c + two * (k2c + k3c) + k4c)
        return ya, yb, yc

    return rhs, jacobian, rk4


def _settled(rhs, state, rel, kappa_min):
    """|f_x| < rel * kappa_min * |x| for each amplitude x of state."""
    tol = rel * kappa_min
    return all(abs(f) < tol * abs(x) for f, x in zip(rhs(*state), state))


def _count(name: str, count) -> int:
    """count as an int; DomainError unless it is an integer >= 1 (not a bool)."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {count!r}")
    return int(count)


def evolve_mean_field(sys: TwmSystem, initial=(0j, 0j, 0j), dt=None, steps=None,
                      signal_flux=0.0):
    """Fixed-step RK4 integration of the mean-field equations of motion.

        da/dt = (i d_p - k_p/2) a - i g b c* + sqrt(k_p_ex) s_in
        db/dt = (i d_b - k_s/2) b - i g a c  + sqrt(k_s_ex) s_b
        dc/dt = (i d_c - k_i/2) c - i g a* b

    s_in = sqrt(P/hbar w_p) is the pump drive; signal_flux (photons/s) adds
    the weak signal input s_b = sqrt(signal_flux) used by the steady-state
    conversion oracle.  The rotating-frame detunings are the channels'
    `delta` fields with d_c = d_s - d_p - mismatch for the idler.

    Returns ((a, b, c), converged): the state after `steps` steps, in Python
    complex, and whether |f_x| < _RESIDUAL_TOL * min(kappa) * |x| there for
    x = a, b, c.  Raises StepSizeTooLarge when dt * _fastest_rate(sys, state)
    >= 0.1, for the initial state and every 1000th and the last step's, and
    NonFinite if amplitudes overflow; DomainError unless dt is positive and
    finite and steps is an integer >= 1.  Bitwise deterministic for fixed dt;
    resuming from the returned state is bit-identical to one longer run.
    """
    steps = _count("steps", steps)
    if dt is None or not dt > 0.0 or not math.isfinite(dt):
        raise DomainError(f"dt must be positive and finite, got {dt!r}")

    rhs, _, rk4 = _mean_field(sys, signal_flux)

    a, b, c = (complex(x) for x in initial)
    rate = _fastest_rate(sys, (a, b, c))
    if dt * rate >= 0.1:
        raise StepSizeTooLarge(
            f"dt*max-rate = {dt * rate:.3g} >= 0.1; reduce dt below {0.1 / rate:.3g}"
        )

    for start in range(0, steps, 1000):  # segments end at every 1000th step and the last
        step = min(steps, start + 1000)
        a, b, c = rk4(a, b, c, dt, step - start)
        if not all(math.isfinite(abs(x)) for x in (a, b, c)):
            raise NonFinite(f"amplitudes diverged at step {step}")
        if dt * _fastest_rate(sys, (a, b, c)) >= 0.1:
            raise StepSizeTooLarge(
                f"nonlinear rate g|a| grew past the stability bound at step {step}"
            )

    converged = _settled(rhs, (a, b, c), _RESIDUAL_TOL,
                         min(ch.kappa_tot for ch in sys.channels))
    return (a, b, c), converged


def _solve(m, v):
    """x with m x = v, by Gauss-Jordan elimination with partial pivoting in
    Python complex floats (no LAPACK); None when a pivot is zero."""
    rows = [row + [x] for row, x in zip(m, v)]
    n = len(rows)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        if rows[k][k] == 0:
            return None
        for i, row in enumerate(rows):
            if i != k:
                f = row[k] / rows[k][k]
                row[k:] = [x - f * y for x, y in zip(row[k:], rows[k][k:])]
    return [row[n] / row[k] for k, row in enumerate(rows)]


def _stable(jac) -> bool:
    """Every eigenvalue of the Jacobian has Re < 0: a fixed point that attracts."""
    return bool(np.all(np.linalg.eigvals(np.array(jac)).real < 0.0))


def _newton_polish(rhs, jacobian, state, kappa_min):
    """Newton on rhs = 0 from state: the fixed point it reaches when that passes
    the _RESIDUAL_TOL equilibrium test and is stable, else None."""
    for _ in range(_NEWTON_ITERATIONS):
        f = rhs(*state)
        step = _solve(jacobian(*state), [-x for x in f] + [-x.conjugate() for x in f])
        if step is None:
            return None
        state = tuple(x + d for x, d in zip(state, step[:3]))  # step[3:] is its conjugate
        if _settled(rhs, state, _RESIDUAL_TOL, kappa_min):
            return state if _stable(jacobian(*state)) else None
    return None


def steady_state_conversion(sys: TwmSystem):
    """Driven steady-state (eta_int, eta_ex) extracted from the integrator.

    Drives the signal with a photon flux far below the pump's so the
    linearized regime holds, integrates to steady state, and reports the
    output-idler flux over the input-signal flux:
    eta_ex = kappa_i_ex |c_ss|^2 / signal_flux.

    The step is dt = 0.09 / _fastest_rate(sys), the rule the step-size guard
    applies, so it stays under the guard's 0.1; RK4's fixed point is the exact
    steady state at any stable dt.  Chunks of _CHECK_EVERY steps resume from
    the last until one ends converged (relative residual < _RESIDUAL_TOL).  A
    chunk that ends with every relative residual below _POLISH_GATE = 1e-3 is
    polished by Newton on the integrator's own right-hand side, with the 6x6
    Jacobian in (a, b, c, a*, b*, c*) solved in Python complex floats.  The
    polished state is kept only if it passes the same _RESIDUAL_TOL test and
    every eigenvalue of the Jacobian there has Re < 0; otherwise integration
    goes on.  The budget is _HORIZON / slow of integration time, slow the
    smallest kappa, then NumericalFailure.  A pump power of 0 and a carrier
    with kappa_ex = 0 are refused up front (DomainError): the probe flux
    scales with the first and is driven and read through the bus by the
    second, so no budget could help.
    """
    if sys.pump_power_W == 0.0:
        raise DomainError("pump power is 0 W: the oracle's probe signal flux scales with it "
                          "and would be 0 photons/s; the steady-state oracle needs a pump power > 0")
    for ch in sys.channels:
        if ch.kappa_ex == 0.0:
            raise DomainError(f"{ch.role} kappa_ex is 0: the steady-state oracle drives and "
                              "reads every carrier through the bus and needs kappa_ex > 0")
    # target steady |b| ~ 1e-3 |alpha|, |alpha|^2 = s_in^2 / (d_p^2 + k_p^2/4)
    n_pump = _pump_drive(sys)**2 / (sys.pump.delta**2 + 0.25 * sys.pump.kappa_tot**2)
    signal_flux = 1e-6 * n_pump * sys.signal.kappa_tot**2 / (4.0 * sys.signal.kappa_ex)
    slow = min(ch.kappa_tot for ch in sys.channels)
    dt = 0.09 / _fastest_rate(sys)
    steps = int(_HORIZON / (slow * dt)) + 1
    rhs, jacobian, _ = _mean_field(sys, signal_flux)
    state = (0j, 0j, 0j)
    for _ in range(-(-steps // _CHECK_EVERY)):
        state, converged = evolve_mean_field(sys, initial=state, dt=dt, steps=_CHECK_EVERY,
                                             signal_flux=signal_flux)
        if converged:
            break
        if _settled(rhs, state, _POLISH_GATE, slow):
            polished = _newton_polish(rhs, jacobian, state, slow)
            if polished is not None:
                state = polished
                break
    else:
        raise NumericalFailure(f"steady state not reached in {_HORIZON:g}/min(kappa) of time")
    eta_ex = sys.idler.kappa_ex * abs(state[2]) ** 2 / signal_flux
    eta_int = eta_ex / (sys.signal.eta * sys.idler.eta)
    return eta_int, eta_ex
