"""Three-wave-mixing closed forms and the time-domain oracle."""

import json
import math
import subprocess
from sys import executable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import src_env
from qfcring import conversion
from qfcring.builders import build_twm_system, operating_point
from qfcring.config import default_config
from qfcring.constants import HBAR_J_S, TWO_PI
from qfcring.conversion import (
    ModeChannel,
    TwmSystem,
    cooperativity,
    efficiency_vs_power,
    evolve_mean_field,
    external_efficiency,
    g0_effective,
    intracavity_pump,
    pump_power_unity_cooperativity,
    steady_state_conversion,
)
from qfcring.errors import (
    DegenerateCoupling,
    DomainError,
    NonFinite,
    NonphysicalRate,
    NumericalFailure,
    StepSizeTooLarge,
)

OMEGA_P = TWO_PI * 184.7e12
OMEGA_S = TWO_PI * 406.8e12
OMEGA_I = OMEGA_S - OMEGA_P


def make_system(eta_p=0.5, eta_s=0.92, eta_i=0.98, kappa_p=1.3e9, kappa_s=7e9,
                kappa_i=3e10, g0=TWO_PI * 0.31e6, delta_p=0.0, delta_s=0.0,
                mismatch=0.0, power=0.0):
    def ch(role, omega, kappa, eta, delta):
        return ModeChannel(role=role, omega=omega, m=100, kappa_ex=eta * kappa,
                           kappa_0=(1 - eta) * kappa, delta=delta)

    return TwmSystem(
        pump=ch("pump", OMEGA_P, kappa_p, eta_p, delta_p),
        signal=ch("signal", OMEGA_S, kappa_s, eta_s, delta_s),
        idler=ch("idler", OMEGA_I, kappa_i, eta_i, 0.0),
        g0=g0, mismatch=mismatch, pump_power_W=power,
    )


def test_intracavity_no_drive():
    assert intracavity_pump(0.0, OMEGA_P, 1e9, 5e8) == 0.0


def test_intracavity_on_resonance_closed_form():
    n = intracavity_pump(1e-3, OMEGA_P, 1e9, 5e8, delta_p=0.0)
    expect = 4.0 * 5e8 * 1e-3 / (HBAR_J_S * OMEGA_P * 1e18)
    assert n == pytest.approx(expect, rel=1e-14)


def test_intracavity_rate_scalings():
    # |alpha|^2 = 4 eta P / (hbar w kappa) on resonance: halving kappa at
    # fixed eta doubles the buildup; at fixed kappa_ex it quadruples
    full = intracavity_pump(1e-3, OMEGA_P, 1e9, 0.5e9)
    assert intracavity_pump(1e-3, OMEGA_P, 0.5e9, 0.25e9) == \
        pytest.approx(2.0 * full, rel=1e-14)
    assert intracavity_pump(1e-3, OMEGA_P, 0.5e9, 0.5e9) == \
        pytest.approx(4.0 * full, rel=1e-14)


def test_intracavity_rejects_nonphysical_rates():
    with pytest.raises(NonphysicalRate):
        intracavity_pump(1e-3, OMEGA_P, 1e9, 2e9)


def test_cooperativity_zero_without_nonlinearity():
    assert cooperativity(make_system(g0=0.0, power=1e-3)) == 0.0


def test_cooperativity_linear_in_power():
    sys = make_system()
    powers = np.geomspace(1e-6, 1e-2, 25)
    cs = np.array([cooperativity(sys.with_power(float(p))) for p in powers])
    slope = np.polyfit(np.log(powers), np.log(cs), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-9)


def test_cooperativity_unity_near_1mW_for_calibrated_defaults():
    sys = make_system()
    p1 = pump_power_unity_cooperativity(sys)
    assert 0.3e-3 <= p1 <= 3e-3


def test_eta_int_closed_forms():
    sys = make_system(eta_s=0.5, eta_i=0.5)
    p_max = pump_power_unity_cooperativity(sys)
    eta_int, _ = external_efficiency(sys.with_power(p_max))
    assert eta_int == pytest.approx(1.0, abs=1e-12)
    eta_int, _ = external_efficiency(sys.with_power(0.5 * p_max))
    assert eta_int == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_eta_ex_product_rule():
    sys = make_system(eta_s=0.9, eta_i=0.9)
    p_max = pump_power_unity_cooperativity(sys)
    eta_int, eta_ex = external_efficiency(sys.with_power(p_max))
    assert eta_ex == pytest.approx(0.81 * eta_int, rel=1e-12)
    assert eta_ex == pytest.approx(0.81, abs=1e-12)


def test_detuning_sign_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(200):
        kwargs = dict(
            delta_p=rng.uniform(-3e9, 3e9),
            delta_s=rng.uniform(-3e9, 3e9),
            mismatch=rng.uniform(-3e9, 3e9),
            power=rng.uniform(1e-5, 5e-3),
        )
        plus = external_efficiency(make_system(**kwargs))[1]
        kwargs_neg = dict(kwargs, delta_p=-kwargs["delta_p"],
                          delta_s=-kwargs["delta_s"],
                          mismatch=-kwargs["mismatch"])
        minus = external_efficiency(make_system(**kwargs_neg))[1]
        assert plus == pytest.approx(minus, rel=1e-12)


def test_eta_int_bounded_by_one():
    rng = np.random.default_rng(22)
    for _ in range(500):
        sys = make_system(
            delta_p=rng.uniform(-5e9, 5e9),
            delta_s=rng.uniform(-5e9, 5e9),
            mismatch=rng.uniform(-5e9, 5e9),
            power=rng.uniform(0.0, 1e-2),
        )
        eta_int, eta_ex = external_efficiency(sys)
        assert 0.0 <= eta_ex <= eta_int <= 1.0 + 1e-12


def test_pump_power_identity_and_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        sys = make_system(
            eta_p=rng.uniform(0.05, 0.95),
            eta_s=rng.uniform(0.05, 0.95),
            eta_i=rng.uniform(0.05, 0.95),
            kappa_p=rng.uniform(1e8, 1e10),
            kappa_s=rng.uniform(1e8, 1e10),
            kappa_i=rng.uniform(1e8, 1e10),
            g0=rng.uniform(1e5, 1e7),
        )
        p_max = pump_power_unity_cooperativity(sys)
        simplified = (HBAR_J_S * sys.pump.omega * sys.pump.kappa_tot
                      * sys.signal.kappa_tot * sys.idler.kappa_tot
                      / (16.0 * sys.g0**2 * sys.pump.eta))
        assert p_max == pytest.approx(simplified, rel=1e-12)
        assert cooperativity(sys.with_power(p_max)) == pytest.approx(1.0, abs=1e-12)


def test_pump_power_g0_scaling():
    sys = make_system()
    doubled = make_system(g0=2.0 * sys.g0)
    assert pump_power_unity_cooperativity(doubled) == pytest.approx(
        pump_power_unity_cooperativity(sys) / 4.0, rel=1e-14)


def test_pump_power_degenerate_coupling():
    with pytest.raises(DegenerateCoupling):
        pump_power_unity_cooperativity(make_system(eta_p=1.0))
    with pytest.raises(DegenerateCoupling):
        pump_power_unity_cooperativity(make_system(eta_i=0.0))


def test_g0_effective_scaling():
    assert g0_effective(1e6, 0.0) == 0.0
    assert g0_effective(1e6, 1.0) == 1e6
    g_full = TWO_PI * 0.31e6 / 0.45
    assert g_full / TWO_PI == pytest.approx(0.6888888888888889e6, rel=1e-12)
    assert g0_effective(g_full, 0.45) / TWO_PI == pytest.approx(0.31e6, rel=1e-12)


def test_conversion_result_record():
    sys = make_system()
    p_max = pump_power_unity_cooperativity(sys)
    driven = sys.with_power(p_max)
    assert driven.pump_power_W == p_max
    assert cooperativity(driven) == pytest.approx(1.0, abs=1e-12)
    assert pump_power_unity_cooperativity(driven) == pytest.approx(p_max, rel=1e-15)
    eta_int, eta_ex = external_efficiency(driven)
    assert 0.0 <= eta_ex <= eta_int <= 1.0 + 1e-12


# --- efficiency vs power ---------------------------------------------------

def test_efficiency_curve_unimodal():
    sys = make_system()
    p_max = pump_power_unity_cooperativity(sys)
    grid = np.geomspace(0.05 * p_max, 20.0 * p_max, 241)
    rows = efficiency_vs_power(sys, grid)
    eta_int = rows[:, 2]
    j = int(np.argmax(eta_int))
    assert abs(rows[j, 0] / p_max - 1.0) < grid[j + 1] / grid[j] - 1.0
    at_pmax = efficiency_vs_power(sys, [p_max])
    assert at_pmax[0, 2] == pytest.approx(1.0, abs=1e-12)
    at_4pmax = efficiency_vs_power(sys, [4.0 * p_max])
    assert at_4pmax[0, 2] == pytest.approx(0.64, abs=1e-12)


def test_negative_power_in_a_grid_raises():
    with pytest.raises(DomainError):
        efficiency_vs_power(make_system(), [1e-3, -1e-9])


# --- the array closed form, bit for bit against the scalar formula ----------

def scalar_efficiencies(sys):
    """(C, eta_int, eta_ex) one power at a time in Python floats and complex.

    The reference the array form must reproduce bit for bit: Python's abs of
    a complex is libm hypot, and float ** 2 is libm pow(x, 2.0).
    """
    flux = sys.pump_power_W / (HBAR_J_S * sys.pump.omega)
    n_pump = sys.pump.kappa_ex * flux / (sys.pump.delta**2 + (sys.pump.kappa_tot / 2.0) ** 2)
    ks, ki = sys.signal.kappa_tot, sys.idler.kappa_tot
    C = 4.0 * sys.g0**2 * n_pump / (ks * ki)
    d_s = sys.signal.delta
    d_i_eff = d_s - sys.pump.delta - sys.mismatch
    bracket = (1.0 + 2j * d_s / ks) * (1.0 + 2j * d_i_eff / ki) + C
    eta_int = 4.0 * C / abs(bracket) ** 2
    return C, eta_int, sys.signal.eta * sys.idler.eta * eta_int


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


ETAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
KAPPAS = st.floats(3e7, 3e10)
DETUNINGS = st.one_of(st.just(0.0), st.floats(-3e9, 3e9))


@st.composite
def power_grids(draw):
    """Log grids, linear grids from P = 0, and one-point grids, in W."""
    p_max = draw(st.floats(1e-7, 1e-1))
    n = draw(st.integers(1, 130))
    if draw(st.booleans()):
        return np.linspace(0.0, p_max, n)
    return np.geomspace(p_max * draw(st.floats(1e-4, 1.0)), p_max, n)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(etas=st.tuples(ETAS, ETAS, ETAS), kappas=st.tuples(KAPPAS, KAPPAS, KAPPAS),
       delta_p=DETUNINGS, delta_s=DETUNINGS, mismatch=DETUNINGS, powers=power_grids())
@example(etas=(0.5, 0.92, 0.98), kappas=(1.3e9, 7e9, 3e10), delta_p=0.0, delta_s=0.0,
         mismatch=0.0, powers=np.array([0.0]))
def test_array_closed_form_matches_scalar_formula_bit_for_bit(
        etas, kappas, delta_p, delta_s, mismatch, powers):
    sys = make_system(eta_p=etas[0], eta_s=etas[1], eta_i=etas[2], kappa_p=kappas[0],
                      kappa_s=kappas[1], kappa_i=kappas[2], delta_p=delta_p,
                      delta_s=delta_s, mismatch=mismatch)
    points = [sys.with_power(float(p)) for p in powers]
    rows = efficiency_vs_power(sys, powers)
    assert rows.shape == (powers.size, 4)
    assert np.array_equal(bits(rows), bits([(p.pump_power_W, *scalar_efficiencies(p))
                                            for p in points]))
    for point in points:
        c_ref, eta_int_ref, eta_ex_ref = scalar_efficiencies(point)
        assert np.array_equal(bits([cooperativity(point), *external_efficiency(point)]),
                              bits([c_ref, eta_int_ref, eta_ex_ref]))


def test_closed_form_squares_with_pow_not_multiply():
    # libm pow(h, 2.0) and h * h round apart here: eta_int reads ...261 if
    # |bracket|^2 is computed as h * h or numpy's h ** 2.
    sys = make_system(eta_p=0.2, eta_s=0.76, eta_i=0.61, delta_p=-1e8, mismatch=1e8,
                      power=0.003619)
    assert external_efficiency(sys)[0] == 0.9844790259565264
    assert efficiency_vs_power(sys, [0.003619])[0, 2] == 0.9844790259565264


# The child checks the closed form's two primitives with numpy's AVX-512
# dispatch off, on a seeded sample of bracket-like magnitudes.
PRIMITIVES_CHILD = """
import json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", ImportWarning)
    try:
        import numpy as np
    except (ImportError, RuntimeError) as exc:
        print(json.dumps({"refused": str(exc)}))
        sys.exit(0)
refused = [str(w.message) for w in caught if "NPY_DISABLE_CPU_FEATURES" in str(w.message)]
if refused:
    print(json.dumps({"refused": refused[0]}))
    sys.exit(0)
rng = np.random.default_rng(20260)
n = 200_000
re = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
im = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
h = np.hypot(re, im)
ref_h = np.array([abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())])
sq = np.float_power(h, 2.0)
ref_sq = np.array([x ** 2 for x in h.tolist()])
print(json.dumps({
    "hypot_differs": int(np.count_nonzero(h.view(np.int64) != ref_h.view(np.int64))),
    "square_differs": int(np.count_nonzero(sq.view(np.int64) != ref_sq.view(np.int64))),
}))
"""


def test_closed_form_primitives_match_python_without_avx512():
    env = src_env()
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both at once
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    proc = subprocess.run([executable, "-c", PRIMITIVES_CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if "refused" in report:
        pytest.skip(f"numpy refused NPY_DISABLE_CPU_FEATURES: {report['refused']}")
    assert report == {"hypot_differs": 0, "square_differs": 0}


# --- time-domain oracle ----------------------------------------------------

def test_pure_decay():
    sys = make_system(g0=0.0)
    kappa = sys.signal.kappa_tot
    dt = 0.02 / kappa
    steps = 4000
    traj = evolve_mean_field(sys, initial=(0.0, 1.0, 0.0), dt=dt, steps=steps)
    expect = np.exp(-kappa * traj.times)
    got = np.abs(traj.b) ** 2
    assert np.max(np.abs(got - expect) / expect.clip(1e-30)) < 1e-6


def test_manley_rowe_invariants():
    # lossless, undriven: |a|^2+|b|^2, |b|^2+|c|^2, |a|^2-|c|^2 conserved
    sys = TwmSystem(
        pump=ModeChannel("pump", OMEGA_P, 100, 0.0, 1e-300, delta=0.3),
        signal=ModeChannel("signal", OMEGA_S, 200, 0.0, 1e-300, delta=-0.2),
        idler=ModeChannel("idler", OMEGA_I, 100, 0.0, 1e-300, delta=0.1),
        g0=1.0, mismatch=0.0, pump_power_W=0.0,
    )
    traj = evolve_mean_field(sys, initial=(0.8, 0.5 + 0.2j, 0.3j), dt=1e-3,
                             steps=100_000, sample_stride=100)
    na, nb, nc = np.abs(traj.a) ** 2, np.abs(traj.b) ** 2, np.abs(traj.c) ** 2
    for inv in (na + nb, nb + nc, na - nc):
        drift = np.max(np.abs(inv - inv[0])) / abs(inv[0])
        assert drift < 1e-9


def test_driven_steady_state_matches_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(5):
        sys = make_system(
            eta_p=rng.uniform(0.3, 0.7),
            eta_s=rng.uniform(0.7, 0.95),
            eta_i=rng.uniform(0.7, 0.95),
            kappa_p=rng.uniform(5e8, 2e9),
            kappa_s=rng.uniform(5e8, 2e9),
            kappa_i=rng.uniform(5e8, 2e9),
            delta_s=rng.uniform(-2e8, 2e8),
            delta_p=rng.uniform(-2e8, 2e8),
            mismatch=rng.uniform(-2e8, 2e8),
        )
        p_max = pump_power_unity_cooperativity(sys)
        sys = sys.with_power(rng.uniform(0.2, 2.0) * p_max)
        eta_int_ref, _ = external_efficiency(sys)
        eta_int_sim, _ = steady_state_conversion(sys)
        assert eta_int_sim == pytest.approx(eta_int_ref, rel=1e-5)


def test_step_covers_idler_detuning_and_guard_amplitude():
    # d_c = d_s - d_p - mismatch = 9e8 exceeds every kappa and every other
    # detuning; a step sized without it trips the guard at 0.05/fast.
    sys = make_system(eta_p=0.5, eta_s=0.8, eta_i=0.8, kappa_p=4e8, kappa_s=4e8,
                      kappa_i=4e8, delta_s=3e8, delta_p=-3e8, mismatch=-3e8)
    sys = sys.with_power(pump_power_unity_cooperativity(sys))
    eta_int_ref, eta_ex_ref = external_efficiency(sys)
    eta_int_sim, eta_ex_sim = steady_state_conversion(sys)
    assert eta_int_sim == pytest.approx(eta_int_ref, rel=1e-5)
    assert eta_ex_sim == pytest.approx(eta_ex_ref, rel=1e-5)


def _tail_flat(traj):
    """Populations move by < 1e-10 (rel) over the last 1% of the samples."""
    tail = max(2, int(0.01 * traj.times.size))
    pops = np.abs(traj.a[-tail:]) ** 2 + np.abs(traj.b[-tail:]) ** 2 + np.abs(traj.c[-tail:]) ** 2
    return (pops.max() - pops.min()) / pops.max() < 1e-10


def test_residual_stop_rejects_truncated_horizon():
    # A criterion-3 draw integrated for only 15/slow: the populations look
    # flat over the tail, yet the idler is still 1.2e-3 from steady state.
    sys = make_system(eta_p=0.5604, eta_s=0.9269, eta_i=0.6071, kappa_p=2.574e9,
                      kappa_s=8.541e8, kappa_i=1.005e9, delta_s=2.655e8,
                      delta_p=-2.415e8, mismatch=-1.018e8)
    sys = sys.with_power(0.2832 * pump_power_unity_cooperativity(sys))
    n_pump = intracavity_pump(sys.pump_power_W, sys.pump.omega, sys.pump.kappa_tot,
                              sys.pump.kappa_ex, sys.pump.delta)
    flux = 1e-6 * n_pump * sys.signal.kappa_tot**2 / (4.0 * sys.signal.kappa_ex)
    dt = 0.05 / sys.pump.kappa_tot
    steps = int(15.0 / (sys.signal.kappa_tot * dt)) + 1
    traj = evolve_mean_field(sys, dt=dt, steps=steps, signal_flux=flux,
                             sample_stride=steps // 400)
    _, eta_ex_ref = external_efficiency(sys)
    eta_ex_cut = sys.idler.kappa_ex * abs(traj.c[-1]) ** 2 / flux
    assert _tail_flat(traj)
    assert abs(eta_ex_cut / eta_ex_ref - 1.0) > 1e-3
    assert not traj.converged
    assert steady_state_conversion(sys)[1] == pytest.approx(eta_ex_ref, rel=1e-5)


def test_resumed_integration_is_bit_identical():
    sys = make_system(power=5e-4, delta_s=1e8)
    whole = evolve_mean_field(sys, dt=1e-12, steps=1000, signal_flux=1e3)
    state = (0j, 0j, 0j)
    for _ in range(5):
        # a stride that does not divide the chunk: final() is still its last step
        state = evolve_mean_field(sys, initial=state, dt=1e-12, steps=200,
                                  signal_flux=1e3, sample_stride=150).final()
    assert state == whole.final()


def test_steady_state_budget_exhausted():
    sys = make_system(power=5e-4)
    with pytest.raises(NumericalFailure):
        steady_state_conversion(sys, steps=200)


def test_step_size_guard():
    sys = make_system(power=1e-3)
    with pytest.raises(StepSizeTooLarge):
        evolve_mean_field(sys, dt=1.0 / sys.idler.kappa_tot, steps=10)


def test_trajectory_deterministic():
    sys = make_system(power=5e-4, delta_s=1e8)
    a = evolve_mean_field(sys, dt=1e-12, steps=2000, signal_flux=1e3)
    b = evolve_mean_field(sys, dt=1e-12, steps=2000, signal_flux=1e3)
    assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b) \
        and np.array_equal(a.c, b.c)


def test_steady_state_refuses_zero_pump_power():
    # The probe flux is 1e-6 n_pump k_s^2 / (4 k_s_ex), which is 0 at 0 W, so no
    # step budget reaches a steady state and eta_ex would divide by it.
    sys = make_system(power=1e-3)
    with pytest.raises(DomainError, match="pump power is 0 W.*probe signal flux"):
        steady_state_conversion(sys.with_power(0.0))
    with pytest.raises(DomainError, match="pump power must be >= 0"):
        sys.with_power(-1e-3)


@pytest.mark.parametrize("name, value", [
    ("steps", None), ("steps", 0), ("steps", -3), ("steps", 2.5), ("steps", 10.0),
    ("steps", True), ("sample_stride", 0), ("sample_stride", -1), ("sample_stride", 2.5),
    ("sample_stride", None), ("sample_stride", False),
])
def test_step_counts_must_be_positive_integers(name, value):
    kwargs = {"dt": 1e-12, "steps": 10, name: value}
    with pytest.raises(DomainError, match=f"{name} must be an integer >= 1"):
        evolve_mean_field(make_system(power=1e-3), **kwargs)


def test_numpy_integer_step_counts_are_accepted():
    sys = make_system(power=5e-4, delta_s=1e8)
    plain = evolve_mean_field(sys, dt=1e-12, steps=30, signal_flux=1e3, sample_stride=7)
    wide = evolve_mean_field(sys, dt=1e-12, steps=np.int64(30), signal_flux=1e3,
                             sample_stride=np.int32(7))
    assert np.array_equal(plain.times, wide.times) and plain.final() == wide.final()


def _rk4_on_rhs(rhs, state, dt, n):
    """n classic RK4 steps written on rhs alone, one call per stage, with
    float step constants."""
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n):
        k1 = rhs(*state)
        k2 = rhs(*(y + half * k for y, k in zip(state, k1)))
        k3 = rhs(*(y + half * k for y, k in zip(state, k2)))
        k4 = rhs(*(y + dt * k for y, k in zip(state, k3)))
        state = tuple(y + sixth * (p + 2.0 * (q + r) + s)
                      for y, p, q, r, s in zip(state, k1, k2, k3, k4))
    return state


_PHASES = st.floats(0.0, TWO_PI)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       exps=st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0), st.floats(-3.0, 4.0)),
       phases=st.tuples(_PHASES, _PHASES, _PHASES))
def test_fused_stepper_is_rk4_on_rhs(seed, n, exps, phases):
    # rk4 writes rhs inline and multiplies by complex step constants; it must
    # give the bits of RK4 built on rhs.  Systems are criterion-3 draws; the
    # amplitudes reach 1e4, far past the steady state, where dt g|x| exceeds
    # RK4's stability bound and every term is large.
    sys = next(_criterion_3_draws(1, seed=seed))
    dt, flux = _oracle_inputs(sys)
    rhs, _, rk4 = conversion._mean_field(sys, flux)
    state = tuple(complex(10.0**e * np.exp(1j * p)) for e, p in zip(exps, phases))
    fused = rk4(*state, dt, n)
    assert all(math.isfinite(abs(x)) for x in fused)
    assert fused == _rk4_on_rhs(rhs, state, dt, n)


_SEGMENT_STEPS = 3000


@pytest.fixture(scope="module")
def segment_reference():
    """(sys, dt, flux, initial, states): the RK4 state after every step up to
    _SEGMENT_STEPS, one step at a time on rhs."""
    sys = next(_criterion_3_draws(1, seed=23))
    dt, flux = _oracle_inputs(sys)
    rhs, _, _ = conversion._mean_field(sys, flux)
    initial = (0.3 + 0.1j, 2.0 - 1.0j, -3.0j)
    states = [initial]
    for _ in range(_SEGMENT_STEPS):
        states.append(_rk4_on_rhs(rhs, states[-1], dt, 1))
    return sys, dt, flux, initial, states


@pytest.mark.parametrize("stride", [1, 7, 200, 300, 1000, 1500])
@pytest.mark.parametrize("steps", [1, 1001, 2100, 3000])
def test_segmented_integration_samples_the_step_by_step_reference(segment_reference,
                                                                   stride, steps):
    # 3000 is a multiple of 1000 and of every stride but 7; 2100 of 7 and 300
    # only; 1001 of 7 only.
    sys, dt, flux, initial, states = segment_reference
    traj = evolve_mean_field(sys, initial=initial, dt=dt, steps=steps, signal_flux=flux,
                             sample_stride=stride)
    kept = [0, *range(stride, steps + 1, stride)]
    kept += [steps] if kept[-1] != steps else []
    assert traj.times.tolist() == [k * dt for k in kept]
    for role, got in enumerate((traj.a, traj.b, traj.c)):
        assert got.tolist() == [states[k][role] for k in kept]


def _toy_system():
    def ch(role, omega):
        return ModeChannel(role=role, omega=omega, m=100, kappa_ex=0.5, kappa_0=0.5)

    return TwmSystem(pump=ch("pump", 1.0), signal=ch("signal", 3.0), idler=ch("idler", 2.0),
                     g0=1.0)


@pytest.mark.parametrize("stride", [1, 7, 1500])
@pytest.mark.parametrize("steps", [450, 999, 1000, 1001, 2500])
@pytest.mark.parametrize("error, flux, initial, text", [
    # the signal drive alone lifts g|b| past the bound within a few hundred steps
    (StepSizeTooLarge, 800.0, (0j, 0j, 0j), "grew past the stability bound"),
    # with a pump amplitude seeded, the stiff a-c exchange overflows RK4
    (NonFinite, 8e8, (1e-3, 0j, 0j), "amplitudes diverged"),
])
def test_in_loop_guards_name_the_checked_step(error, flux, initial, text, steps, stride):
    # The guards run at every 1000th step and the last, not at a sample.
    with pytest.raises(error, match=f"{text} at step {min(steps, 1000)}$"):
        evolve_mean_field(_toy_system(), initial=initial, dt=0.05, steps=steps,
                          signal_flux=flux, sample_stride=stride)


# --- Newton polish of the steady-state oracle --------------------------------

def _oracle_inputs(sys):
    """(dt, signal_flux) as steady_state_conversion chooses them."""
    kp, ks, ki = sys.pump.kappa_tot, sys.signal.kappa_tot, sys.idler.kappa_tot
    drive = math.sqrt(sys.pump.kappa_ex * sys.pump_power_W / (HBAR_J_S * sys.pump.omega))
    n_pump = drive**2 / (sys.pump.delta**2 + 0.25 * kp**2)
    flux = 1e-6 * n_pump * ks**2 / (4.0 * sys.signal.kappa_ex)
    d_c = sys.signal.delta - sys.pump.delta - sys.mismatch
    fast = max(kp, ks, ki, abs(sys.pump.delta), abs(sys.signal.delta), abs(d_c),
               sys.g0 * 4.0 * drive / kp)
    return 0.09 / fast, flux


def _criterion_3_draws(n, seed=303):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sys = make_system(
            eta_p=rng.uniform(0.25, 0.75), eta_s=rng.uniform(0.6, 0.97),
            eta_i=rng.uniform(0.6, 0.97), kappa_p=rng.uniform(4e8, 3e9),
            kappa_s=rng.uniform(4e8, 3e9), kappa_i=rng.uniform(4e8, 3e9),
            delta_s=rng.uniform(-3e8, 3e8), delta_p=rng.uniform(-3e8, 3e8),
            mismatch=rng.uniform(-3e8, 3e8),
        )
        yield sys.with_power(rng.uniform(0.1, 3.0) * pump_power_unity_cooperativity(sys))


def _unstable(monkeypatch, refused):
    monkeypatch.setattr(conversion, "_stable", lambda jac: refused.append(jac) or False)


def _singular(monkeypatch, refused):
    monkeypatch.setattr(conversion, "_solve", lambda m, v: refused.append(m) or None)


def _no_iterations(monkeypatch, refused):
    polish = conversion._newton_polish
    monkeypatch.setattr(conversion, "_NEWTON_ITERATIONS", 0)
    monkeypatch.setattr(conversion, "_newton_polish",
                        lambda *args: refused.append(args) or polish(*args))


@pytest.mark.parametrize("refuse", [_unstable, _singular, _no_iterations],
                         ids=["unstable", "singular", "no-iterations"])
def test_refused_polish_leaves_the_plain_integration(monkeypatch, refuse):
    # With every polish refused (an unstable fixed point, a failed solve, or
    # no Newton step left), the oracle is the chunked RK4 run to its 1e-9
    # residual, bit for bit.
    refused = []
    refuse(monkeypatch, refused)
    for sys in _criterion_3_draws(3, seed=19):
        dt, flux = _oracle_inputs(sys)
        state = (0j, 0j, 0j)
        while True:
            traj = evolve_mean_field(sys, initial=state, dt=dt, steps=200,
                                     signal_flux=flux, sample_stride=200)
            state = traj.final()
            if traj.converged:
                break
        eta_ex = sys.idler.kappa_ex * abs(complex(state[2])) ** 2 / flux
        expect = (eta_ex / (sys.signal.eta * sys.idler.eta), eta_ex)
        assert steady_state_conversion(sys) == expect
    assert refused


def _central_jacobian(rhs, state, h):
    """d(f, f*)/d(a, b, c, a*, b*, c*) from central differences of rhs along the
    real and imaginary axis of each amplitude (Wirtinger derivatives)."""
    jac = np.zeros((6, 6), dtype=complex)
    for k in range(3):
        def diff(step):
            up, down = list(state), list(state)
            up[k] += step
            down[k] -= step
            return np.array([(p - m) / (2.0 * h) for p, m in zip(rhs(*up), rhs(*down))])

        dx, dy = diff(h), diff(1j * h)
        dz, dz_conj = (dx - 1j * dy) / 2.0, (dx + 1j * dy) / 2.0
        jac[:3, k], jac[:3, 3 + k] = dz, dz_conj
        jac[3:, k], jac[3:, 3 + k] = dz_conj.conj(), dz.conj()
    return jac


def test_jacobian_is_the_derivative_of_the_right_hand_side():
    # rhs is quadratic in (a, b, c, a*, b*, c*), so central differences are
    # exact up to rounding: a 200-state probe saw at most 1.6e-12 of the
    # largest entry.  Large signal and idler amplitudes keep every g|x| entry
    # above 1e-6 of the largest (asserted), so a wrong sign anywhere misses by
    # far more than the 1e-9 tolerance.
    sys = make_system(power=1e-3, delta_s=1e8, delta_p=-2e8, mismatch=3e7)
    rhs, jacobian, _ = conversion._mean_field(sys, 1e6)
    rng = np.random.default_rng(11)
    for _ in range(50):
        mags = 10.0 ** rng.uniform([0.0, 1.0, 1.0], [4.0, 5.0, 5.0])
        state = tuple(complex(m * np.exp(1j * rng.uniform(0.0, TWO_PI))) for m in mags)
        exact = np.array(jacobian(*state))
        scale = np.abs(exact).max()
        assert sys.g0 * min(mags) > 1e-6 * scale
        numeric = _central_jacobian(rhs, state, 1e-3 * max(mags))
        assert np.abs(numeric - exact).max() <= 1e-9 * scale


def test_solve_returns_none_at_a_zero_pivot():
    assert conversion._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
    assert conversion._solve([[2.0, 0.0], [0.0, 4.0]], [1.0, 1.0]) == [0.5, 0.25]


def test_polish_starts_only_past_the_gate(monkeypatch):
    starts = []
    polish = conversion._newton_polish

    def spy(rhs, jacobian, state, kappa_min):
        starts.append(max(abs(f) / (kappa_min * abs(x)) for f, x in zip(rhs(*state), state)))
        return polish(rhs, jacobian, state, kappa_min)

    monkeypatch.setattr(conversion, "_newton_polish", spy)
    for sys in _criterion_3_draws(10):
        steady_state_conversion(sys)
    assert len(starts) >= 10
    assert max(starts) < 1e-3


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_calibrated_device_oracle_matches_closed_form(width):
    # Pump and idler linewidths ~25x apart: the stiff systems the bench times.
    cfg = default_config()
    _, matches = operating_point(cfg, width_nm=width)
    base = build_twm_system(cfg, matches[0])
    for scale in (0.1, 1.0, 3.0):
        sys = base.with_power(scale * pump_power_unity_cooperativity(base))
        for sim, ref in zip(steady_state_conversion(sys), external_efficiency(sys)):
            assert sim == pytest.approx(ref, rel=1e-5)
