"""Three-wave-mixing closed forms and the time-domain oracle."""

import json
import subprocess
from sys import executable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import src_env
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
