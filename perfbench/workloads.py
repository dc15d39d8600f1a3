"""Workload draws, ops and per-op checks for the qfcring benchmark.

Each workload yields ops in blocks.  A block is drawn from
`random.Random("<workload>:<seed>:<block>")`, so the same seed gives the same
ops and a block does not depend on how many blocks a run reaches.  Inside a
block the knobs that set an op's cost are stratified (one draw per equal
slice of their range, in random order), so every run sees the same mix of
cheap and costly ops and its medians do not hinge on the seed.

An op's `run` is the timed call into the public qfcring API, made through
the module attributes so that a tracer rebinding them sees it; `check` is
untimed, raises `CheckFailed` on a wrong output and returns a digest of the
op's outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import tempfile

from qfcring.builders import (
    build_constraints,
    build_device,
    build_fwm_channel,
    build_twm_system,
)
from qfcring import calibration, config, conversion, experiments
from qfcring.constants import TWO_PI
from qfcring.conversion import (
    ModeChannel,
    TwmSystem,
    external_efficiency,
    intracavity_pump,
    pump_power_unity_cooperativity,
)
from qfcring.elements import mode_rates
from qfcring.matching import find_triple_resonance
from qfcring.noise import fwm_noise_rate

WIDTHS = (1400.0, 1500.0, 1600.0)

# Every sub-range of [300, 400] K used here contains the three widths' only
# triple resonances (342.2-349.2 K) and spans more than one signal FSR
# (~30 K), so no draw raises NoFeasibleMatch or warns about coverage.
T_LO_MAX_K, T_HI_MIN_K = 333.0, 366.0
T_MIN_K, T_MAX_K = 300.0, 400.0
# Explicit steps stay below the SweepStepTooCoarse guard (~13.6 mK).
STEP_MK = (2.0, 13.0)
ADAPTIVE_STEP_MK = 6.834    # adaptive step of the packaged config, used only to size draws
GRID_POINTS = (2600.0, 50000.0)

EXPLORE_EXPERIMENTS = ("spectrum", "couplings", "match", "convert", "noise", "tradeoff")
EXPLORE_FRESH, EXPLORE_PINNED = 6, 2   # a block also holds 2 repeats: 8 ops
RECALIBRATE_BLOCK = 6
# Device systems are 3 of 5 ops, so the median and the tail op are RK4 runs
# of the stiff device, whose cost does not hinge on the draw.
ORACLE_NONSTIFF, ORACLE_STIFF = 2, 3

ETA_TOL = 1e-9
ORACLE_TOL = 1e-5


class CheckFailed(Exception):
    """An op's output violates its workload check."""


def strata(rng, n):
    """n stratified uniforms in [0, 1): one per slice of width 1/n, shuffled."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _lerp(lo, hi, u):
    return lo + (hi - lo) * u


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return h.hexdigest()


# -- explore -------------------------------------------------------------------

def _t_range(rng, span):
    """A sub-range of [300, 400] K of about `span` kelvin holding every match."""
    lo = rng.uniform(max(T_MIN_K, T_HI_MIN_K - span), min(T_LO_MAX_K, T_MAX_K - span))
    lo = math.ceil(lo * 1e3) / 1e3
    return lo, min(math.floor((lo + span) * 1e3) / 1e3, T_MAX_K)


def _sweep_window(rng, u):
    """(t_min, t_max, step_mK) of size u in [0, 1): the grid grows log-uniformly
    from 2.6k to 50k temperatures and the span linearly from 33 to 100 K, so the
    sweep cost rises with u.  Steps near the adaptive one are left adaptive
    on half of the draws."""
    n_points = GRID_POINTS[0] * (GRID_POINTS[1] / GRID_POINTS[0]) ** u
    span = _lerp(T_HI_MIN_K - T_LO_MAX_K, T_MAX_K - T_MIN_K, u)
    step = round(span * 1e3 / n_points, 3)
    if abs(step / ADAPTIVE_STEP_MK - 1.0) < 0.25 and rng.random() < 0.5:
        step = 0.0
    return (*_t_range(rng, span), step)


def explore_block(seed, block):
    """6 fresh design variants plus 2 that repeat an earlier variant's matching inputs.

    The sweep size u is stratified and also sets the number of widths (1-3,
    so 7-9 sweeps per op), so the cost of an op rises with u.  The repeats
    copy the variants of two size slices that rotate with the block index.
    """
    rng = random.Random(f"explore:{seed}:{block}")
    size_u, spec_u, mzi_u, pow_u = (strata(rng, EXPLORE_FRESH) for _ in range(4))
    fresh = []
    for k in range(EXPLORE_FRESH):
        n_widths = 1 + int(size_u[k] * len(WIDTHS))
        fresh.append({"t": _sweep_window(rng, size_u[k]), "size": size_u[k],
                      "widths": sorted(rng.sample(WIDTHS, n_widths)),
                      "knob_u": (spec_u[k], mzi_u[k], pow_u[k])})
    seq = list(fresh)
    by_size = sorted(fresh, key=lambda item: item["size"])
    for src in (by_size[block % 3], by_size[block % 3 + 3]):
        pos = seq.index(src)
        seq.insert(rng.randint(pos + 1, len(seq)),
                   dict(src, repeat=True, knob_u=(rng.random(), rng.random(), rng.random())))
    pinned = set(rng.sample(range(len(seq)), EXPLORE_PINNED))
    ops = []
    for j, item in enumerate(seq):
        lo, hi, step = item["t"]
        spec, mzi, pw = item["knob_u"]
        ov = [
            f"constraints.t_ring_min_K={lo:.3f}",
            f"constraints.t_ring_max_K={hi:.3f}",
            f"constraints.t_step_mK={step:.3f}",
            f"experiment.widths_nm=[{', '.join(f'{w:g}' for w in item['widths'])}]",
            f"experiment.spectrum_points={int(_lerp(1001, 2001, spec))}",
            f"experiment.mzi_sweep_points={int(_lerp(221, 261, mzi))}",
            f"experiment.power_points={int(_lerp(81, 161, pw))}",
            f"experiment.power_min_mW={rng.uniform(0.005, 0.05):.6g}",
            f"experiment.power_max_mW={rng.uniform(5.0, 20.0):.6g}",
            f"experiment.power_spacing={rng.choice(['log', 'linear'])}",
            f"physics.pump_detuning_MHz={rng.uniform(-100.0, 100.0):.6g}",
            "experiment.pump_power_mW="
            + (f"{rng.uniform(0.2, 5.0):.6g}" if j in pinned else "null"),
        ]
        ops.append({"overrides": ov, "repeat": bool(item.get("repeat"))})
    return ops


def run_explore(op, ctx):
    cfg = config.apply_overrides(config.load_config(None), op["overrides"])
    out_dir = tempfile.mkdtemp(dir=ctx["work"])
    for name in EXPLORE_EXPERIMENTS:
        experiments.run_experiment(name, cfg, out_dir)
    return cfg, out_dir


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(x) for x in row] for row in reader]


def check_explore(op, result, ctx):
    cfg, out_dir = result
    try:
        return _check_explore(cfg, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _check_explore(cfg, out_dir):
    cons, exp = cfg["constraints"], cfg["experiment"]
    with open(os.path.join(out_dir, "match.json"), encoding="utf-8") as fh:
        best = json.load(fh)["best"]
    half = cons["half_window_nm"]
    if abs(best["signal_detuning_MHz"]) > cons["max_signal_detuning_MHz"]:
        raise CheckFailed(f"signal detuning {best['signal_detuning_MHz']} MHz")
    if abs(best["mismatch_MHz"]) > cons["max_mismatch_MHz"]:
        raise CheckFailed(f"mismatch {best['mismatch_MHz']} MHz")
    if best["qpm_mismatch"] != 0:
        raise CheckFailed(f"QPM mismatch {best['qpm_mismatch']}")
    for role, base in (("pump", "pump_base_wavelength_nm"), ("idler", "idler_base_wavelength_nm")):
        if abs(best[role]["wavelength_nm"] - cons[base]) > half:
            raise CheckFailed(f"{role} at {best[role]['wavelength_nm']} nm leaves its window")
    if not cons["t_ring_min_K"] <= best["t_ring_K"] <= cons["t_ring_max_K"]:
        raise CheckFailed(f"T_ring {best['t_ring_K']} K outside the sweep range")

    n_pow = 1 if exp["pump_power_mW"] is not None else exp["power_points"]
    convert = _rows(os.path.join(out_dir, "convert.csv"))
    if len(convert) != n_pow:
        raise CheckFailed(f"convert.csv has {len(convert)} rows, expected {n_pow}")
    for _, _, eta_int, eta_ext in convert:
        if not 0.0 <= eta_ext <= eta_int <= 1.0:
            raise CheckFailed(f"eta_ext={eta_ext}, eta_int={eta_int} out of order")

    noise = _rows(os.path.join(out_dir, "noise.csv"))
    for (p0, r0), (p1, r1) in zip(noise, noise[1:]):
        slope = math.log(r1 / r0) / math.log(p1 / p0)
        if abs(slope - 2.0) > 1e-6:
            raise CheckFailed(f"noise log-log slope {slope} between {p0} and {p1} mW")

    trade = _rows(os.path.join(out_dir, "tradeoff.csv"))
    widths = [row[0] for row in trade]
    if widths != sorted(widths) or sorted(set(widths)) != sorted(exp["widths_nm"]):
        raise CheckFailed(f"tradeoff widths {sorted(set(widths))} not ordered or incomplete")
    if len(trade) != n_pow * len(exp["widths_nm"]):
        raise CheckFailed(f"tradeoff.csv has {len(trade)} rows")

    for name, n in (("spectrum_signal.csv", exp["spectrum_points"]),
                    ("coupling_ratios.csv", exp["mzi_sweep_points"])):
        if len(_rows(os.path.join(out_dir, name))) != n:
            raise CheckFailed(f"{name} does not have {n} rows")

    chunks = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            chunks += [name, fh.read()]
    return _digest(*chunks)


# -- recalibrate -----------------------------------------------------------------

def recalibrate_block(seed, block):
    """Calibration variants: heater base, heater scan length and sweep sub-range.

    One stratified size drives both the scan length and the sweep span, so
    it sets the cost order of the block.
    """
    rng = random.Random(f"recalibrate:{seed}:{block}")
    size_u, heater_u = strata(rng, RECALIBRATE_BLOCK), strata(rng, RECALIBRATE_BLOCK)
    ops = []
    for u, h in zip(size_u, heater_u):
        lo, hi = _t_range(rng, _lerp(T_HI_MIN_K - T_LO_MAX_K, T_MAX_K - T_MIN_K, u))
        ops.append({"overrides": [
            f"device.mzi_heater_length_um={_lerp(60.0, 140.0, h):.4f}",
            f"calibration_targets.max_heater_length_um={_lerp(300.0, 1000.0, u):.3f}",
            f"constraints.t_ring_min_K={lo:.3f}",
            f"constraints.t_ring_max_K={hi:.3f}",
        ]})
    return ops


def run_recalibrate(op, ctx):
    cfg = config.apply_overrides(config.load_config(None), op["overrides"])
    return cfg, calibration.calibrate_config(cfg)


def _bare_match(cfg, width, ctx):
    """Best match of the uncoupled ring; the coupler changes rates, not wavelengths."""
    c = cfg["constraints"]
    key = (width, c["t_ring_min_K"], c["t_ring_max_K"], c["t_step_mK"])
    if key not in ctx["matches"]:
        device = build_device(cfg, width_nm=width, with_coupler=False)
        ctx["matches"][key] = find_triple_resonance(device, build_constraints(cfg))[0]
    return ctx["matches"][key]


def check_recalibrate(op, result, ctx):
    cfg, out = result
    targets = cfg["calibration_targets"]
    primary = float(cfg["device"]["width_nm"])
    cal = out["calibration"]
    g0 = cal["g0_full_over_2pi_MHz"] * cfg["device"]["ppln_fraction"]
    if abs(g0 / targets["g0_over_2pi_MHz"] - 1.0) > 1e-12:
        raise CheckFailed(f"g0_full * f_ppln = {g0} MHz misses its target")
    for width in sorted(set(float(w) for w in cfg["experiment"]["widths_nm"]) | {primary}):
        match = _bare_match(cfg, width, ctx)
        device = build_device(out, width_nm=width)
        modes = {}
        for role in ("pump", "signal", "idler"):
            sol = getattr(match, role)
            kappa_ex, kappa_0 = mode_rates(device, sol.lambda_nm, match.t_ring_K)
            eta = kappa_ex / (kappa_ex + kappa_0)
            if abs(eta - targets[f"eta_{role}"]) > ETA_TOL:
                raise CheckFailed(f"width {width:g}: eta_{role}={eta!r} misses "
                                  f"{targets[f'eta_{role}']}")
            modes[role] = dataclasses.replace(sol, kappa_ex=kappa_ex, kappa_0=kappa_0)
        if width == primary:
            coupled = dataclasses.replace(match, **modes)
            anchor = TWO_PI * targets["fwm_anchor_detuning_over_2pi_THz"] * 1e12
            rate = fwm_noise_rate(build_fwm_channel(out, coupled, anchor),
                                  targets["fwm_rate_power_mW"] * 1e-3)
            if abs(rate / targets["fwm_rate_Hz"] - 1.0) > ETA_TOL:
                raise CheckFailed(f"FWM anchor rate {rate!r} Hz misses its target")
    return _digest(json.dumps(cal, sort_keys=True))


# -- oracle ------------------------------------------------------------------------

OMEGA_P = TWO_PI * 184.7e12
OMEGA_S = TWO_PI * 406.8e12
OMEGA_I = OMEGA_S - OMEGA_P


def stiffness(system):
    """Fast/slow rate ratio of a system: it sets the RK4 step count of the oracle."""
    n_pump = float(intracavity_pump(system.pump_power_W, system.pump.omega,
                                    system.pump.kappa_tot, system.pump.kappa_ex,
                                    system.pump.delta))
    kappas = (system.pump.kappa_tot, system.signal.kappa_tot, system.idler.kappa_tot)
    fast = max(*kappas, abs(system.pump.delta), abs(system.signal.delta),
               abs(system.mismatch), system.g0 * math.sqrt(n_pump))
    return fast / min(kappas)


def acceptance_draw(rng):
    """One driven system from the time-domain oracle's acceptance distribution."""
    def channel(role, omega, eta, kappa, delta):
        return ModeChannel(role=role, omega=omega, m=100, kappa_ex=eta * kappa,
                           kappa_0=(1.0 - eta) * kappa, delta=delta)

    eta_p, eta_s, eta_i = (rng.uniform(0.25, 0.75), rng.uniform(0.6, 0.97),
                           rng.uniform(0.6, 0.97))
    k_p, k_s, k_i = (rng.uniform(4e8, 3e9) for _ in range(3))
    d_s, d_p, mismatch = (rng.uniform(-3e8, 3e8) for _ in range(3))
    system = TwmSystem(
        pump=channel("pump", OMEGA_P, eta_p, k_p, d_p),
        signal=channel("signal", OMEGA_S, eta_s, k_s, d_s),
        idler=channel("idler", OMEGA_I, eta_i, k_i, 0.0),
        g0=TWO_PI * 0.31e6, mismatch=mismatch,
    )
    return system.with_power(rng.uniform(0.1, 3.0) * pump_power_unity_cooperativity(system))


def oracle_context(cfg):
    """Stiffness slice edges of the acceptance draws, and the calibrated device's
    matched systems (pump/idler linewidths ~25x apart), built before timing."""
    rng = random.Random("oracle:reference")
    ref = sorted(stiffness(acceptance_draw(rng)) for _ in range(2000))
    edges = [ref[len(ref) * k // ORACLE_NONSTIFF] for k in range(1, ORACLE_NONSTIFF)]
    constraints = build_constraints(cfg)
    stiff = []
    for width in WIDTHS:
        match = find_triple_resonance(build_device(cfg, width_nm=width), constraints)[0]
        stiff.append(build_twm_system(cfg, match))
    return {"edges": edges, "stiff": stiff}


def oracle_block(seed, block, ctx):
    """Acceptance draws, one per stiffness slice, and one device system per width."""
    rng = random.Random(f"oracle:{seed}:{block}")
    edges = [0.0] + ctx["edges"] + [math.inf]
    slots = [None] * ORACLE_NONSTIFF
    while None in slots:
        system = acceptance_draw(rng)
        s = stiffness(system)
        k = next(i for i in range(ORACLE_NONSTIFF) if edges[i] <= s < edges[i + 1])
        if slots[k] is None:
            slots[k] = system
    ops = [{"system": s, "kind": "acceptance"} for s in slots]
    for j in range(ORACLE_STIFF):
        base = ctx["stiff"][(ORACLE_STIFF * block + j) % len(ctx["stiff"])]
        power = rng.uniform(0.1, 3.0) * pump_power_unity_cooperativity(base)
        ops.append({"system": base.with_power(power), "kind": "device"})
    rng.shuffle(ops)
    return ops


def run_oracle(op, ctx):
    return conversion.steady_state_conversion(op["system"])


def check_oracle(op, result, ctx):
    closed = external_efficiency(op["system"])
    for sim, ref in zip(result, closed):
        if not abs(sim / ref - 1.0) < ORACLE_TOL:
            raise CheckFailed(f"oracle eta {sim!r} vs closed form {ref!r}")
    return _digest(repr(result))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    block: object        # (seed, block index, ctx) -> list of ops
    run: object          # (op, ctx) -> result; the timed call
    check: object        # (op, result, ctx) -> digest; raises CheckFailed
    prepare: object      # (packaged cfg, work dir) -> ctx


WORKLOADS = {
    "explore": Workload(
        "explore", lambda seed, b, ctx: explore_block(seed, b), run_explore, check_explore,
        lambda cfg, work: {"work": work}),
    "recalibrate": Workload(
        "recalibrate", lambda seed, b, ctx: recalibrate_block(seed, b), run_recalibrate,
        check_recalibrate, lambda cfg, work: {"matches": {}}),
    "oracle": Workload(
        "oracle", oracle_block, run_oracle, check_oracle,
        lambda cfg, work: oracle_context(cfg)),
}
