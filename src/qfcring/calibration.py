"""Calibration of the committed device defaults against the design anchors.

Anchors (all from the calibration_targets section):
  1. coupling ratios at the operating MZI drive: eta_pump ~ 0.5 (critical),
     eta_signal / eta_idler overcoupled, evaluated at the matched carriers;
  2. effective vacuum rate g0 at the configured poled fraction;
  3. four-wave-mixing noise rate at the anchor power and companion detuning.

Solved per width: a heater length (as a scale on the base length) and the
three coupling-length anchor points that make the MZI cross-coupling land
exactly on the eta targets; shared: g0_full and g_chi3 (closed forms).

The heater walk screens the grid in numpy chunks and lets scalar checks
decide the survivors, so every returned value comes from the scalar path
(solve_width_couplings).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .builders import build_device, build_fwm_channel, operating_point
from .config import width_key
from .constants import TWO_PI, db_per_m_to_kappa
from .dispersion import U_SCALE_NM
from .elements import MAX_ARM_PHASE_RAD, Device
from .errors import CalibrationInfeasible, DomainError, NoFeasibleMatch, OutOfDomain
from .matching import MatchResult, rated
from .noise import fwm_noise_rate

# Heater-length grid used to place the pump near an MZI envelope null while
# the signal/idler envelopes stay strong.  Grid points are tried nearest the
# base length first (ties to the shorter heater); the first feasible one wins.
_HEATER_GRID_UM = 0.25
# The walk gives up after this many candidates, so its cost does not grow
# with calibration_targets.max_heater_length_um.
_MAX_HEATER_CANDIDATES = 2**20
# Below this many grid points the heater lengths j * step are distinct floats
# and every grid index fits numpy's int64.
_MAX_GRID_POINTS = 2**53
# The walk screens the grid in chunks of 256 points, doubling up to 4096: most
# walks end within a few hundred points, and the longest pay few numpy calls.
_FIRST_CHUNK, _MAX_CHUNK = 256, 4096
# Relative margin of each screen test against the sum of its absolute terms
# (scaled by the Vandermonde condition number for the quadratic's tests).  It
# covers the few-ulp gaps between numpy's and math's cos and arcsin, and
# between the closed-form and the LAPACK quadratic, so the screen never drops
# a point the scalar checks would accept; a wider margin costs only time.
_SCREEN_RTOL = 1e-9


def solve_g0_full_over_2pi_MHz(targets: dict, ppln_fraction: float) -> float:
    """g0_full such that g0_full * f_ppln hits the g0 target."""
    if ppln_fraction <= 0.0:
        raise CalibrationInfeasible(
            "anchor 'g0': poled fraction is zero, no finite g0_full exists"
        )
    g0 = float(targets["g0_over_2pi_MHz"])
    if g0 <= 0.0:
        raise CalibrationInfeasible(
            f"anchor 'g0': target g0_over_2pi_MHz={g0} must be positive")
    return g0 / ppln_fraction


def _required_cross_couplings(device: Device, match: MatchResult, targets: dict):
    """Composite K needed at each carrier for the eta anchors.

    The three carriers' v_g come from one group_velocity call.  When a
    carrier lies outside the dispersion window, each carrier reads its own
    v_g instead, so the refusals come in carrier order: its eta target, its
    window, its loss.
    """
    model, ring = device.dispersion, device.ring
    t = match.t_ring_K
    try:
        vgs = model.group_velocity([sol.lambda_nm for _, sol in match.carriers], t,
                                   ring.width_nm).tolist()
    except OutOfDomain:
        vgs = [None] * len(match.carriers)
    out = {}
    for (label, sol), vg in zip(match.carriers, vgs):
        eta_key = f"eta_{label}"
        eta = float(targets[eta_key])
        if not 0.0 < eta < 1.0:
            raise CalibrationInfeasible(
                f"anchor 'coupling ratios': target {eta_key}={eta} must be in (0, 1)"
            )
        if vg is None:
            vg = float(model.group_velocity(sol.lambda_nm, t, ring.width_nm))
        kappa_0 = db_per_m_to_kappa(ring.alpha_prop_dB_per_m, vg)
        if kappa_0 <= 0.0:
            raise CalibrationInfeasible(
                f"anchor 'coupling ratios': device.propagation_loss_dB_per_m="
                f"{ring.alpha_prop_dB_per_m} leaves the {label} mode lossless, so "
                f"{eta_key} would need kappa_ex = 0")
        kappa_ex = kappa_0 * eta / (1.0 - eta)
        out[label] = (sol.lambda_nm, kappa_ex * ring.length_m / vg)
    return out


def _lc_quadratic(points_um, lambda_ref_nm):
    """Exact quadratic through three (lambda_nm, L_c um) anchor points."""
    lam = np.array([p[0] for p in points_um])
    val = np.array([p[1] for p in points_um])
    u = (lam - lambda_ref_nm) / U_SCALE_NM
    vander = np.vander(u, 3, increasing=True)
    return np.linalg.solve(vander, val)


def _grid_nearest_first(base_um: float, n_grid: int):
    """Heater grid indices j = 1..n_grid by increasing (|j * step - base|, j), in chunks.

    Below the base the cost grows as j falls, above it as j rises, so the
    order is a merge of two sorted runs.  The step is a power of two, which
    makes the split index exact.  Each chunk merges the next indices of both
    runs with a stable sort, which puts a tie on the shorter heater.  The
    chunks stop after _MAX_HEATER_CANDIDATES indices in all, so numpy sees
    no index farther than that from the split.
    """
    split = int(min(max(base_um / _HEATER_GRID_UM, 0), n_grid))  # floor; inf -> n_grid
    below = above = 0  # indices taken from each run so far
    left = min(n_grid, _MAX_HEATER_CANDIDATES)
    size = _FIRST_CHUNK
    while left > 0:
        size = min(size, left)
        js = np.concatenate((
            split - below - np.arange(min(size, split - below)),
            split + 1 + above + np.arange(min(size, n_grid - split - above))))
        js = js[np.argsort(np.abs(js * _HEATER_GRID_UM - base_um), kind="stable")[:size]]
        taken = int(np.count_nonzero(js <= split))
        below, above, left = below + taken, above + size - taken, left - size
        yield js
        size = min(2 * size, _MAX_CHUNK)


def _endpoint_forms(lams, lambda_ref_nm: float, u_first: float, u_last: float):
    """Linear forms taking the three anchor L_c values to the quadratic's slope
    at both window ends and its value at the far end.

    Returns the forms and their margins: per L_c, the forms' absolute terms
    times _SCREEN_RTOL and the Vandermonde condition number.  Column i of the
    inverse Vandermonde holds the coefficients of the Lagrange polynomial
    through u_i.
    """
    u = (np.asarray(lams) - lambda_ref_nm) / U_SCALE_NM
    a, b = u[[1, 2, 0]], u[[2, 0, 1]]  # the other two anchors, per column
    at = np.array([[0.0, 1.0, 2.0 * u_first], [0.0, 1.0, 2.0 * u_last],
                   [1.0, u_last, u_last**2]])
    with np.errstate(all="ignore"):  # coincident anchors give NaN forms, which drop nothing
        vinv = np.stack((a * b, -(a + b), np.ones(3))) / ((u - a) * (u - b))
        cond = np.abs(vinv).sum(axis=1).max() * (1.0 + np.abs(u) + u**2).max()  # infinity norms
        return at @ vinv, _SCREEN_RTOL * max(1.0, cond) * (np.abs(at) @ np.abs(vinv))


def _screen(js, geos, thermals, ks, dc_len_um: float, forms):
    """Mask of the grid indices js whose heater the scalar checks might accept.

    A point is dropped only when a necessary condition fails beyond doubt:
    an envelope at or below its |k|^2, the carrier ordering of the x roots,
    a positive slope at either window end, or a non-positive L_c at the far
    end (a non-increasing quadratic is smallest there).  The envelope is
    bounded by a relative margin, and x falls as the envelope rises, as does
    every correctly rounded step computing it, so the scalar x lies between
    the x of the two bounds.  The quadratic's end values are linear in L_c,
    so their bounds over the L_c box come from the forms' signed weights.
    An arm phase that is NaN or has |phase| >= MAX_ARM_PHASE_RAD gives no
    envelope (0.0), as in the scalar walk, so the point is dropped; any other
    NaN or inf keeps the point for the scalar checks.
    """
    w, tol = forms
    with np.errstate(all="ignore"):
        phase = geos + np.multiply.outer(js * _HEATER_GRID_UM, thermals) * 1e-6
        env = np.where(np.abs(phase) < MAX_ARM_PHASE_RAD, np.cos(0.5 * phase) ** 2, 0.0)
        drop = np.any(env * (1.0 + _SCREEN_RTOL) <= ks, axis=1)
        x_lo, x_hi = (0.5 * (1.0 - np.sqrt(np.maximum(1.0 - ks / (env * scale), 0.0)))
                      for scale in (1.0 + _SCREEN_RTOL, 1.0 - _SCREEN_RTOL))
        drop |= (x_lo[:, 0] >= x_hi[:, 1]) | (x_lo[:, 1] >= x_hi[:, 2])
        lc_a, lc_b = (math.pi * dc_len_um / (2.0 * np.arcsin(np.sqrt(x))) for x in (x_lo, x_hi))
        lc_lo, lc_hi = np.minimum(lc_a, lc_b), np.maximum(lc_a, lc_b)
        pos, neg = np.maximum(w, 0.0).T, np.minimum(w, 0.0).T
        low, high = lc_lo @ pos + lc_hi @ neg, lc_hi @ pos + lc_lo @ neg
        margin = np.maximum(-lc_lo, lc_hi) @ tol.T
        drop |= np.isfinite(margin).all(axis=1) & (
            (low[:, 0] > margin[:, 0]) | (low[:, 1] > margin[:, 1])
            | (high[:, 2] <= -margin[:, 2]))
    return ~drop


def solve_width_couplings(cfg: dict, device: Device, match: MatchResult) -> dict:
    """(heater_scale, lc_quad_um) hitting the eta anchors at the matched carriers.

    For a candidate heater length the envelope cos^2(dtheta/2) at each
    carrier fixes the bare coupler strength |k|^2 needed there; feasibility
    requires the three |k|^2 to be solvable, ordered increasing with
    wavelength, and the through-quadratic coupling length positive and
    non-increasing over the window.  Heater lengths on the grid are tried
    nearest the configured base first (ties to the shorter one), and the
    first feasible one is returned; after _MAX_HEATER_CANDIDATES tries the
    search stops with CalibrationInfeasible naming the span it covered.  The
    arm phase is affine in the heater length, so beta is evaluated once, for
    the three carriers in one call.  A coupling-length anchor or coefficient
    beyond float range raises DomainError naming device.dc_length_um.

    The grid comes in chunks that grow from 256 to 4096 points
    (_grid_nearest_first).  A numpy screen (_screen) drops from each chunk
    the points that fail a necessary condition beyond its margin; the scalar
    checks below then decide the survivors in order, so the first point they
    accept wins and every returned value comes from them.
    """
    dev_cfg = cfg["device"]
    targets = cfg["calibration_targets"]
    model = device.dispersion
    width = device.width_nm
    base_um = float(dev_cfg["mzi_heater_length_um"])
    if base_um == 0.0:
        raise CalibrationInfeasible(
            "anchor 'coupling ratios': base heater length is zero, no heater scale exists"
        )
    max_um = float(targets["max_heater_length_um"])
    delta_len_um = float(dev_cfg["mzi_arm_delta_um"])
    delta_T = float(dev_cfg["mzi_delta_T_K"])
    dn_dT = float(cfg["dispersion"]["dn_dT_per_K"])
    t_base = float(dev_cfg["ambient_temperature_K"])
    dc_len_um = float(dev_cfg["dc_length_um"])

    needed = _required_cross_couplings(device, match, targets)
    order = ("signal", "idler", "pump")  # increasing wavelength
    lams = [needed[r][0] for r in order]
    ks = [needed[r][1] for r in order]
    # arm phase = geo + thermal * heater_um * 1e-6, per carrier
    geos = [beta * delta_len_um * 1e-6
            for beta in model.propagation_constant(lams, t_base, width).tolist()]
    thermals = [TWO_PI / (lam * 1e-9) * dn_dT * delta_T for lam in lams]

    lo, hi = model.lambda_window_nm
    u = (np.linspace(lo, hi, 97) - model.lambda_ref_nm) / U_SCALE_NM
    forms = _endpoint_forms(lams, model.lambda_ref_nm, u[0], u[-1])
    screen_args = (np.array(geos), np.array(thermals), np.array(ks), dc_len_um, forms)

    n_grid = int(min(max(max_um / _HEATER_GRID_UM, 0), _MAX_GRID_POINTS))
    j_lo, j_hi = n_grid + 1, 0  # the span of grid indices tried so far
    for chunk in _grid_nearest_first(base_um, n_grid):
        j_lo, j_hi = min(j_lo, int(chunk.min())), max(j_hi, int(chunk.max()))
        for j in chunk[_screen(chunk, *screen_args)].tolist():
            heater = j * _HEATER_GRID_UM
            x = []
            for geo, thermal, k_req in zip(geos, thermals, ks):
                phase = geo + thermal * heater * 1e-6  # beyond float resolution: no envelope
                env = math.cos(0.5 * phase) ** 2 if abs(phase) < MAX_ARM_PHASE_RAD else 0.0
                if env <= k_req:
                    break
                # K = 4 x (1-x) env  ->  small root
                x.append(0.5 * (1.0 - math.sqrt(1.0 - k_req / env)))
            # a root of 0 needs an infinite coupling length
            if len(x) < 3 or not (0.0 < x[0] < x[1] < x[2]):
                continue
            lc_pts = [
                (lam, math.pi * dc_len_um / (2.0 * math.asin(math.sqrt(xi))))
                for lam, xi in zip(lams, x)
            ]
            coeffs = _lc_quadratic(lc_pts, model.lambda_ref_nm)
            anchors = [lc for _, lc in lc_pts]
            if not np.isfinite([*anchors, *coeffs]).all():
                raise DomainError(
                    f"coupling-length anchors {anchors} um and quadratic {coeffs.tolist()} "
                    f"are beyond float range: device.dc_length_um={dc_len_um:g}")
            lc_curve = coeffs[0] + coeffs[1] * u + coeffs[2] * u**2
            slope = coeffs[1] + 2.0 * coeffs[2] * u
            if np.any(lc_curve <= 0.0) or np.any(slope > 0.0):
                continue
            return {
                "heater_scale": heater / base_um,
                "lc_quad_um": [float(c) for c in coeffs],
            }
    searched = f"up to {max_um} um"
    if n_grid > _MAX_HEATER_CANDIDATES:
        searched = (f"in [{j_lo * _HEATER_GRID_UM}, {j_hi * _HEATER_GRID_UM}] um "
                    f"(the {_MAX_HEATER_CANDIDATES} grid points nearest the base, where "
                    "the search stops)")
    raise CalibrationInfeasible(
        "anchor 'coupling ratios at the operating MZI drive': no heater "
        f"length {searched} places the pump near an envelope null "
        "while keeping the signal/idler envelopes strong"
    )


def solve_g_chi3_over_2pi_Hz(cfg: dict, match: MatchResult) -> float:
    """g_chi3 so the noise rate hits the anchor at the anchor power/detuning."""
    targets = cfg["calibration_targets"]
    rate = float(targets["fwm_rate_Hz"])
    if rate <= 0.0:
        raise CalibrationInfeasible(
            f"anchor 'noise rate': target fwm_rate_Hz={rate} must be positive")
    power_mW = float(targets["fwm_rate_power_mW"])
    if power_mW <= 0.0:
        raise CalibrationInfeasible(
            f"anchor 'noise rate': target fwm_rate_power_mW={power_mW} must be positive")
    # The rate is quadratic in g_chi3: probe once at g_chi3 = 1 rad/s.
    unit = dict(cfg, calibration=dict(cfg["calibration"], g_chi3_over_2pi_Hz=1.0 / TWO_PI))
    anchor = TWO_PI * float(targets["fwm_anchor_detuning_over_2pi_THz"]) * 1e12
    unit_rate = fwm_noise_rate(build_fwm_channel(unit, match, anchor), power_mW * 1e-3)
    if unit_rate <= 0.0:
        raise CalibrationInfeasible(f"anchor 'noise rate': the rate underflows to zero at "
                                    f"fwm_rate_power_mW={power_mW} and the anchor detuning")
    g = math.sqrt(rate / unit_rate)
    return g / TWO_PI


def calibrate_config(cfg: dict) -> dict:
    """Return a copy of cfg with a freshly solved calibration block.

    Per width in experiment.widths_nm: the verified bare-ring operating
    point, then the coupling anchors solved at its matched carriers.  g_chi3
    is anchored on the primary width's pump mode.  Raises
    CalibrationInfeasible naming the violated anchor (matching failures
    surface as the triple-resonance anchor).
    """
    out = json.loads(json.dumps({k: v for k, v in cfg.items() if k != "calibration"}))
    widths = [float(w) for w in cfg["experiment"]["widths_nm"]]
    primary = float(cfg["device"]["width_nm"])
    if primary not in widths:
        widths.append(primary)

    by_width = {}
    matches = {}
    for width in sorted(widths):
        try:
            device, found = operating_point(cfg, width_nm=width, with_coupler=False)
        except NoFeasibleMatch as exc:
            raise CalibrationInfeasible(
                f"anchor 'triple resonance' (width {width:g} nm): {exc}"
            ) from exc
        matches[width] = found[0]
        by_width[width_key(width)] = solve_width_couplings(cfg, device, found[0])

    g0_full = solve_g0_full_over_2pi_MHz(cfg["calibration_targets"],
                                         float(cfg["device"]["ppln_fraction"]))
    out["calibration"] = {"g0_full_over_2pi_MHz": g0_full, "by_width": by_width}

    # g_chi3 needs the calibrated pump rates: the primary bare-ring match,
    # rated on the device with its fresh coupler.
    match = rated(build_device(out, width_nm=primary), matches[primary])
    out["calibration"]["g_chi3_over_2pi_Hz"] = solve_g_chi3_over_2pi_Hz(out, match)
    return out

