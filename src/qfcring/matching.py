"""Triple-resonance search over the ring-tuner temperature.

For each grid temperature the signal comb line nearest the target
frequency is found; where it sits inside the signal tolerance, pump and
idler comb lines inside their wavelength windows are paired and filtered
by the frequency-mismatch bound and by quasi-phase matching.  Grid
temperatures that a closed-form bracket of the signal lines rules out are
never root-solved, so the cost follows the hits, not the grid.  Accepted
candidates are de-duplicated per mode triple and sorted by
(|mismatch|, |signal detuning|, T).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from decimal import Decimal

import numpy as np

from .constants import C_M_PER_S, MAX_GRID_CELLS, TWO_PI, freq_hz
from .dispersion import _fsr_hz
from .elements import (
    RESIDUAL_TOL,
    Device,
    _m_range,
    _rates,
    _temperature_at,
    qpm_mismatch,
    resonance_residual,
    solve_resonance_wavelength,
)
from .errors import (
    DomainError,
    NoFeasibleMatch,
    OutOfDomain,
    StaleResult,
    SweepStepTooCoarse,
)


@dataclass(frozen=True, slots=True)
class SearchConstraints:
    """Targets and tolerances of the triple-resonance search.

    signal_wavelength_nm fixes the target frequency (the memory transition),
    which the signal tolerance must stay below;
    the pump/idler windows are base +- half_window_nm.  t_step_K = None
    picks the step adaptively so one step shifts the signal resonance by a
    quarter of the signal tolerance (floor 1 mK).
    """

    signal_wavelength_nm: float = 737.0
    max_signal_detuning_Hz: float = 200e6
    max_mismatch_Hz: float = 150e6
    pump_base_nm: float = 1623.0
    idler_base_nm: float = 1350.0
    half_window_nm: float = 10.0
    t_min_K: float = 300.0
    t_max_K: float = 400.0
    t_step_K: float | None = None
    require_qpm: bool = True

    def __post_init__(self):
        if self.max_signal_detuning_Hz <= 0.0 or self.max_mismatch_Hz <= 0.0:
            raise ValueError("tolerances must be positive")
        # A signal line within a tolerance that reaches the target frequency lies
        # beyond c / (f_t - tol), which is no wavelength.  A target wavelength with
        # no frequency (lambda * 1e-9 <= 0) is left to the sweep's window check.
        f_t = self.signal_target_hz if self.signal_wavelength_nm * 1e-9 > 0.0 else math.inf
        if not self.max_signal_detuning_Hz < f_t:
            raise ValueError(f"signal tolerance {self.max_signal_detuning_Hz:g} Hz must be "
                             f"below the target frequency {f_t:g} Hz")
        if self.half_window_nm <= 0.0:
            raise ValueError("window must be positive")
        if not self.t_min_K < self.t_max_K:
            raise ValueError("temperature sweep range is empty")
        if self.t_step_K is not None and self.t_step_K <= 0.0:
            raise ValueError("sweep step must be positive")

    @property
    def pump_window_nm(self):
        return (self.pump_base_nm - self.half_window_nm, self.pump_base_nm + self.half_window_nm)

    @property
    def idler_window_nm(self):
        return (self.idler_base_nm - self.half_window_nm, self.idler_base_nm + self.half_window_nm)

    @property
    def signal_target_hz(self) -> float:
        return freq_hz(self.signal_wavelength_nm)


@dataclass(frozen=True, slots=True)
class ModeSolution:
    """One matched cavity mode: azimuthal number, wavelength and rates."""

    m: int
    lambda_nm: float
    kappa_ex: float
    kappa_0: float

    @property
    def kappa_tot(self) -> float:
        return self.kappa_ex + self.kappa_0

    @property
    def eta(self) -> float:
        tot = self.kappa_tot
        return self.kappa_ex / tot if tot > 0.0 else 0.0

    @property
    def freq_hz(self) -> float:
        return freq_hz(self.lambda_nm)

    @property
    def omega(self) -> float:
        return TWO_PI * self.freq_hz


@dataclass(frozen=True, slots=True)
class MatchResult:
    """A solution of the triple-resonance search.

    signal_detuning_Hz = f_signal_resonance - f_target (ordinary Hz);
    mismatch_Hz = f_s - f_p - f_i between the three resonances.
    """

    t_ring_K: float
    pump: ModeSolution
    signal: ModeSolution
    idler: ModeSolution
    signal_detuning_Hz: float
    mismatch_Hz: float
    qpm_mismatch: int
    constraints: SearchConstraints

    @property
    def carriers(self) -> tuple:
        """(role, ModeSolution) of the three modes, in pump, signal, idler order."""
        return (("pump", self.pump), ("signal", self.signal), ("idler", self.idler))


def _signal_tuning(device: Device, constraints: SearchConstraints):
    """(n_g, |d f_resonance / dT|, sweep step) of the signal mode at the target and mid-sweep T."""
    model, t_mid = device.dispersion, 0.5 * (constraints.t_min_K + constraints.t_max_K)
    ng = model.group_index(constraints.signal_wavelength_nm, t_mid, device.width_nm)
    rate = constraints.signal_target_hz * abs(model.dn_dT_per_K) / float(ng)
    step = constraints.t_step_K
    if step is None:
        # Lines that do not move with T: one step spans the range.
        step = (constraints.t_max_K - constraints.t_min_K if rate == 0.0
                else max(1e-3, 0.25 * constraints.max_signal_detuning_Hz / rate))
    return ng, rate, step


def sweep_step_K(device: Device, constraints: SearchConstraints) -> float:
    """t_step_K, or the adaptive step that moves the signal resonance by tol/4 (floor 1 mK)."""
    return _signal_tuning(device, constraints)[2]


def _check_domain(device: Device, constraints: SearchConstraints):
    model = device.dispersion
    lo, hi = model.lambda_window_nm
    bands = [
        (constraints.signal_wavelength_nm, constraints.signal_wavelength_nm),
        constraints.pump_window_nm,
        constraints.idler_window_nm,
    ]
    for b in bands:
        if b[0] < lo or b[1] > hi:
            raise OutOfDomain(
                f"search band {b} nm leaves the dispersion window [{lo}, {hi}] nm"
            )
    tlo, thi = model.temperature_window_K
    if constraints.t_min_K < tlo or constraints.t_max_K > thi:
        raise OutOfDomain(
            f"sweep range [{constraints.t_min_K}, {constraints.t_max_K}] K leaves "
            f"the dispersion window [{tlo}, {thi}] K"
        )


def _signal_bracket(device: Device, constraints: SearchConstraints, m_s_list,
                    t_grid: np.ndarray, step: float) -> np.ndarray:
    """Mask of the grid temperatures at which a signal line can hit the tolerance.

    A line m_s sits within tol of the target exactly while its wavelength
    lies between c/(f_t + tol) and c/(f_t - tol).  The resonance wavelength
    is monotonic in T wherever n_g > 0, which the dispersion model
    guarantees, so those edges bound a temperature interval per line; one
    step of margin on each side absorbs root-solver noise.  The edges are
    clipped to the dispersion window, where every line is solved: beyond a
    clipped edge no line resonates, and n_eff extrapolated there would give
    meaningless edge temperatures.  When dn/dT is zero the lines do not move
    with T, and every grid point is kept.
    """
    if device.dispersion.dn_dT_per_K == 0.0:
        return np.ones(t_grid.size, dtype=bool)
    f_t, tol = constraints.signal_target_hz, constraints.max_signal_detuning_Hz
    edges_nm = np.clip(C_M_PER_S / (np.array([f_t + tol, f_t - tol]) * 1e-9),
                       *device.dispersion.lambda_window_nm)
    t_edges = _temperature_at(device, np.asarray(m_s_list, dtype=float)[:, None], edges_nm)
    starts = np.searchsorted(t_grid, t_edges.min(axis=1) - step, side="left")
    stops = np.searchsorted(t_grid, t_edges.max(axis=1) + step, side="right")
    keep = np.zeros(t_grid.size, dtype=bool)
    for a, b in zip(starts, stops):
        keep[a:b] = True
    return keep


# Mismatches are quantized to 1 Hz in the ordering: the root-solver noise on a
# ~4e14 Hz difference is ~0.1 Hz, and resolving ties on that noise would
# defeat the signal-detuning tie-break.
def _rank(mismatch_Hz: float, signal_detuning_Hz: float, t_ring_K: float):
    return (round(abs(mismatch_Hz)), abs(signal_detuning_Hz), t_ring_K)


def _match_rank(match: MatchResult):
    return _rank(match.mismatch_Hz, match.signal_detuning_Hz, match.t_ring_K)


def rated(device: Device, match: MatchResult) -> MatchResult:
    """The match with (kappa_ex, kappa_0) of its three modes read from device at its T.

    Lines, T and integers depend on the dispersion model and the ring alone,
    so a match swept on the bare ring is rated on the coupled device as is.
    The three carriers are read in one rate call.
    """
    lams = np.array([ms.lambda_nm for _, ms in match.carriers])
    _, kappa_ex, kappa_0 = _rates(device, lams, match.t_ring_K)
    kappa_ex = np.broadcast_to(kappa_ex, lams.shape)
    return replace(match, **{
        role: replace(ms, kappa_ex=float(ex), kappa_0=float(k0))
        for (role, ms), ex, k0 in zip(match.carriers, kappa_ex, kappa_0)
    })


def _scan(device, constraints, t_points, m_s_list, m_p_list, m_i_list, m_offset):
    """Scan the given temperatures; returns (feasible, near, paired), unrated (rates 0.0).

    feasible holds one match per (m_s, m_p, m_i) triple that has a
    window+QPM pair within the mismatch bound: its first pair of least
    _rank in (hit, pump line, idler line) order, which is also the order in
    which the triples first appear.  Only those matches are built; the pairs
    are walked as Python numbers.  A hit temperature without a pair offers
    its first pair of least |mismatch| as a near miss (|signal
    detuning| <= tol_s at every hit, so the mismatch alone sets how near a
    pair is); near is the first least of those, or None, and always None
    when feasible is not empty: the near miss is looked for only until a
    triple matches.  paired says whether
    any hit has a pump and an idler line inside their windows.  Every signal,
    pump and idler line is root-solved at every temperature in one call; the
    signal rows pick the hits, and the pump and idler rows are read at them.
    So a NumericalFailure may name any line at any of the given temperatures,
    hit or not.  The pairs of all hits are formed in one broadcast, in chunks
    of hits that keep each array within MAX_GRID_CELLS cells.
    """
    tol_s = constraints.max_signal_detuning_Hz
    tol_d = constraints.max_mismatch_Hz
    f_target = constraints.signal_target_hz
    p_lo, p_hi = constraints.pump_window_nm
    i_lo, i_hi = constraints.idler_window_nm

    m_s_arr, m_p_arr, m_i_arr = (np.asarray(ms) for ms in (m_s_list, m_p_list, m_i_list))
    n_s, n_p = m_s_arr.size, m_p_arr.size
    m_all = np.concatenate((m_s_arr, m_p_arr, m_i_arr))
    lam_all = solve_resonance_wavelength(device, m_all[:, None], t_points)   # (n_m, n_t)
    lam_s = lam_all[:n_s]
    det_s = freq_hz(lam_s) - f_target
    pick = np.argmin(np.abs(det_s), axis=0)                  # nearest line per T
    cols = np.arange(t_points.size)
    det_best = det_s[pick, cols]
    hit = np.abs(det_best) <= tol_s
    if not np.any(hit):
        return [], None, False

    t_hit = t_points[hit]
    m_s_hit = m_s_arr[pick[hit]]
    lam_s_hit = lam_s[pick[hit], cols[hit]]
    det_hit = det_best[hit]

    # (n_hit, n_mp) and (n_hit, n_mi)
    lam_p = lam_all[n_s:n_s + n_p][:, hit].T
    lam_i = lam_all[n_s + n_p:][:, hit].T
    f_s, f_p, f_i = freq_hz(lam_s_hit), freq_hz(lam_p), freq_hz(lam_i)
    in_p = (lam_p >= p_lo) & (lam_p <= p_hi)
    in_i = (lam_i >= i_lo) & (lam_i <= i_hi)
    m_pi = np.add.outer(m_p_arr, m_i_arr)                    # (n_mp, n_mi)

    def match(h, jp, ji, delta, qpm):
        return MatchResult(
            t_ring_K=float(t_hit[h]),
            pump=ModeSolution(int(m_p_arr[jp]), float(lam_p[h, jp]), 0.0, 0.0),
            signal=ModeSolution(int(m_s_hit[h]), float(lam_s_hit[h]), 0.0, 0.0),
            idler=ModeSolution(int(m_i_arr[ji]), float(lam_i[h, ji]), 0.0, 0.0),
            signal_detuning_Hz=float(det_hit[h]), mismatch_Hz=float(delta),
            qpm_mismatch=int(qpm), constraints=constraints,
        )

    best, near, near_score = {}, None, None  # triple -> (rank, match arguments)
    chunk = max(1, MAX_GRID_CELLS // m_pi.size)
    for start in range(0, t_hit.size, chunk):
        h = slice(start, start + chunk)
        delta = f_s[h, None, None] - (f_p[h, :, None] + f_i[h, None, :])
        qpm = m_s_hit[h, None, None] - m_pi - m_offset
        base = in_p[h, :, None] & in_i[h, None, :]
        if constraints.require_qpm:
            base &= qpm == 0
        ok = base & (np.abs(delta) <= tol_d)
        hs, jps, jis = np.nonzero(ok)
        hs += start
        pairs = zip(m_s_hit[hs].tolist(), m_p_arr[jps].tolist(), m_i_arr[jis].tolist(),
                    det_hit[hs].tolist(), t_hit[hs].tolist(), hs.tolist(), jps.tolist(),
                    jis.tolist(), delta[ok].tolist(), qpm[ok].tolist())
        for m_s, m_p, m_i, det, t, hk, jp, ji, d, q in pairs:
            rank = _rank(d, det, t)
            prev = best.get((m_s, m_p, m_i))
            if prev is None or rank < prev[0]:
                best[(m_s, m_p, m_i)] = (rank, (hk, jp, ji, d, q))

        if best:  # a near miss is read only when no triple matches
            continue
        miss = base.any(axis=(1, 2)) & ~ok.any(axis=(1, 2))
        if not np.any(miss):
            continue
        score = np.where(base, np.abs(delta), np.inf).reshape(miss.size, -1)
        pair = np.argmin(score, axis=1)                      # first least per hit
        least = np.where(miss, score[np.arange(miss.size), pair], np.inf)
        k = int(np.argmin(least))                            # first least hit
        if near is None or least[k] < near_score:
            jp, ji = np.unravel_index(pair[k], m_pi.shape)
            near = match(start + k, jp, ji, delta[k, jp, ji], qpm[k, jp, ji])
            near_score = least[k]
    feasible = [match(*args) for _, args in best.values()]
    return feasible, None if best else near, bool((in_p.any(axis=1) & in_i.any(axis=1)).any())


def _count(n: int) -> str:
    """A line or step count: exact up to 10**15, else to three digits."""
    return str(n) if n <= 10**15 else format(Decimal(n), ".3g")


def find_triple_resonance(device: Device, constraints: SearchConstraints):
    """Sweep the ring-tuner temperature and return all feasible matches.

    The list is sorted by (|mismatch|, |signal detuning|, T) and de-duplicated
    per (m_s, m_p, m_i) triple.  Raises SweepStepTooCoarse when one step can
    move the signal resonance past half the signal tolerance, DomainError
    when the search grid would exceed MAX_GRID_CELLS, and NoFeasibleMatch
    (carrying the best near-miss) when nothing passes.
    """
    _check_domain(device, constraints)
    ng, rate, step = _signal_tuning(device, constraints)
    if step * rate > 0.5 * constraints.max_signal_detuning_Hz:
        raise SweepStepTooCoarse(
            f"step {step} K shifts the signal resonance by {step * rate / 1e6:.1f} MHz "
            f"> tolerance/2 = {constraints.max_signal_detuning_Hz / 2e6:.1f} MHz"
        )
    span = constraints.t_max_K - constraints.t_min_K
    fsr_s = _fsr_hz(float(ng), device.ring.length_m)  # inf for a ring too short to resolve
    if rate * span < fsr_s:
        warnings.warn(
            f"sweep range covers {rate * span / 1e9:.1f} GHz of signal shift, "
            f"less than one FSR ({fsr_s / 1e9:.1f} GHz); coverage is incomplete",
            stacklevel=2,
        )

    count = span / step + 1e-9  # inf for a step below ~1e-306 K, which is refused below
    n_steps = int(math.floor(count)) + 1 if math.isfinite(count) else count
    t_ends = (constraints.t_min_K, constraints.t_max_K)
    target_nm = constraints.signal_wavelength_nm
    m_s_list, m_p_list, m_i_list = _m_range(
        device, [(target_nm, target_nm), constraints.pump_window_nm,
                 constraints.idler_window_nm], t_ends)
    # stop - start, as len() of a range beyond ssize_t raises OverflowError
    n_s, n_p, n_i = (r.stop - r.start for r in (m_s_list, m_p_list, m_i_list))
    # The first term bounds _scan's one root solve of every line at every kept
    # temperature, the second its (pump x idler) pair arrays.
    if max((n_s + n_p + n_i) * n_steps, n_p * n_i) > MAX_GRID_CELLS:
        raise DomainError(
            f"search grid of {_count(n_s + n_p + n_i)} comb lines x {_count(n_steps)} "
            f"temperatures ({_count(n_p)} pump x {_count(n_i)} idler lines) exceeds "
            f"{MAX_GRID_CELLS} cells"
        )
    t_grid = constraints.t_min_K + step * np.arange(n_steps)
    m_offset = device.ring.m_offset

    keep = _signal_bracket(device, constraints, m_s_list, t_grid, step)
    feasible, near, paired = _scan(device, constraints, t_grid[keep], m_s_list, m_p_list,
                                   m_i_list, m_offset)

    best_by_triple = {}
    for match in feasible:
        key = (match.signal.m, match.pump.m, match.idler.m)
        prev = best_by_triple.get(key)
        if prev is None or _match_rank(match) < _match_rank(prev):
            best_by_triple[key] = match
    results = sorted(best_by_triple.values(), key=_match_rank)
    if results:
        return [rated(device, match) for match in results]

    # Diagnostics: a near miss passes the windows, QPM and the signal
    # tolerance (it sits at a hit), so only its mismatch violates.
    if near is not None:
        raise NoFeasibleMatch(
            "no mode triple satisfies all constraints; best candidate violates: mismatch "
            f"{near.mismatch_Hz / 1e6:.3f} MHz exceeds {constraints.max_mismatch_Hz / 1e6:g} MHz",
            best_candidate=rated(device, near),
        )
    if paired:  # without QPM every windowed pair would be a match or a near miss
        raise NoFeasibleMatch(
            "no pump/idler pair inside their windows is quasi-phase matched at any signal "
            f"hit: m_s - m_p - m_i never equals the poling offset M = {m_offset}")
    raise NoFeasibleMatch(
        "no signal resonance enters the detuning tolerance anywhere in the sweep "
        "range, or no pump/idler lines fall inside their windows",
    )


def verify_match(device: Device, result: MatchResult) -> dict:
    """Check a match's stored fields against raw dispersion, without the root solver.

    StaleResult when a stored line's |resonance_residual| at the stored T
    exceeds RESIDUAL_TOL or is NaN, or when the signal detuning, mismatch
    (both to RESIDUAL_TOL * f_s) or QPM integer re-derived from the stored
    lines disagrees with the stored one.
    """
    cons = result.constraints
    modes = dict(result.carriers)
    residuals = resonance_residual(device, [ms.m for ms in modes.values()],
                                   [ms.lambda_nm for ms in modes.values()], result.t_ring_K)
    report = {}
    for (label, ms), r in zip(modes.items(), residuals.tolist()):
        report.update({f"{label}_lambda_nm": ms.lambda_nm, f"{label}_residual": r})
        if not abs(r) <= RESIDUAL_TOL:
            raise StaleResult(f"{label} line m={ms.m} at {ms.lambda_nm} nm and T = "
                              f"{result.t_ring_K} K: closed form residual {r:.3g}")

    f_p, f_s, f_i = (ms.freq_hz for ms in modes.values())
    det_s = f_s - cons.signal_target_hz
    delta = f_s - f_p - f_i
    qpm = qpm_mismatch(result.signal.m, result.pump.m, result.idler.m,
                       device.ring.m_offset)
    report.update(signal_detuning_Hz=det_s, mismatch_Hz=delta, qpm_mismatch=qpm)
    tol_hz = RESIDUAL_TOL * max(abs(f_s), 1.0)
    if not abs(det_s - result.signal_detuning_Hz) <= tol_hz:
        raise StaleResult(
            f"signal detuning re-derives to {det_s} Hz, stored {result.signal_detuning_Hz} Hz"
        )
    if not abs(delta - result.mismatch_Hz) <= tol_hz:
        raise StaleResult(
            f"mismatch re-derives to {delta} Hz, stored {result.mismatch_Hz} Hz"
        )
    if qpm != result.qpm_mismatch:
        raise StaleResult(
            f"QPM mismatch re-derives to {qpm}, stored {result.qpm_mismatch}"
        )
    return report


def companion_detuning(device: Device, match: MatchResult):
    """delta' (rad/s) of the FWM companion's comb line at a match, or None.

    The four-wave-mixing companion carries azimuthal number 2 m_p - m_i;
    delta' is its comb line's frequency minus 2 w_p - w_i.  None when that
    line leaves the dispersion window (`builders.fwm_channel_at` then reads
    the config's table); the line is solved only when its m is one of the
    window's `_m_range`, so a line far outside is never root-solved.
    """
    m_comp = 2 * match.pump.m - match.idler.m
    f_target = 2.0 * match.pump.freq_hz - match.idler.freq_hz
    window = device.dispersion.lambda_window_nm
    if (f_target > 0.0 and m_comp > 0
            and m_comp in _m_range(device, [window], match.t_ring_K)[0]):
        lam = solve_resonance_wavelength(device, m_comp, match.t_ring_K)
        if window[0] <= lam <= window[1]:
            return TWO_PI * (freq_hz(lam) - f_target)
    return None
