"""Effective-index dispersion of the thin-film LN waveguide family.

A DispersionModel holds, per discrete top width, a polynomial fit of
n_eff(lambda) about a reference wavelength plus a linear thermo-optic
shift with one constant dn/dT.  Widths are discrete design choices;
interpolating between them is deliberately unsupported.  Evaluation
outside the fitted window raises OutOfDomain rather than extrapolating.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field, fields
from importlib import resources
from types import MappingProxyType

import numpy as np

from .constants import C_M_PER_S, TWO_PI
from .errors import DomainError, FitError, OutOfDomain, ParseError, UnknownWidth

# Wavelengths are rescaled to u = (lambda_nm - lambda_ref_nm)/U_SCALE_NM before
# polynomial evaluation so high orders stay well conditioned.
U_SCALE_NM = 1000.0

TABLE_HEADER = ("wavelength_nm", "width_nm", "temperature_K", "n_eff")

# Physical sanity bounds for TFLN-on-insulator effective indices.
N_EFF_MIN, N_EFF_MAX = 1.0, 3.0

# Largest max-abs residual a table fit may leave before it raises FitError.
_MAX_FIT_RESIDUAL = 1e-3


def _polyval(coeffs, u):
    """Horner evaluation of ascending-power coefficients (a sequence of floats).

    0.0 * u + c_n is a zeros start's first step: an inf or NaN in u gives NaN.
    It makes a new array, so the later steps run in place.
    """
    if len(coeffs) == 0:
        return np.zeros_like(np.asarray(u, dtype=float))
    out = 0.0 * u + coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= u
        out += c
    return out


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    n = np.arange(1, len(coeffs))
    return coeffs[1:] * n


def _check_window(quantity: str, values, unit: str, owner: str, window):
    """OutOfDomain when a value lies outside the closed window; a NaN counts as inside.

    A single value is named as given; of several, the first outside and how
    many of them are outside.
    """
    lo, hi = window
    x = np.asarray(values, dtype=float)
    outside = (x < lo) | (x > hi)
    if outside.any():
        if x.size == 1:
            raise OutOfDomain(f"{quantity} {values} {unit} outside {owner} window "
                              f"[{lo}, {hi}] {unit}")
        raise OutOfDomain(f"{quantity} {float(x[outside][0])} {unit} outside {owner} window "
                          f"[{lo}, {hi}] {unit} (the first of {np.count_nonzero(outside)} of "
                          f"{x.size} values outside it)")


def _fsr_hz(ng, ring_length_m: float):
    """Free spectral range c/(n_g L) in ordinary Hz at group index ng."""
    if ring_length_m <= 0.0:
        raise DomainError(f"ring length must be positive, got {ring_length_m}")
    return C_M_PER_S / (ng * ring_length_m)


@dataclass(frozen=True)
class DispersionModel:
    """Per-width polynomial n_eff model with linear thermo-optic shift.

    n_eff(lambda, T, w) = P_w(u) + dn_dT_per_K * (T - t_ref_K),
    u = (lambda_nm - lambda_ref_nm) / 1000.

    coeffs_by_width maps width (nm) to ascending polynomial coefficients;
    the model keeps a read-only mapping of read-only copies.
    dn_dT_per_K is one thermo-optic coefficient (1/K) shared by every
    width and wavelength, so n_eff is linear in T and dn_eff/dlambda does
    not depend on T.  fit_residuals_by_width records the max abs fit
    residual per width when the model came from a table fit (0.0 for
    inline models).  Models compare and hash by content_hash(), and so do
    the Devices holding them; fit_residuals_by_width is left out.
    """

    coeffs_by_width: dict
    dn_dT_per_K: float
    lambda_ref_nm: float
    t_ref_K: float
    lambda_window_nm: tuple
    temperature_window_K: tuple
    fit_residuals_by_width: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.lambda_window_nm
        if not lo < hi:
            raise DomainError(f"empty wavelength window {self.lambda_window_nm}")
        tlo, thi = self.temperature_window_K
        if not tlo <= thi:
            raise DomainError(f"empty temperature window {self.temperature_window_K}")
        if not self.coeffs_by_width:
            raise DomainError("model has no width entries")
        coeffs = {float(w): np.array(c, dtype=float) for w, c in self.coeffs_by_width.items()}
        for c in coeffs.values():
            c.flags.writeable = False
        object.__setattr__(self, "coeffs_by_width", MappingProxyType(coeffs))
        object.__setattr__(self, "_horner", {
            w: (tuple(c.tolist()), tuple(_polyder(c).tolist())) for w, c in coeffs.items()})
        self._validate_physical()
        object.__setattr__(self, "_content_hash", self._digest())

    def __reduce__(self):
        # A mapping proxy cannot be pickled: rebuild from every field, with
        # the widths as a plain dict (and so re-check and re-hash), which
        # also serves copy.deepcopy.
        args = {f.name: getattr(self, f.name) for f in fields(self)}
        args["coeffs_by_width"] = dict(self.coeffs_by_width)
        return (DispersionModel, tuple(args.values()))

    # -- bookkeeping --------------------------------------------------------

    @property
    def widths_nm(self) -> tuple:
        return tuple(sorted(self.coeffs_by_width))

    def content_hash(self) -> str:
        """sha256 over the model's numerical content (for run metadata).

        Computed once at construction; the fields are frozen, the
        coefficient mapping read-only and its arrays read-only copies.
        """
        return self._content_hash

    def _digest(self) -> str:
        h = hashlib.sha256()
        for w in self.widths_nm:
            h.update(repr(w).encode())
            h.update(self.coeffs_by_width[w].tobytes())
        # The 0.0 fills the slot of a dn/dT slope the model no longer has, so
        # hashes recorded in sidecars and goldens stay valid.
        for v in (self.dn_dT_per_K, 0.0,
                  self.lambda_ref_nm, self.t_ref_K,
                  *self.lambda_window_nm, *self.temperature_window_K):
            h.update(repr(float(v)).encode())
        return h.hexdigest()

    def __eq__(self, other):
        if not isinstance(other, DispersionModel):
            return NotImplemented
        return self.content_hash() == other.content_hash()

    def __hash__(self):
        return hash(self.content_hash())

    def _coeffs(self, width_nm: float) -> tuple:
        """(P_w, dP_w/du) of a width, each a tuple of Python floats for _polyval."""
        c = self._horner.get(float(width_nm))
        if c is not None:
            return c
        raise UnknownWidth(
            f"no dispersion model for width {width_nm} nm "
            f"(available: {sorted(self.coeffs_by_width)}); widths are discrete, "
            "no interpolation is performed"
        )

    def _check_domain(self, lambda_nm, t_K):
        _check_window("wavelength", lambda_nm, "nm", "validity", self.lambda_window_nm)
        _check_window("temperature", t_K, "K", "validity", self.temperature_window_K)

    def _validate_physical(self):
        lo, hi = self.lambda_window_nm
        tlo, thi = self.temperature_window_K
        lam = np.linspace(lo, hi, 257)
        for w in self.coeffs_by_width:
            for t in (tlo, 0.5 * (tlo + thi), thi):
                n = self.n_eff(lam, t, w)
                if np.any(n <= N_EFF_MIN) or np.any(n >= N_EFF_MAX):
                    raise DomainError(
                        f"n_eff leaves ({N_EFF_MIN}, {N_EFF_MAX}) for width {w} nm "
                        f"at T={t} K; model is unphysical over its window"
                    )
                ng = self.group_index(lam, t, w)
                if np.any(ng <= 0.0):
                    raise DomainError(
                        f"group index non-positive for width {w} nm at T={t} K"
                    )

    # -- evaluation ---------------------------------------------------------

    def n_eff(self, lambda_nm, t_K, width_nm: float):
        """Effective index at vacuum wavelength (nm), temperature (K), width (nm)."""
        self._check_domain(lambda_nm, t_K)
        return self._n_eff_unchecked(lambda_nm, t_K, width_nm)

    def _n_eff_unchecked(self, lambda_nm, t_K, width_nm: float):
        # Internal: resonance root-solvers may probe a whisker outside the
        # window mid-iteration; final results are always domain-masked.
        return self._n_eff_shifted(lambda_nm, self._thermal_shift(t_K), width_nm)

    def _thermal_shift(self, t_K):
        """The thermal term dn/dT (T - T_ref) of n_eff."""
        return self.dn_dT_per_K * (np.asarray(t_K, dtype=float) - self.t_ref_K)

    def _n_eff_shifted(self, lambda_nm, shift, width_nm: float):
        """n_eff = P_w(u) + shift, given its thermal term shift = _thermal_shift(T).

        A root solve at fixed T computes shift once for all its evaluations.
        """
        c, _ = self._coeffs(width_nm)
        u = (np.asarray(lambda_nm, dtype=float) - self.lambda_ref_nm) / U_SCALE_NM
        return _polyval(c, u) + shift

    def _dn_dlambda_unchecked(self, lambda_nm, t_K, width_nm: float):
        _, dc = self._coeffs(width_nm)
        u = (np.asarray(lambda_nm, dtype=float) - self.lambda_ref_nm) / U_SCALE_NM
        return _polyval(dc, u) / U_SCALE_NM

    def group_index(self, lambda_nm, t_K, width_nm: float):
        """n_g = n_eff - lambda * dn_eff/dlambda (analytic derivative)."""
        self._check_domain(lambda_nm, t_K)
        lam = np.asarray(lambda_nm, dtype=float)
        n = self._n_eff_unchecked(lam, t_K, width_nm)
        return n - lam * self._dn_dlambda_unchecked(lam, t_K, width_nm)

    def propagation_constant(self, lambda_nm, t_K, width_nm: float):
        """beta = 2 pi n_eff / lambda (rad/m)."""
        n = self.n_eff(lambda_nm, t_K, width_nm)
        return TWO_PI * n / (np.asarray(lambda_nm, dtype=float) * 1e-9)

    def fsr_hz(self, lambda_nm, t_K, width_nm: float, ring_length_m: float):
        """Free spectral range c/(n_g L) in ordinary Hz."""
        return _fsr_hz(self.group_index(lambda_nm, t_K, width_nm), ring_length_m)

    def group_velocity(self, lambda_nm, t_K, width_nm: float):
        """v_g = c / n_g (m/s)."""
        return C_M_PER_S / self.group_index(lambda_nm, t_K, width_nm)


# --------------------------------------------------------------------------
# Table ingestion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionTable:
    """Raw (wavelength, width, temperature, n_eff) samples, sorted and unique."""

    wavelength_nm: np.ndarray
    width_nm: np.ndarray
    temperature_K: np.ndarray
    n_eff: np.ndarray

    def __len__(self):
        return len(self.wavelength_nm)


def parse_dispersion_table(text: str, source: str = "") -> DispersionTable:
    """Parse the delimited dispersion-table format.

    Header `wavelength_nm,width_nm,temperature_K,n_eff`, `#` comments,
    UTF-8, decimal point.  Rows are sorted to (width, temperature,
    wavelength) order; duplicate keys raise ParseError.
    """
    rows = []
    reader = csv.reader(io.StringIO(text))
    header = None
    for lineno, raw in enumerate(reader, start=1):
        if not raw or (raw[0].lstrip().startswith("#")):
            continue
        if header is None:
            header = tuple(h.strip() for h in raw)
            if header != TABLE_HEADER:
                raise ParseError(
                    f"{source}: bad header {header!r}, expected {TABLE_HEADER!r}"
                )
            continue
        if len(raw) != 4:
            raise ParseError(f"{source}: line {lineno}: expected 4 fields, got {len(raw)}")
        try:
            lam, w, t, n = (float(x) for x in raw)
        except ValueError as exc:
            raise ParseError(f"{source}: line {lineno}: {exc}") from None
        if not (N_EFF_MIN < n < N_EFF_MAX):
            raise ParseError(
                f"{source}: line {lineno}: n_eff={n} outside ({N_EFF_MIN}, {N_EFF_MAX})"
            )
        rows.append((w, t, lam, n))
    if header is None:
        raise ParseError(f"{source}: empty table (no header)")
    if not rows:
        raise ParseError(f"{source}: table has a header but no data rows")

    rows.sort()
    for a, b in zip(rows, rows[1:]):
        if a[:3] == b[:3]:
            raise ParseError(
                f"{source}: duplicate key (width={a[0]} nm, T={a[1]} K, "
                f"wavelength={a[2]} nm)"
            )
    arr = np.asarray(rows, dtype=float)
    return DispersionTable(
        wavelength_nm=arr[:, 2].copy(),
        width_nm=arr[:, 0].copy(),
        temperature_K=arr[:, 1].copy(),
        n_eff=arr[:, 3].copy(),
    )


def fit_dispersion_table(table: DispersionTable, order: int = 8) -> DispersionModel:
    """Least-squares fit of a DispersionModel to a table.

    Per width: ascending polynomial of the given order in the rescaled
    wavelength; one thermo-optic coefficient is shared across widths.
    Raises DomainError when the order is negative or a width has fewer
    than order+1 distinct wavelengths, and FitError when the max abs
    residual exceeds _MAX_FIT_RESIDUAL.
    """
    widths = sorted(set(table.width_nm.tolist()))
    lam_lo = float(table.wavelength_nm.min())
    lam_hi = float(table.wavelength_nm.max())
    t_lo = float(table.temperature_K.min())
    t_hi = float(table.temperature_K.max())
    lambda_ref = 0.5 * (lam_lo + lam_hi)
    t_ref = 0.5 * (t_lo + t_hi)

    if order < 0:
        raise DomainError(f"fit order must be non-negative, got {order}")
    for w in widths:
        sel = table.width_nm == w
        n_lam = len(set(table.wavelength_nm[sel].tolist()))
        if n_lam < order + 1:
            raise DomainError(
                f"width {w} nm has {n_lam} distinct wavelengths; "
                f"order-{order} fit needs at least {order + 1}"
            )

    # One joint linear system: per-width polynomial blocks + shared dn/dT column.
    n_rows = len(table)
    n_cols = len(widths) * (order + 1) + 1
    design = np.zeros((n_rows, n_cols))
    u = (table.wavelength_nm - lambda_ref) / U_SCALE_NM
    for j, w in enumerate(widths):
        sel = table.width_nm == w
        base = j * (order + 1)
        for k in range(order + 1):
            design[sel, base + k] = u[sel] ** k
    design[:, -1] = table.temperature_K - t_ref

    sol, *_ = np.linalg.lstsq(design, table.n_eff, rcond=None)
    residual = table.n_eff - design @ sol
    max_res = float(np.max(np.abs(residual)))
    if max_res > _MAX_FIT_RESIDUAL:
        raise FitError(
            f"fit residual {max_res:.3e} exceeds bound {_MAX_FIT_RESIDUAL:.3e} "
            f"(order {order}); supply a denser table or raise the order"
        )

    coeffs = {}
    residuals = {}
    for j, w in enumerate(widths):
        base = j * (order + 1)
        coeffs[w] = sol[base : base + order + 1].copy()
        sel = table.width_nm == w
        residuals[w] = float(np.max(np.abs(residual[sel])))

    # Single-temperature tables leave the thermo-optic column degenerate; lstsq
    # then returns the minimum-norm solution (~0), and the T window collapses.
    dn_dt = float(sol[-1])
    return DispersionModel(
        coeffs_by_width=coeffs,
        dn_dT_per_K=dn_dt,
        lambda_ref_nm=lambda_ref,
        t_ref_K=t_ref,
        lambda_window_nm=(lam_lo, lam_hi),
        temperature_window_K=(t_lo, t_hi),
        fit_residuals_by_width=residuals,
    )


def load_dispersion_table(path=None, order: int = 8) -> DispersionModel:
    """Read a dispersion table file and fit a DispersionModel to it.

    None reads the packaged table, data/default_dispersion.csv.
    """
    if path is None:
        ref = resources.files("qfcring.data").joinpath("default_dispersion.csv")
        text, source = ref.read_text(encoding="utf-8"), "qfcring/data/default_dispersion.csv"
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text, source = fh.read(), str(path)
    return fit_dispersion_table(parse_dispersion_table(text, source=source), order=order)


def default_model() -> DispersionModel:
    """The packaged default dispersion model (order-8 fit of the packaged table)."""
    return load_dispersion_table(None)
