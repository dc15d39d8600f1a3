"""Effective-index model and table-ingestion tests."""

import copy
import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qfcring.constants import C_M_PER_S
from qfcring.dispersion import (
    _DOMAIN_EPS,
    U_SCALE_NM,
    _polyval,
    default_model,
    fit_dispersion_table,
    parse_dispersion_table,
)
from qfcring.elements import DirectionalCoupler
from qfcring.errors import DomainError, FitError, OutOfDomain, ParseError, UnknownWidth

from conftest import WIDTH, simple_model


@pytest.fixture(scope="module")
def model():
    return default_model()


def test_reference_point_identity(model):
    # value at the reference temperature is the raw polynomial, summed here by
    # Horner in _polyval's order: a power sum c_k u**k rounds differently, and
    # which of its bits match then depends on numpy's SIMD dispatch
    coeffs = model.coeffs_by_width[WIDTH]
    u = (1623.0 - model.lambda_ref_nm) / U_SCALE_NM
    horner = 0.0 * u + coeffs[-1]
    for c in coeffs[-2::-1]:
        horner = horner * u + c
    assert model.n_eff(1623.0, model.t_ref_K, WIDTH) == pytest.approx(horner, abs=0.0)


def test_thermo_optic_linearity(model):
    rng = np.random.default_rng(7)
    lams = rng.uniform(*model.lambda_window_nm, size=50)
    t1, t2 = 320.0, 397.5
    lhs = model.n_eff(lams, t1, WIDTH) - model.n_eff(lams, t2, WIDTH)
    # exact up to the float cancellation of the shared polynomial term
    assert np.allclose(lhs, model.dn_dT_per_K * (t1 - t2), rtol=0, atol=1e-12)


def test_shifted_temperature_is_reference_plus_slope(model):
    base = model.n_eff(1623.0, model.t_ref_K, WIDTH)
    shifted = model.n_eff(1623.0, model.t_ref_K + 10.0, WIDTH)
    assert shifted == pytest.approx(base + 10.0 * model.dn_dT_per_K, rel=1e-15)


def test_table_grid_points_within_fit_residual(model):
    from importlib import resources

    text = resources.files("qfcring.data").joinpath("default_dispersion.csv").read_text()
    table = parse_dispersion_table(text)
    for w in (1400.0, 1500.0, 1600.0):
        sel = table.width_nm == w
        fit = model.n_eff(table.wavelength_nm[sel], table.temperature_K[sel], w)
        assert np.max(np.abs(fit - table.n_eff[sel])) <= 1e-4


def test_group_index_constant_model():
    m = simple_model([2.0])
    assert m.group_index(1000.0, 350.0, WIDTH) == pytest.approx(2.0, abs=0.0)


def test_group_index_linear_model():
    # n = a + b*lambda  ->  n_g = a
    a, b_per_nm = 2.3, -1.0e-4
    m = simple_model([a + b_per_nm * 1200.0, b_per_nm * 1000.0])
    assert m.group_index(900.0, 350.0, WIDTH) == pytest.approx(a, rel=1e-14)
    assert m.group_index(1700.0, 350.0, WIDTH) == pytest.approx(a, rel=1e-14)


def test_group_index_matches_finite_difference(model):
    h = 0.01
    for lam in (1550.0,):
        n_plus = model.n_eff(lam + h, 350.0, WIDTH)
        n_minus = model.n_eff(lam - h, 350.0, WIDTH)
        fd = model.n_eff(lam, 350.0, WIDTH) - lam * (n_plus - n_minus) / (2 * h)
        assert model.group_index(lam, 350.0, WIDTH) == pytest.approx(fd, rel=1e-6)


def test_group_index_finite_difference_100_random_points(model):
    rng = np.random.default_rng(11)
    lo, hi = model.lambda_window_nm
    lams = rng.uniform(lo + 1.0, hi - 1.0, size=100)
    ts = rng.uniform(*model.temperature_window_K, size=100)
    h = 0.01
    for w in model.widths_nm:
        n_p = model.n_eff(lams + h, ts, w)
        n_m = model.n_eff(lams - h, ts, w)
        fd = model.n_eff(lams, ts, w) - lams * (n_p - n_m) / (2 * h)
        assert np.allclose(model.group_index(lams, ts, w), fd, rtol=1e-6)


def test_propagation_constant_direct_formula():
    m = simple_model([2.0])
    beta = m.propagation_constant(1000.0, 350.0, WIDTH)
    assert beta == pytest.approx(4.0e6 * math.pi, rel=1e-15)


def test_propagation_constant_monotone_for_weak_dispersion(model):
    lams = np.linspace(*model.lambda_window_nm, 400)
    beta = model.propagation_constant(lams, 350.0, WIDTH)
    assert np.all(np.diff(beta) < 0.0)


def test_beta_larger_at_signal_than_pump(model):
    assert model.propagation_constant(737.0, 350.0, WIDTH) > \
        model.propagation_constant(1623.0, 350.0, WIDTH)


def test_fsr_closed_form():
    m = simple_model([2.0])
    fsr = m.fsr_hz(1000.0, 350.0, WIDTH, 1e-3)
    assert fsr == pytest.approx(C_M_PER_S / 2e-3, rel=1e-15)
    assert fsr == pytest.approx(149.896229e9, rel=1e-8)


def test_fsr_inverse_length_scaling(model):
    one = model.fsr_hz(1623.0, 350.0, WIDTH, 500e-6)
    two = model.fsr_hz(1623.0, 350.0, WIDTH, 1000e-6)
    assert one == pytest.approx(2.0 * two, rel=1e-15)


def test_fsr_default_geometry_sanity_band(model, cfg):
    import json
    from pathlib import Path

    length_m = cfg["device"]["ring_length_um"] * 1e-6
    pinned = json.loads(
        (Path(__file__).parent / "golden" / "regression.json").read_text())
    fsr = model.fsr_hz(1623.0, 350.0, WIDTH, length_m)
    assert 50e9 < fsr < 500e9
    lam_p = pinned["widths"]["1500"]["pump_wavelength_nm"]
    t_op = pinned["widths"]["1500"]["t_ring_K"]
    got = model.fsr_hz(lam_p, t_op, WIDTH, length_m) / 1e9
    assert got == pytest.approx(pinned["fsr_pump_GHz"], rel=1e-9)


def test_fsr_positive_and_continuous(model):
    lams = np.linspace(*model.lambda_window_nm, 1000)
    fsr = model.fsr_hz(lams, 360.0, WIDTH, 628e-6)
    assert np.all(fsr > 0)
    assert np.max(np.abs(np.diff(fsr))) < 0.01 * np.max(fsr)


def test_out_of_domain_raises(model):
    lo, hi = model.lambda_window_nm
    with pytest.raises(OutOfDomain):
        model.n_eff(hi + 5.0, 350.0, WIDTH)
    with pytest.raises(OutOfDomain):
        model.n_eff(1550.0, model.temperature_window_K[1] + 5.0, WIDTH)
    with pytest.raises(UnknownWidth):
        model.n_eff(1550.0, 350.0, 1450.0)


# --- table ingestion -------------------------------------------------------

def _table_text(rows):
    head = "wavelength_nm,width_nm,temperature_K,n_eff\n"
    return head + "".join(f"{r[0]},{r[1]},{r[2]},{r[3]}\n" for r in rows)


def _cubic_rows(coeffs, lams, temps, dndt=2.0e-5, lam_ref=1000.0, t_ref=320.0):
    rows = []
    for t in temps:
        for lam in lams:
            u = (lam - lam_ref) / 1000.0
            n = sum(c * u**k for k, c in enumerate(coeffs)) + dndt * (t - t_ref)
            rows.append((lam, 1500.0, t, repr(float(n))))
    return rows


def test_cubic_recovery_to_1e9():
    coeffs = [2.05, -0.08, 0.015, -0.003]
    lams = np.linspace(800.0, 1200.0, 9)
    rows = _cubic_rows(coeffs, lams, (300.0, 340.0))
    model = fit_dispersion_table(parse_dispersion_table(_table_text(rows)), order=3)
    # rebase the known cubic onto the fitted reference wavelength
    shift = (model.lambda_ref_nm - 1000.0) / 1000.0
    rebased = np.polynomial.polynomial.Polynomial(coeffs)(
        np.polynomial.polynomial.Polynomial([shift, 1.0]))
    got = model.coeffs_by_width[1500.0]
    assert np.allclose(got, rebased.coef, rtol=1e-9, atol=1e-12)
    assert model.dn_dT_per_K == pytest.approx(2.0e-5, rel=1e-9)


def test_duplicate_key_rejected():
    rows = _cubic_rows([2.0, -0.05, 0.0, 0.0], np.linspace(800, 1200, 6), (300.0,))
    rows.append(rows[0])
    with pytest.raises(ParseError, match="duplicate"):
        parse_dispersion_table(_table_text(rows))


def test_malformed_row_rejected():
    text = "wavelength_nm,width_nm,temperature_K,n_eff\n800,1500,300\n"
    with pytest.raises(ParseError, match="4 fields"):
        parse_dispersion_table(text)
    text = "wavelength_nm,width_nm,temperature_K,n_eff\n800,1500,300,abc\n"
    with pytest.raises(ParseError):
        parse_dispersion_table(text)


def test_unphysical_index_rejected():
    text = "wavelength_nm,width_nm,temperature_K,n_eff\n800,1500,300,3.4\n"
    with pytest.raises(ParseError, match="n_eff"):
        parse_dispersion_table(text)


def test_too_few_wavelength_samples():
    rows = _cubic_rows([2.0, -0.05, 0.0, 0.0], np.linspace(800, 1200, 6), (300.0,))
    with pytest.raises(DomainError, match="order-8"):
        fit_dispersion_table(parse_dispersion_table(_table_text(rows)), order=8)


def test_fit_residual_bound_enforced():
    # steps in n_eff cannot be fit by a smooth polynomial
    lams = np.linspace(800.0, 1200.0, 12)
    rows = []
    for j, lam in enumerate(lams):
        rows.append((lam, 1500.0, 300.0, 2.0 + 0.05 * (j % 2)))
    with pytest.raises(FitError, match="residual"):
        fit_dispersion_table(parse_dispersion_table(_table_text(rows)), order=2)


def test_sellmeier_oracle_table_residual():
    # independent smooth oracle: LN-like Sellmeier minus a fixed offset
    def n_oracle(lam_nm):
        l2 = (lam_nm / 1000.0) ** 2
        return math.sqrt(1 + 2.9804 * l2 / (l2 - 0.02047) + 0.5981 * l2 /
                         (l2 - 0.0666) + 8.9543 * l2 / (l2 - 416.08)) - 0.25

    lams = np.linspace(700.0, 1650.0, 60)
    rows = [(lam, 1500.0, t, repr(n_oracle(lam) + 3.9e-5 * (t - 300.0)))
            for t in (300.0, 400.0) for lam in lams]
    model = fit_dispersion_table(parse_dispersion_table(_table_text(rows)), order=8)
    assert max(model.fit_residuals_by_width.values()) <= 1e-4


def test_refit_idempotence(model):
    lams = np.linspace(*model.lambda_window_nm, 40)
    temps = (300.0, 350.0, 400.0)
    rows = []
    for w in model.widths_nm:
        for t in temps:
            for lam in lams:
                rows.append((lam, w, t, repr(float(model.n_eff(lam, t, w)))))
    refit = fit_dispersion_table(parse_dispersion_table(_table_text(rows)), order=8)
    for w in model.widths_nm:
        a, b = model.coeffs_by_width[w], refit.coeffs_by_width[w]
        # relative to the coefficient scale (small high-order terms carry
        # the least-squares conditioning noise)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9 * np.abs(a).max())
    assert refit.dn_dT_per_K == pytest.approx(model.dn_dT_per_K, rel=1e-9)


def test_two_fits_of_one_table_are_equal_and_hash_alike(model):
    again = default_model()
    assert again is not model
    assert again == model and hash(again) == hash(model)
    # the fit residuals record how the fit went; they are not model content
    assert dataclasses.replace(again, fit_residuals_by_width={}) == model
    assert model.__eq__(model.content_hash()) is NotImplemented


def test_model_coefficients_are_read_only_copies(model):
    with pytest.raises(ValueError):
        model.coeffs_by_width[WIDTH][0] = 0.0
    given = model.coeffs_by_width[WIDTH].copy()
    narrowed = dataclasses.replace(model, coeffs_by_width={WIDTH: given})
    given[0] += 1.0  # the caller's array stays the caller's and writable
    assert narrowed.coeffs_by_width[WIDTH][0] == model.coeffs_by_width[WIDTH][0]


def test_width_mapping_is_read_only_and_copies_keep_the_hash(model):
    # The hash is computed once, so an entry replaced in place would go unhashed.
    with pytest.raises(TypeError):
        model.coeffs_by_width[1500.0] = model.coeffs_by_width[WIDTH]
    with pytest.raises(TypeError):
        del model.coeffs_by_width[WIDTH]
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert twin is not model and twin == model
        assert twin.content_hash() == model.content_hash() == twin._digest()
        assert all(twin._coeffs(w) == model._coeffs(w) for w in model.widths_nm)
        for f in dataclasses.fields(model):  # every field travels, not just the hashed ones
            if f.name != "coeffs_by_width":
                assert getattr(twin, f.name) == getattr(model, f.name), f.name
        with pytest.raises(TypeError):
            twin.coeffs_by_width[WIDTH] = np.zeros(3)


def test_content_hash_is_the_digest_of_the_fields(model):
    h = hashlib.sha256()
    for w in sorted(model.coeffs_by_width):
        h.update(repr(w).encode())
        h.update(model.coeffs_by_width[w].tobytes())
    for v in (model.dn_dT_per_K, 0.0, model.lambda_ref_nm, model.t_ref_K,
              *model.lambda_window_nm, *model.temperature_window_K):
        h.update(repr(float(v)).encode())
    assert model.content_hash() == h.hexdigest()


def _one_coefficient_moved(m):
    coeffs = {w: c.copy() for w, c in m.coeffs_by_width.items()}
    coeffs[WIDTH][0] += 1e-12
    return {"coeffs_by_width": coeffs}


CONTENT_CHANGES = {
    "coefficient": _one_coefficient_moved,
    "dn_dT_per_K": lambda m: {"dn_dT_per_K": m.dn_dT_per_K * (1.0 + 1e-12)},
    "lambda_ref_nm": lambda m: {"lambda_ref_nm": m.lambda_ref_nm + 1e-9},
    "t_ref_K": lambda m: {"t_ref_K": m.t_ref_K + 1e-9},
    "lambda_window_nm": lambda m: {"lambda_window_nm": (m.lambda_window_nm[0] + 1.0,
                                                        m.lambda_window_nm[1])},
    "temperature_window_K": lambda m: {"temperature_window_K": (
        m.temperature_window_K[0], m.temperature_window_K[1] - 1.0)},
}


@pytest.mark.parametrize("change", CONTENT_CHANGES.values(), ids=CONTENT_CHANGES.keys())
def test_changed_content_makes_models_unequal(model, change):
    changed, refit = dataclasses.replace(model, **change(model)), default_model()
    assert changed != refit and refit != changed
    assert hash(changed) != hash(refit)


def test_model_construction_validates_physics():
    with pytest.raises(DomainError):
        simple_model([3.5])            # n_eff outside (1, 3)
    with pytest.raises(DomainError):
        simple_model([2.0, 4.0])       # n_g < 0 at long wavelengths


# --- evaluation kernels against their array forms -----------------------------
#
# _polyval runs Horner on tuples of Python floats from a first step 0.0 * u + c_n,
# and the domain checks take one fused comparison per window.  The references
# below are the forms they replace: a zeros start over a float array, and two
# np.any calls per window.  Every result must keep its bits.

def _polyval_from_zeros(coeffs, u):
    out = np.zeros_like(np.asarray(u, dtype=float))
    for c in np.asarray(coeffs, dtype=float)[::-1]:
        out = out * u + c
    return out


def _same_bits(a, b):
    """Same shape and values, NaN at the same places, and the same sign on zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b)))


_ANY_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                       st.floats(allow_nan=True, allow_infinity=True))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(coeffs=st.lists(_ANY_FLOAT, max_size=10),
       u=st.one_of(_ANY_FLOAT, hnp.arrays(np.float64, _SHAPES, elements=_ANY_FLOAT)))
def test_polyval_keeps_the_bits_of_the_zeros_start(coeffs, u):
    with np.errstate(all="ignore"):
        got = _polyval(tuple(coeffs), u)
        ref = _polyval_from_zeros(coeffs, u)
    assert _same_bits(got, ref)


def _reference_evaluations(model, lam, t, w):
    """(n_eff, dn_eff/dlambda, n_g) from the model's coefficient arrays."""
    c = model.coeffs_by_width[w]
    lam = np.asarray(lam, dtype=float)
    u = (lam - model.lambda_ref_nm) / U_SCALE_NM
    n = _polyval_from_zeros(c, u) + model.dn_dT_per_K * (np.asarray(t, dtype=float) - model.t_ref_K)
    dn = _polyval_from_zeros(c[1:] * np.arange(1, len(c)), u) / U_SCALE_NM
    return n, dn, n - lam * dn


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data(), w=st.sampled_from([1400.0, 1500.0, 1600.0]),
       shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
def test_model_evaluations_keep_the_bits_of_the_array_coefficients(model, data, w, shape):
    lam = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(*model.lambda_window_nm)))
    t = data.draw(st.floats(*model.temperature_window_K))
    n, dn, ng = _reference_evaluations(model, lam, t, w)
    assert _same_bits(model.n_eff(lam, t, w), n)
    assert _same_bits(model._dn_dlambda_unchecked(lam, t, w), dn)
    assert _same_bits(model.group_index(lam, t, w), ng)
    if shape == ():
        assert _same_bits(model.group_index(float(lam), t, w), ng)


def test_coupler_with_no_length_coefficients_still_raises():
    dc = DirectionalCoupler(length_um=10.0, lc_coeffs_um=(), lambda_ref_nm=1200.0,
                            lambda_window_nm=(600.0, 1800.0))
    with pytest.raises(DomainError, match="coupling-length model non-positive"):
        dc.coupling_length_um(1000.0)
    with pytest.raises(DomainError, match="coupling-length model non-positive"):
        dc.cross_coupling(np.array([700.0, 1500.0]))


def _model_check_two_any(model, lambda_nm, t_K):
    lo, hi = model.lambda_window_nm
    lam = np.asarray(lambda_nm, dtype=float)
    pad = _DOMAIN_EPS * (hi - lo)
    if np.any(lam < lo - pad) or np.any(lam > hi + pad):
        raise OutOfDomain(f"wavelength {lambda_nm} nm outside validity window [{lo}, {hi}] nm")
    tlo, thi = model.temperature_window_K
    t = np.asarray(t_K, dtype=float)
    tpad = _DOMAIN_EPS * max(thi - tlo, 1.0)
    if np.any(t < tlo - tpad) or np.any(t > thi + tpad):
        raise OutOfDomain(f"temperature {t_K} K outside validity window [{tlo}, {thi}] K")


def _coupler_check_two_any(dc, lambda_nm):
    lo, hi = dc.lambda_window_nm
    lam = np.asarray(lambda_nm, dtype=float)
    if np.any(lam < lo) or np.any(lam > hi):
        raise OutOfDomain(f"wavelength {lambda_nm} nm outside coupler window [{lo}, {hi}] nm")


def _outcome(check, *args):
    try:
        check(*args)
    except OutOfDomain as exc:
        return str(exc)
    return None


def _near(lo, hi):
    """Floats about a window: inside, at and a pad beyond each edge, outside, NaN."""
    pad = 2 * _DOMAIN_EPS * (hi - lo)
    return st.one_of(st.floats(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)),
                     st.sampled_from([lo, hi, lo - pad, hi + pad, math.nan]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data(), lam_shape=_SHAPES, t_shape=_SHAPES)
def test_fused_domain_checks_raise_as_the_two_any_checks(model, data, lam_shape, t_shape):
    lam = data.draw(hnp.arrays(np.float64, lam_shape, elements=_near(*model.lambda_window_nm)))
    t = data.draw(hnp.arrays(np.float64, t_shape, elements=_near(*model.temperature_window_K)))
    assert _outcome(model._check_domain, lam, t) == _outcome(_model_check_two_any, model, lam, t)
    dc = DirectionalCoupler(length_um=10.0, lc_coeffs_um=(25.0,),
                            lambda_ref_nm=model.lambda_ref_nm,
                            lambda_window_nm=model.lambda_window_nm)
    assert _outcome(dc._check, lam) == _outcome(_coupler_check_two_any, dc, lam)


def test_nan_wavelength_passes_the_domain_checks(model):
    # A NaN compares false with both edges, so it passes, as it always has;
    # raising here instead would move exit codes.
    dc = DirectionalCoupler(length_um=10.0, lc_coeffs_um=(25.0,), lambda_ref_nm=1200.0,
                            lambda_window_nm=(600.0, 1800.0))
    for lam in (math.nan, np.array(math.nan), np.array([700.0, math.nan])):
        assert model._check_domain(lam, 350.0) is None
        assert dc._check(lam) is None
    for t in (math.nan, np.array([350.0, math.nan])):
        assert model._check_domain(700.0, t) is None
    assert np.isnan(model.n_eff(math.nan, 350.0, WIDTH))
