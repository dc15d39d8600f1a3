"""Effective-index model and table-ingestion tests."""

import copy
import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from qfcring.constants import C_M_PER_S
from qfcring.dispersion import (
    default_model,
    fit_dispersion_table,
    parse_dispersion_table,
)
from qfcring.errors import DomainError, FitError, OutOfDomain, ParseError, UnknownWidth

from conftest import WIDTH, simple_model


@pytest.fixture(scope="module")
def model():
    return default_model()


def test_reference_point_identity(model):
    # value at the reference wavelength/temperature is the raw polynomial
    coeffs = model.coeffs_by_width[WIDTH]
    u = (1623.0 - model.lambda_ref_nm) / 1000.0
    direct = sum(c * u**k for k, c in enumerate(coeffs))
    assert model.n_eff(1623.0, model.t_ref_K, WIDTH) == pytest.approx(direct, abs=0.0)


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
