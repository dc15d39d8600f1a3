"""The CLI's exit-code contract: every failure exits 2, 3 or 4 with a JSON record.

The error class holds its exit code through its family (input 2, infeasible
3, numerical 4).  The CLI runs in-process here; `test_config_cli` covers the
subprocess path.
"""

import contextlib
import functools
import io
import json
import re
import tempfile
import warnings
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qfcring import cli, errors, matching
from qfcring.builders import build_twm_system, operating_point
from qfcring.config import SCHEMA, apply_overrides, default_config, default_config_text
from qfcring.constants import MAX_GRID_CELLS
from qfcring.conversion import external_efficiency, steady_state_conversion
from qfcring.elements import solve_resonance_wavelength
from qfcring.experiments import EXPERIMENTS, _power_grid_W

from conftest import assert_outputs_agree, multi_key_draws

FAMILIES = {errors.InputError: 2, errors.Infeasible: 3, errors.NumericalError: 4}


def run_main(args):
    """(exit code, stdout, stderr) of an in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def error_record(code, stderr):
    record = json.loads(stderr)
    assert record["exit_code"] == code
    assert issubclass(getattr(errors, record["error"]), errors.QfcError)
    return record


def test_every_error_class_declares_a_cli_exit_code():
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.QfcError)
               and obj is not errors.QfcError]
    leaves = [c for c in classes if c not in FAMILIES]
    assert len(leaves) == 17
    for cls in classes:
        assert cls.exit_code in {2, 3, 4}, cls.__name__
    for cls in leaves:
        families = [f for f in FAMILIES if issubclass(cls, f)]
        assert len(families) == 1, cls.__name__
        assert cls.exit_code == FAMILIES[families[0]]
    assert errors.StaleResult.exit_code == 4


def test_failed_verification_exits_4(monkeypatch, tmp_path):
    # Roots 1e-4 nm long still give a match; verify_match's resonance
    # residuals notice, as in test_verify_match_catches_shifted_solver.
    def shifted(*args):
        return solve_resonance_wavelength(*args) + 1e-4

    monkeypatch.setattr(matching, "solve_resonance_wavelength", shifted)
    code, _, err = run_main(["match", "--out-dir", str(tmp_path / "out")])
    assert code == 4
    record = error_record(code, err)
    assert record["error"] == "StaleResult"
    assert "closed form" in record["message"]


def test_cli_records_the_package_warnings_and_leaves_the_rest_to_the_filters(monkeypatch,
                                                                            tmp_path):
    # A UserWarning (the package's category) is listed once per location even
    # where the interpreter makes it an error; a RuntimeWarning set to error
    # raises through cli.main instead of exiting 0 with the warning listed.
    def runner(name, cfg, out_dir, divide):
        for _ in range(2):
            warnings.warn("planted")
        return [str(np.float64(1.0) / 0.0)] if divide else []

    args = ["match", "--out-dir", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(cli, "run_experiment", functools.partial(runner, divide=False))
        code, out, _ = run_main(args)
        assert code == 0 and json.loads(out)["warnings"] == ["planted"]
        monkeypatch.setattr(cli, "run_experiment", functools.partial(runner, divide=True))
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            run_main(args)


@pytest.mark.parametrize("experiment, override, error, code", [
    # _m_range: n_eff L / lambda overflows before its finite-m refusal
    ("match", "device.ring_length_um=1e305", "DomainError", 2),
    # the trade-off's rates: the photon flux P/(hbar w) overflows before snr_report
    ("tradeoff", "experiment.power_max_mW=1e300", "DomainError", 2),
    ("tradeoff", "experiment.power_min_mW=1e300", "DomainError", 2),
    # _m_range starts at m = 1, so the solver seed never divides by m = 0
    ("match", "device.ring_length_um=1.0e-30", "NoFeasibleMatch", 3),
    # the sweep's step count span / step overflows
    ("match", "constraints.t_step_mK=1e-305", "DomainError", 2),
    # a photon flux, a noise rate or a decay rate that overflows where it is computed
    ("convert", "experiment.power_max_mW=1e300", "DomainError", 2),
    # a finite flux whose cooperativity or |bracket|^2 overflows in the closed form
    ("convert", "experiment.power_max_mW=1e200", "DomainError", 2),
    ("noise", "experiment.power_max_mW=1e300", "DomainError", 2),
    ("calibrate", "calibration_targets.fwm_rate_power_mW=1e300", "DomainError", 2),
    ("match", "device.propagation_loss_dB_per_m=1e305", "DomainError", 2),
    # the arm phase at the sweep's largest drive, and the couplers' pi L_dc / (2 L_c)
    ("couplings", "experiment.mzi_sweep_max_K=1.7e308", "DomainError", 2),
    ("couplings", "device.dc_length_um=1.7e308", "DomainError", 2),
    ("spectrum", "device.dc_length_um=1.7e308", "DomainError", 2),
    # a span that reaches zero frequency, before its grid is built
    ("spectrum", "experiment.spectrum_span_GHz=1e300", "OutOfDomain", 2),
    # the near miss ranks pairs by |mismatch|, not |mismatch| / tol
    ("match", "constraints.max_mismatch_MHz=1e-305", "NoFeasibleMatch", 3),
    # a signal tolerance of inf Hz, or one at or above the target frequency, is refused
    # when the constraints are built
    ("match", "constraints.max_signal_detuning_MHz=1e305", "ConfigError", 2),
    ("match", "constraints.max_signal_detuning_MHz=1e9", "ConfigError", 2),
    # the sweep's coverage check reads an FSR of inf in Python floats
    ("match", "device.ring_length_um=1e-300", "NoFeasibleMatch", 3),
], ids=["m-range-overflow", "tradeoff-power-max", "tradeoff-power-min", "m-zero-seed",
        "sweep-step-count", "convert-power-max", "convert-closed-form", "noise-power-max", "calibrate-fwm-power",
        "loss-rate", "couplings-sweep-drive", "couplings-dc-length", "spectrum-dc-length",
        "spectrum-span", "mismatch-score", "signal-tolerance-grid",
        "signal-tolerance-beyond-target", "short-ring-fsr"])
def test_refusals_raise_no_runtime_warning_on_the_way(tmp_path, experiment, override, error,
                                                      code):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, out, err = run_main([experiment, "--override", override,
                                  "--out-dir", str(tmp_path / "out")])
    assert (got, out) == (code, "")
    assert error_record(code, err)["error"] == error
    for path in (tmp_path / "out").glob("*"):  # what a runner wrote before it refused
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", path.read_text()), path.name


@pytest.mark.parametrize("experiment, override, error, code, message", [
    ("tradeoff", "experiment.widths_nm=[]", "ConfigError", 2,
     "config key 'experiment.widths_nm' must list at least one width"),
    ("tradeoff", "experiment.widths_nm=[1500, 1500.0]", "ConfigError", 2,
     "config key 'experiment.widths_nm' lists width 1500 nm more than once"),
    ("match", f"device.poling_period_um_by_width={{{10**400}: 2.0}}", "ConfigError", 2,
     "'device.poling_period_um_by_width' keys must be widths in nm, got 1000"),
    ("match", "dispersion.table_file={tmp}/nope.csv", "ConfigError", 2,
     "cannot read dispersion table {tmp}/nope.csv: "),
    ("convert", "experiment.power_max_mW=0", "ConfigError", 2,
     "power_max_mW must be positive for log spacing"),
    # power-grid rules hold at load time, also for experiments without a power grid
    ("match", "experiment.power_spacing=LOG", "ConfigError", 2,
     "power_spacing must be 'log' or 'linear', got 'LOG'"),
    # a boolean is "not a number" only where a number is expected
    ("match", "dispersion.table_file=true", "ConfigError", 2,
     "config key 'dispersion.table_file' has wrong type bool"),
    ("match", "experiment.power_spacing=true", "ConfigError", 2,
     "config key 'experiment.power_spacing' has wrong type bool"),
    ("match", "device.ring_length_um=true", "ConfigError", 2,
     "config key 'device.ring_length_um' must be a number, got boolean"),
    # the coupling length is a quadratic: exactly three coefficients
    ("spectrum", "calibration.by_width.1500.lc_quad_um=[134.9]", "ConfigError", 2,
     "config key 'calibration.by_width[1500].lc_quad_um' must list 3 numbers, got 1"),
    ("convert", "calibration.by_width.1500.lc_quad_um=[134.9, -76.3, -70.7, 0.0, 0.0]",
     "ConfigError", 2,
     "config key 'calibration.by_width[1500].lc_quad_um' must list 3 numbers, got 5"),
    ("match", "calibration.by_width.1500.lc_quad_um=[]", "ConfigError", 2,
     "config key 'calibration.by_width[1500].lc_quad_um' must list 3 numbers, got 0"),
    ("match", "experiment.power_min_mW=0", "ConfigError", 2,
     "power_min_mW must be positive for log spacing"),
    # a drive power below zero is rejected at load time, not by `convert` alone
    ("match", "experiment.pump_power_mW=-1", "ConfigError", 2,
     "config key 'experiment.pump_power_mW' must be >= 0, got -1"),
    ("match", "experiment.pump_power_mW=-1e-300", "ConfigError", 2,
     "config key 'experiment.pump_power_mW' must be >= 0, got -1e-300"),
    ("calibrate", "device.mzi_heater_length_um=0", "CalibrationInfeasible", 3,
     "anchor 'coupling ratios': base heater length is zero"),
    ("calibrate", "calibration_targets.fwm_rate_Hz=-1", "CalibrationInfeasible", 3,
     "anchor 'noise rate': target fwm_rate_Hz=-1.0 must be positive"),
    # anchors whose calibrated output `noise`, `convert` and `tradeoff` reject
    ("calibrate", "calibration_targets.fwm_rate_Hz=0", "CalibrationInfeasible", 3,
     "anchor 'noise rate': target fwm_rate_Hz=0.0 must be positive"),
    ("calibrate", "calibration_targets.g0_over_2pi_MHz=0", "CalibrationInfeasible", 3,
     "anchor 'g0': target g0_over_2pi_MHz=0.0 must be positive"),
    ("calibrate", "calibration_targets.fwm_rate_power_mW=0", "CalibrationInfeasible", 3,
     "anchor 'noise rate': target fwm_rate_power_mW=0.0 must be positive"),
    ("calibrate", "calibration_targets.fwm_rate_power_mW=-1", "CalibrationInfeasible", 3,
     "anchor 'noise rate': target fwm_rate_power_mW=-1.0 must be positive"),
    # the noise rate is quadratic in the power, so 1e-300 mW gives 0.0
    ("calibrate", "calibration_targets.fwm_rate_power_mW=1e-300", "CalibrationInfeasible", 3,
     "anchor 'noise rate': the rate underflows to zero at fwm_rate_power_mW=1e-300 "),
    # no intrinsic loss: every eta target in (0, 1) needs kappa_ex = 0
    ("calibrate", "device.propagation_loss_dB_per_m=0", "CalibrationInfeasible", 3,
     "anchor 'coupling ratios': device.propagation_loss_dB_per_m=0.0 leaves the pump "
     "mode lossless"),
    ("match", "device.ring_length_um=.nan", "ConfigError", 2,
     "config key 'device.ring_length_um' must be finite, got nan"),
    # the heater walk's nearest-first order assumes a finite base
    ("calibrate", "device.mzi_heater_length_um=.inf", "ConfigError", 2,
     "config key 'device.mzi_heater_length_um' must be finite, got inf"),
    ("match", "constraints.t_step_mK=1.0e-9", "DomainError", 2,
     "search grid of "),
    # span / step overflows: the grid is refused before its count becomes an int
    ("match", "constraints.t_step_mK=1e-305", "DomainError", 2,
     "search grid of 37 comb lines x Infinity temperatures "),
    ("match", "dispersion.fit_order=2", "FitError", 4,
     "fit residual "),
    ("match", "dispersion.fit_order=-1", "DomainError", 2,
     "fit order must be non-negative, got -1"),
    ("match", f"device.ring_length_um={10**400}", "ConfigError", 2,
     "config key 'device.ring_length_um' is beyond float range"),
    ("match", f"constraints.t_ring_max_K={10**400}", "ConfigError", 2,
     "config key 'constraints.t_ring_max_K' is beyond float range"),
    ("calibrate", f"calibration_targets.fwm_rate_Hz={10**400}", "ConfigError", 2,
     "config key 'calibration_targets.fwm_rate_Hz' is beyond float range"),
    ("tradeoff", f"physics.signal_input_rate_Hz={10**400}", "ConfigError", 2,
     "config key 'physics.signal_input_rate_Hz' is beyond float range"),
    ("convert", f"experiment.power_points={10**400}", "ConfigError", 2,
     "config key 'experiment.power_points' is beyond float range"),
    ("spectrum", f"experiment.spectrum_points={10**20}", "ConfigError", 2,
     f"config key 'experiment.spectrum_points' must be at most 16777216, got {10**20}"),
    ("convert", f"experiment.power_points={10**20}", "ConfigError", 2,
     f"config key 'experiment.power_points' must be at most 16777216, got {10**20}"),
    # more digits than Python turns into an int from text
    ("match", "device.ring_length_um=1" + "0" * 5000, "ConfigError", 2,
     "override 'device.ring_length_um=1000"),
    # the signal's x root rounds to 0, which would need an infinite coupling length
    ("calibrate", "calibration_targets.eta_signal=1e-30", "CalibrationInfeasible", 3,
     "anchor 'coupling ratios at the operating MZI drive': no heater length up to 1000.0 um"),
    # the arm phase is beyond float resolution or overflows on the whole heater grid
    ("calibrate", "device.mzi_delta_T_K=1.0e+305", "CalibrationInfeasible", 3,
     "anchor 'coupling ratios at the operating MZI drive': no heater length up to 1000.0 um"),
    # a coupled device refuses such an arm phase when it is built
    ("convert", "device.mzi_delta_T_K=1.0e+305", "DomainError", 2,
     "MZI arm phase of 5.6e+303 rad at the edges of the (650.0, 1700.0) nm window is "
     "beyond float resolution (|phase| >= 2**32 rad): device.mzi_delta_T_K=1e+305 K "
     "with a 148.5 um heater"),
    # ~1e300 comb lines: more than a Python range's len() can count
    ("match", "device.ring_length_um=1e300", "DomainError", 2,
     "search grid of "),
    ("tradeoff", "experiment.power_max_mW=1e300", "DomainError", 2,
     "photon flux of a 1e+297 W drive at "),
    ("tradeoff", "experiment.power_min_mW=1e300", "DomainError", 2,
     "photon flux of a 1e+297 W drive at "),
    # rates whose powers in the closed forms overflow Python floats
    ("convert", "physics.pump_detuning_MHz=-1e300", "DomainError", 2,
     "pump mode delta=-6.28319e+306 rad/s is beyond float range at power 2"),
    ("noise", "device.propagation_loss_dB_per_m=1e300", "DomainError", 2,
     "pump mode kappa_0=3.26766e+307 rad/s is beyond float range at power 2"),
    ("convert", "calibration.g0_full_over_2pi_MHz=1e300", "DomainError", 2,
     "conversion system g0=2.82743e+306 rad/s is beyond float range at power 2"),
    ("noise", "calibration.g_chi3_over_2pi_Hz=1e300", "DomainError", 2,
     "FWM channel g_chi3=6.28319e+300 rad/s is beyond float range at power 2"),
    # `calibrate` builds the conversion system its noise anchor perturbs, so it
    # refuses what `convert` and `noise` would refuse in its output
    ("calibrate", "physics.pump_detuning_MHz=1e300", "DomainError", 2,
     "pump mode delta=6.28319e+306 rad/s is beyond float range at power 2"),
    ("calibrate", "calibration_targets.g0_over_2pi_MHz=1e300", "DomainError", 2,
     "conversion system g0=6.28319e+306 rad/s is beyond float range at power 2"),
    # g0^2 underflows to 0 in the unity-cooperativity power
    ("noise", "calibration.g0_full_over_2pi_MHz=1e-300", "DegenerateCoupling", 2,
     "g0=2.82743e-294 rad/s is so small that the unity-cooperativity power"),
    # the mode numbers n_eff L / lambda overflow to inf
    ("match", "device.ring_length_um=1e305", "DomainError", 2,
     "mode numbers of a 1e+305 um ring in band "),
    # pi L_dc overflows, so the coupling-length anchors are inf and the quadratic NaN
    ("calibrate", "device.dc_length_um=1.7e308", "DomainError", 2,
     "coupling-length anchors [inf, inf, inf] um and quadratic [nan, nan, nan] are beyond "
     "float range: device.dc_length_um=1.7e+308"),
    ("match", "constraints.max_signal_detuning_MHz=1e9", "ConfigError", 2,
     "invalid constraints: signal tolerance 1e+15 Hz must be below the target frequency "
     "4.06774e+14 Hz"),
    # a refusal of many wavelengths names the first outside, not numpy's array text
    ("spectrum", "experiment.spectrum_span_GHz=1e5", "OutOfDomain", 2,
     "wavelength 1700.14879"),
], ids=["no-widths", "repeated-width", "width-key-beyond-float", "missing-table",
        "zero-power-max", "match-power-spacing-case", "bool-table-file",
        "bool-power-spacing", "bool-ring-length", "one-lc-coefficient", "five-lc-coefficients",
        "no-lc-coefficients",
        "match-zero-power-min", "match-negative-pump-power", "match-tiny-negative-pump-power",
        "zero-heater", "negative-fwm-rate", "zero-fwm-rate", "zero-g0",
        "zero-fwm-power", "negative-fwm-power", "underflowing-fwm-power", "zero-loss",
        "nan-ring-length", "inf-heater-length",
        "tiny-sweep-step", "sweep-step-count-beyond-float", "packaged-table-order-2", "negative-fit-order",
        "int-ring-length-beyond-float", "int-t-max-beyond-float",
        "int-fwm-rate-beyond-float", "int-input-rate-beyond-float",
        "int-power-points-beyond-float", "huge-spectrum-points", "huge-power-points",
        "int-beyond-str-limit", "vanishing-eta-signal", "huge-mzi-drive",
        "coupled-huge-mzi-drive", "huge-ring-length",
        "huge-power-max", "huge-power-min", "huge-pump-detuning", "huge-loss", "huge-g0",
        "huge-g-chi3", "calibrate-huge-pump-detuning", "calibrate-huge-g0-target",
        "vanishing-g0", "ring-length-beyond-mode-numbers", "calibrate-huge-dc-length",
        "signal-tolerance-beyond-target", "many-wavelengths-outside"])
def test_unusable_value_exits_with_its_family_code(tmp_path, experiment, override, error,
                                                  code, message):
    override, message = (s.replace("{tmp}", str(tmp_path)) for s in (override, message))
    got, out, err = run_main([experiment, "--override", override,
                              "--out-dir", str(tmp_path / "out")])
    assert (got, out) == (code, "")
    record = error_record(code, err)
    assert record["error"] == error
    assert record["message"].startswith(message)


@pytest.mark.parametrize("what", ["config", "table"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, what):
    # A 0xff byte is an unreadable file, not a UnicodeDecodeError traceback.
    if what == "config":
        path = tmp_path / "bad.yaml"
        path.write_bytes(default_config_text().encode().replace(
            b"ring_length_um: ", b"ring_length_um: \xff", 1))
        args, owner = ["--config", str(path)], "config"
    else:
        path = tmp_path / "bad.csv"
        table = resources.files("qfcring.data").joinpath("default_dispersion.csv")
        path.write_bytes(table.read_bytes() + b"\xff\n")
        args, owner = ["--override", f"dispersion.table_file={path}"], "dispersion table"
    code, out, err = run_main(["match", *args, "--out-dir", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    record = error_record(code, err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"cannot read {owner} {path}: 'utf-8' codec can't "
                                        "decode byte 0xff")


def test_pump_idler_pairs_alone_can_exceed_the_search_grid(tmp_path):
    # A 10 cm ring, 25 nm half-windows and a 1 K sweep: 9,782 lines x 147
    # temperatures is 1.4e6 cells, under MAX_GRID_CELLS = 2**24, while the
    # 4,010 x 5,764 pump-idler pairs are 2.3e7.
    code, out, err = run_main(["match", "--override", "device.ring_length_um=1e5",
                               "--override", "constraints.half_window_nm=25",
                               "--override", "constraints.t_ring_max_K=301",
                               "--out-dir", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    record = error_record(code, err)
    assert record["error"] == "DomainError"
    assert record["message"] == ("search grid of 9782 comb lines x 147 temperatures "
                                 "(4010 pump x 5764 idler lines) exceeds 16777216 cells")
    assert 9782 * 147 < MAX_GRID_CELLS < 4010 * 5764


@pytest.mark.parametrize("key", ["power_min_mW", "power_max_mW"])
def test_negative_linear_power_bound_exits_2(tmp_path, key):
    code, out, err = run_main(["match", "--override", "experiment.power_spacing=linear",
                               "--override", f"experiment.{key}=-1",
                               "--out-dir", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    record = error_record(code, err)
    assert record["error"] == "ConfigError"
    assert record["message"] == f"config key 'experiment.{key}' must be >= 0, got -1"


@pytest.mark.parametrize("experiment, override", [
    ("convert", "experiment.pump_power_mW=0"),
    ("noise", "experiment.pump_power_mW=0"),
    ("convert", "experiment.power_min_mW=0"),
])
def test_zero_drive_power_runs(tmp_path, experiment, override):
    code, _, err = run_main([experiment, "--override", "experiment.power_spacing=linear",
                             "--override", override, "--out-dir", str(tmp_path)])
    assert code == 0, err


@pytest.mark.parametrize("overrides, key", [
    (["experiment.power_spacing=linear", "experiment.power_min_mW=0"], "power_min_mW"),
    (["experiment.pump_power_mW=0"], "pump_power_mW"),
])
def test_tradeoff_at_zero_power_exits_2_before_sweeping(monkeypatch, tmp_path, overrides,
                                                         key):
    # convert and noise accept P = 0 (above); the trade-off's SNR is 0/0 there.
    from qfcring import experiments

    monkeypatch.setattr(experiments, "operating_point",
                        lambda *a, **k: pytest.fail("swept before checking the power grid"))
    args = [x for o in overrides for x in ("--override", o)]
    code, out, err = run_main(["tradeoff", *args, "--out-dir", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    record = error_record(code, err)
    assert record["error"] == "ConfigError"
    assert record["message"] == (f"config key 'experiment.{key}' is 0, and the trade-off's "
                                 "SNR is undefined at zero pump power")


@pytest.mark.parametrize("blocked", ["out-dir", "match.json"])
def test_unwritable_output_exits_2(tmp_path, blocked):
    # An --out-dir that is a file, or an output name taken by a directory.
    out = tmp_path / "out"
    path = out if blocked == "out-dir" else out / blocked
    if blocked == "out-dir":
        out.write_text("", encoding="utf-8")
    else:
        path.mkdir(parents=True)
    code, stdout, err = run_main(["match", "--out-dir", str(out)])
    assert (code, stdout) == (2, "")
    record = error_record(code, err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"cannot write output {path}: ")


def test_fit_order_applies_to_the_packaged_table(tmp_path):
    # The committed calibration rests on the order-8 fit; the order-6 model's
    # best triple misses the packaged 150 MHz mismatch tolerance, so it is widened.
    golden = Path(__file__).parent / "golden" / "default_run" / "match.json"
    code, _, err = run_main(["match", "--override", "dispersion.fit_order=6",
                             "--override", "constraints.max_mismatch_MHz=1000.0",
                             "--out-dir", str(tmp_path)])
    assert code == 0, err
    got = json.loads((tmp_path / "match.json").read_text())["dispersion_model_hash"]
    assert got != json.loads(golden.read_text())["dispersion_model_hash"]


@pytest.mark.parametrize("fit_order", [0, 2])
def test_lines_that_do_not_move_with_temperature_exit_3(tmp_path, fit_order):
    # n_eff = 2 everywhere: the fitted dn/dT is 0 (order 0) or ~1e-18 (order 2),
    # and the adaptive sweep step must not divide by the zero shift rate.
    rows = [f"{lam}.0,{w},{t},2.0" for w in (1400, 1500, 1600) for t in (300, 350, 400)
            for lam in range(700, 1751, 25)]
    table = tmp_path / "flat.csv"
    table.write_text("wavelength_nm,width_nm,temperature_K,n_eff\n" + "\n".join(rows) + "\n",
                     encoding="utf-8")
    code, out, err = run_main(["match", "--override", f"dispersion.table_file={table}",
                               "--override", f"dispersion.fit_order={fit_order}",
                               "--out-dir", str(tmp_path / "out")])
    assert (code, out) == (3, "")
    assert error_record(code, err)["error"] == "NoFeasibleMatch"


# A second entry for width 1500 in each width-keyed map.
REPEATED_ENTRY = {
    "device.poling_period_um_by_width": "2.0",
    "physics.fwm_companion_detuning_THz_by_width": "1.0",
    "calibration.by_width": "{heater_scale: 1.0, lc_quad_um: [100.0, 0.0, 0.0]}",
}


@pytest.mark.parametrize("width_map", sorted(REPEATED_ENTRY))
@pytest.mark.parametrize("spelling", ["1500.0", "'1500.0'"])
def test_repeated_width_key_exits_2(tmp_path, width_map, spelling):
    # YAML reads 1500 and 1500.0 as one key and would keep the last value; the
    # quoted spelling is another YAML key that collides once widths are normalised.
    header = f"\n  {width_map.split('.')[1]}:\n"
    text = default_config_text()
    assert text.count(header) == 1
    path = tmp_path / "repeated.yaml"
    path.write_text(text.replace(header, f"{header}    {spelling}: {REPEATED_ENTRY[width_map]}\n"),
                    encoding="utf-8")
    code, out, err = run_main(["match", "--config", str(path),
                               "--out-dir", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    record = error_record(code, err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"config key '{width_map}' lists ")
    assert "1500" in record["message"]


def test_width_near_a_listed_width_fails_alike_everywhere(tmp_path):
    # Widths are compared exactly: 1e-7 nm off the 1500 entries is a width the
    # config does not list, whichever experiment (and layer) looks it up first.
    records = []
    for experiment in ("spectrum", "couplings", "match", "convert", "noise", "calibrate"):
        code, out, err = run_main([experiment, "--override", "device.width_nm=1500.0000001",
                                   "--out-dir", str(tmp_path / experiment)])
        assert (code, out) == (2, ""), experiment
        records.append(error_record(code, err))
    assert records[0] == {"error": "ConfigError", "exit_code": 2,
                          "message": "no poling period entry for width 1500.0000001 nm"}
    assert all(record == records[0] for record in records)


def _is_numeric(expected):
    return bool({int, float} & set(expected if isinstance(expected, tuple) else (expected,)))


# A width map's SCHEMA value is the type of its entries, not of the key.
NUMERIC_KEYS = [f"{section}.{key}" for section, body in SCHEMA.items()
                for key, expected in body.items()
                if not key.endswith("by_width") and _is_numeric(expected)]
EXTREMES = ("0", "-1", "1.0e-30", "1.0e-9", "1.0e+9", "1.0e+300", "-1.0e+300", ".nan", ".inf",
            "-.inf")


@settings(max_examples=120, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(NUMERIC_KEYS), value=st.sampled_from(EXTREMES),
       experiment=st.sampled_from(EXPERIMENTS))
# Overrides that once escaped as a traceback (exit 1) or took every byte of memory.
@example(key="device.ring_length_um", value="1.0e+9", experiment="spectrum")
@example(key="device.ring_length_um", value=".nan", experiment="couplings")
@example(key="device.ring_length_um", value=".inf", experiment="match")
@example(key="device.mzi_arm_delta_um", value=".inf", experiment="calibrate")
@example(key="device.mzi_arm_delta_um", value="-.inf", experiment="calibrate")
@example(key="device.mzi_heater_length_um", value="0", experiment="calibrate")
@example(key="device.mzi_delta_T_K", value=".inf", experiment="calibrate")
@example(key="device.mzi_delta_T_K", value="-.inf", experiment="calibrate")
@example(key="dispersion.dn_dT_per_K", value=".inf", experiment="calibrate")
@example(key="dispersion.dn_dT_per_K", value="-.inf", experiment="calibrate")
@example(key="physics.signal_wavelength_nm", value=".nan", experiment="convert")
@example(key="constraints.pump_base_wavelength_nm", value=".nan", experiment="noise")
@example(key="constraints.idler_base_wavelength_nm", value=".nan", experiment="tradeoff")
@example(key="constraints.half_window_nm", value=".nan", experiment="match")
@example(key="constraints.t_step_mK", value="1.0e-9", experiment="spectrum")
@example(key="constraints.t_step_mK", value=".nan", experiment="calibrate")
@example(key="experiment.power_max_mW", value="0", experiment="convert")
@example(key="calibration_targets.fwm_rate_Hz", value="-1", experiment="calibrate")
@example(key="calibration_targets.fwm_rate_Hz", value="-.inf", experiment="calibrate")
@example(key="calibration_targets.max_heater_length_um", value=".nan", experiment="calibrate")
@example(key="calibration_targets.max_heater_length_um", value=".inf", experiment="calibrate")
@example(key="calibration_targets.max_heater_length_um", value="-.inf", experiment="calibrate")
@example(key="calibration.g_chi3_over_2pi_Hz", value=".inf", experiment="tradeoff")
@example(key="device.propagation_loss_dB_per_m", value="1.0e+300", experiment="convert")
@example(key="device.propagation_loss_dB_per_m", value="1.0e+300", experiment="noise")
@example(key="device.propagation_loss_dB_per_m", value="1.0e+300", experiment="tradeoff")
@example(key="physics.pump_detuning_MHz", value="1.0e+300", experiment="convert")
@example(key="physics.pump_detuning_MHz", value="1.0e+300", experiment="tradeoff")
@example(key="physics.pump_detuning_MHz", value="-1.0e+300", experiment="convert")
@example(key="physics.pump_detuning_MHz", value="-1.0e+300", experiment="tradeoff")
@example(key="calibration.g0_full_over_2pi_MHz", value="1.0e+300", experiment="convert")
@example(key="calibration.g0_full_over_2pi_MHz", value="1.0e+300", experiment="noise")
@example(key="calibration.g0_full_over_2pi_MHz", value="1.0e+300", experiment="tradeoff")
@example(key="calibration.g_chi3_over_2pi_Hz", value="1.0e+300", experiment="noise")
@example(key="calibration.g_chi3_over_2pi_Hz", value="1.0e+300", experiment="tradeoff")
@example(key="calibration.g0_full_over_2pi_MHz", value="1.0e-300", experiment="convert")
@example(key="device.ring_length_um", value="1.0e+305", experiment="spectrum")
@example(key="device.mzi_heater_length_um", value="1.7e+308", experiment="calibrate")
@example(key="calibration_targets.max_heater_length_um", value="1.7e+308", experiment="calibrate")
@example(key="calibration_targets.max_heater_length_um", value="-1.7e+308", experiment="calibrate")
def test_any_single_extreme_override_exits_with_a_documented_code(tmp_path, key, value,
                                                                  experiment):
    out_dir = tempfile.mkdtemp(dir=tmp_path)
    code, out, err = run_main([experiment, "--override", f"{key}={value}",
                               "--out-dir", out_dir])
    assert code in {0, 2, 3, 4}
    if code == 0:
        assert json.loads(out)["experiment"] == experiment
    else:
        error_record(code, err)


def test_multi_key_draws_exit_with_a_family_code_and_match_the_oracle(tmp_path):
    # Every experiment of every draw ends 0 or with its family's code, and on
    # each matched draw the closed form equals the RK4 steady state within
    # criterion 3's bound at the first, middle and last grid power, and its
    # files agree with each other.  A RuntimeWarning raises; the package's own
    # warnings are recorded.
    outcomes, identities, worst = Counter(), Counter(), 0.0
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("default", UserWarning)
        warnings.simplefilter("error", RuntimeWarning)
        for i, overrides in enumerate(multi_key_draws()):
            args = [arg for o in overrides for arg in ("--override", o)]
            out_dir = tmp_path / f"draw{i}"
            runs = {name: run_main([name, *args, "--out-dir", str(out_dir)])
                    for name in EXPERIMENTS}
            assert all(code in {0, 2, 3, 4} for code, _, _ in runs.values()), (overrides, runs)
            code, _, err = runs["convert"]
            outcomes[json.loads(err)["error"] if code else "matched"] += 1
            if code != 0:
                continue
            identities.update(assert_outputs_agree(out_dir))
            cfg = apply_overrides(default_config(), overrides)
            system = build_twm_system(cfg, operating_point(cfg)[1][0])
            powers = _power_grid_W(cfg)
            for power in (powers[0], powers[powers.size // 2], powers[-1]):
                at = system.with_power(float(power))
                for closed, oracle in zip(external_efficiency(at), steady_state_conversion(at)):
                    worst = max(worst, abs(oracle / closed - 1.0))
    assert worst < 1e-5, worst
    # a change that refuses every draw must not pass as a clean run
    assert outcomes["matched"] >= 20, outcomes
    assert identities["combs"] == identities["operating point"] == outcomes["matched"]
    assert min(identities[name] for name in ("convert", "noise", "couplings")) >= 10, identities


def test_search_grid_counts_are_exact_until_they_are_huge(tmp_path):
    def message(override):
        code, _, err = run_main(["match", "--override", override,
                                 "--out-dir", str(tmp_path / "out")])
        record = error_record(code, err)
        assert record["error"] == "DomainError"
        return record["message"]

    huge = message("device.ring_length_um=1e300")
    assert huge.startswith("search grid of ") and len(huge) < 200, huge
    exact = re.fullmatch(r"search grid of (\d+) comb lines x (\d+) temperatures "
                         r"\((\d+) pump x (\d+) idler lines\) exceeds \d+ cells",
                         message("constraints.t_step_mK=1.0e-9"))
    assert exact and int(exact[2]) > 10**13, exact
