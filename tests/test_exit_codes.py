"""The CLI's exit-code contract: every failure exits 2, 3 or 4 with a JSON record.

The error class holds its exit code through its family (input 2, infeasible
3, numerical 4).  The CLI runs in-process here; `test_config_cli` covers the
subprocess path.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qfcring import cli, errors, matching
from qfcring.config import SCHEMA, default_config_text
from qfcring.elements import solve_resonance_wavelength
from qfcring.experiments import EXPERIMENTS

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
], ids=["no-widths", "repeated-width", "width-key-beyond-float", "missing-table",
        "zero-power-max", "match-power-spacing-case",
        "match-zero-power-min", "match-negative-pump-power", "match-tiny-negative-pump-power",
        "zero-heater", "negative-fwm-rate", "zero-fwm-rate", "zero-g0",
        "zero-fwm-power", "negative-fwm-power", "underflowing-fwm-power", "zero-loss",
        "nan-ring-length", "inf-heater-length",
        "tiny-sweep-step", "packaged-table-order-2", "negative-fit-order",
        "int-ring-length-beyond-float", "int-t-max-beyond-float",
        "int-fwm-rate-beyond-float", "int-input-rate-beyond-float",
        "int-power-points-beyond-float", "huge-spectrum-points", "huge-power-points",
        "int-beyond-str-limit"])
def test_unusable_value_exits_with_its_family_code(tmp_path, experiment, override, error,
                                                  code, message):
    override, message = (s.replace("{tmp}", str(tmp_path)) for s in (override, message))
    got, out, err = run_main([experiment, "--override", override,
                              "--out-dir", str(tmp_path / "out")])
    assert (got, out) == (code, "")
    record = error_record(code, err)
    assert record["error"] == error
    assert record["message"].startswith(message)


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


NUMERIC_KEYS = [f"{section}.{key}" for section, body in SCHEMA.items()
                for key, expected in body.items() if _is_numeric(expected)]
EXTREMES = ("0", "-1", "1.0e-9", "1.0e+9", ".nan", ".inf", "-.inf")


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
