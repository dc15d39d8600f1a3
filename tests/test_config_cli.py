"""Configuration schema, overrides, calibration workflow, and CLI contract."""

import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from qfcring.builders import build_device
from qfcring.calibration import calibrate_config
from qfcring import config
from qfcring.config import (
    SCHEMA,
    apply_overrides,
    config_hash,
    default_config,
    default_config_text,
    emit_config,
    load_config,
    validate_config,
)
from qfcring.errors import ConfigError
from qfcring.experiments import CALIBRATION_COMMENTS

from conftest import src_env


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "qfcring.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=src_env())


def test_default_config_valid(cfg):
    assert cfg["device"]["width_nm"] == 1500.0
    assert config_hash(cfg) == config_hash(default_config())


def test_packaged_config_parsed_once_and_copied(monkeypatch):
    first = load_config(None)
    first["device"]["width_nm"] = 1.0
    first["physics"]["fwm_companion_detuning_THz_by_width"].clear()

    def no_reparse(text):
        raise AssertionError("packaged config parsed again")

    monkeypatch.setattr(yaml, "safe_load", no_reparse)
    again = load_config(None)
    monkeypatch.undo()
    fresh = validate_config(yaml.safe_load(default_config_text()))
    assert again == fresh
    assert config_hash(again) == config_hash(fresh)
    assert default_config() == fresh


def test_unknown_key_named():
    bad = copy.deepcopy(default_config())
    bad["physics"]["pump_detuning_GHz"] = 1.0
    with pytest.raises(ConfigError, match="pump_detuning_GHz"):
        validate_config(bad)


def test_unknown_section_rejected():
    bad = copy.deepcopy(default_config())
    bad["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        validate_config(bad)


def test_missing_key_rejected():
    bad = copy.deepcopy(default_config())
    del bad["constraints"]["max_mismatch_MHz"]
    with pytest.raises(ConfigError, match="max_mismatch_MHz"):
        validate_config(bad)


def test_type_checked():
    bad = copy.deepcopy(default_config())
    bad["experiment"]["power_points"] = "many"
    with pytest.raises(ConfigError, match="power_points"):
        validate_config(bad)


@pytest.mark.parametrize("path, value, key", [
    (("device", "ring_length_um"), float("nan"), "device.ring_length_um"),
    (("experiment", "pump_power_mW"), float("inf"), "experiment.pump_power_mW"),
    (("experiment", "widths_nm"), [1500.0, float("inf")], "experiment.widths_nm"),
    (("device", "poling_period_um_by_width", "1500"), float("-inf"),
     "device.poling_period_um_by_width[1500]"),
    (("calibration", "by_width", "1500", "heater_scale"), float("nan"),
     "calibration.by_width[1500].heater_scale"),
    (("calibration", "by_width", "1500", "lc_quad_um"), [1.0, float("inf"), 0.0],
     "calibration.by_width[1500].lc_quad_um"),
])
def test_non_finite_value_named(path, value, key):
    bad = copy.deepcopy(default_config())
    node = bad
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(f"config key '{key}' must be finite")):
        validate_config(bad)


@pytest.mark.parametrize("widths", [("1400.125",), ("1400.121", "1400.124")],
                         ids=["1400.125", "1400.121-and-1400.124"])
def test_width_keys_are_lossless(cfg, widths):
    # `%g` keeps six significant digits: it would store 1400.125 as "1400.12"
    # and read 1400.121 and 1400.124 as one width listed twice.
    period = cfg["device"]["poling_period_um_by_width"]["1400"]
    entries = ", ".join(f"{w}: {period!r}" for w in widths)
    got = apply_overrides(cfg, [f"device.poling_period_um_by_width={{{entries}}}"])
    assert list(got["device"]["poling_period_um_by_width"]) == list(widths)
    for w in widths:
        device = build_device(got, width_nm=float(w), with_coupler=False)
        assert device.ring.poling_period_um == period


def test_a_by_width_key_added_to_the_schema_is_a_width_map(cfg, monkeypatch):
    # the key's suffix alone makes it a width map: keys respelled, entries typed
    monkeypatch.setitem(config.SCHEMA["physics"], "extra_by_width", config._NUM)

    def validated(mapping):
        edited = copy.deepcopy(cfg)
        edited["physics"]["extra_by_width"] = mapping
        return validate_config(edited)["physics"]["extra_by_width"]

    assert validated({1500.0: 1, 1400.125: 2.5}) == {"1500": 1, "1400.125": 2.5}
    for mapping, message in [
        ({"x": 1}, "'physics.extra_by_width' keys must be widths in nm, got 'x'"),
        ({1500: "a"}, "config key 'physics.extra_by_width[1500]' has wrong type str"),
        (3, "config key 'physics.extra_by_width' must be a mapping"),
    ]:
        with pytest.raises(ConfigError) as err:
            validated(mapping)
        assert str(err.value) == message


def test_override_equivalent_to_editing(cfg):
    edited = copy.deepcopy(cfg)
    edited["physics"]["signal_wavelength_nm"] = 727.0
    edited["constraints"]["max_mismatch_MHz"] = 6000.0
    overridden = apply_overrides(cfg, [
        "physics.signal_wavelength_nm=727.0",
        "constraints.max_mismatch_MHz=6000.0",
    ])
    assert config_hash(overridden) == config_hash(edited)


def test_override_bare_key_resolution(cfg):
    a = apply_overrides(cfg, ["signal_wavelength_nm=727.0"])
    assert a["physics"]["signal_wavelength_nm"] == 727.0
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(cfg, ["nonexistent_key=1"])
    with pytest.raises(ConfigError, match=r"^override 'oops' is not of the form key=value$"):
        apply_overrides(cfg, ["oops"])


def test_no_key_name_is_in_two_schema_sections():
    # a bare override key names its section by this
    names = [key for keys in SCHEMA.values() for key in keys]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("item, message", [
    ("device.ring_length_um=1" + "0" * 5000, "': unparseable value"),
    ("x" * 5000, "' is not of the form key=value"),
    ("device." + "x" * 5000 + "=1", "'"),
], ids=["unparseable", "not-key-value", "unknown-key"])
def test_override_messages_quote_a_long_item_by_its_head_and_tail(cfg, item, message):
    with pytest.raises(ConfigError) as err:
        apply_overrides(cfg, [item])
    text = str(err.value)
    quoted = item.partition("=")[0] if text.startswith("unknown") else item
    assert len(text) < 200
    assert text.endswith(f"{quoted[-60:]}{message}") and quoted[:60] + "\u2026" in text


@pytest.mark.parametrize("make, message", [
    (lambda cfg: apply_overrides(cfg, ["experiment.widths_nm=[a]"]),
     "config key 'experiment.widths_nm' must be a list of numbers"),
    (lambda cfg: apply_overrides(cfg, ["device.poling_period_um_by_width=3"]),
     "config key 'device.poling_period_um_by_width' must be a mapping"),
    (lambda cfg: apply_overrides(cfg, ["calibration.by_width=3"]),
     "config key 'calibration.by_width' must be a mapping"),
    (lambda cfg: apply_overrides(cfg, ["calibration.by_width.1500=3"]),
     "config key 'calibration.by_width[1500]' must be a mapping"),
    (lambda cfg: apply_overrides(cfg, ["constraints.require_qpm=1"]),
     "config key 'constraints.require_qpm' must be a boolean"),
    (lambda cfg: validate_config([]), "config root must be a mapping of sections"),
    (lambda cfg: validate_config({k: v for k, v in cfg.items() if k != "device"}),
     "missing config section 'device'"),
    (lambda cfg: validate_config({**cfg, "device": 1}), "config section 'device' must be a mapping"),
    (lambda cfg: apply_overrides(cfg, ["device.nope.x=1"]), "unknown config key 'device.nope.x'"),
    (lambda cfg: apply_overrides(cfg, ["device.width_nm.x=1"]),
     "unknown config key 'device.width_nm.x'"),
    (lambda cfg: apply_overrides(cfg, ["nope.x=1"]), "unknown config key 'nope.x'"),
], ids=["list-of-numbers", "mapping", "width-map-mapping", "width-entry-mapping", "boolean",
        "root", "missing-section",
        "section-not-mapping", "unknown-nested", "under-a-number", "unknown-section"])
def test_config_refusals(cfg, make, message):
    with pytest.raises(ConfigError) as err:
        make(copy.deepcopy(cfg))
    assert str(err.value) == message


def test_unreadable_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "absent.yaml"
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(path))}: "):
        load_config(path)


@pytest.mark.parametrize("load", [config._load_yaml,
                                  lambda text: config._load_with(config._Loader, text, "")],
                         ids=["entry", "pure"])
def test_the_key_check_skips_merge_keys_and_visits_an_aliased_mapping_once(load):
    assert load("a: &x {b: 1}\nc: *x") == {"a": {"b": 1}, "c": {"b": 1}}
    assert load("a: &x {b: 1}\nc: {<<: *x, d: 2}") == {"a": {"b": 1}, "c": {"b": 1, "d": 2}}
    with pytest.raises(ConfigError, match=r"^config key 'a' lists 'b' more than once$"):
        load("a: &x {b: 1, b: 2}\nc: *x")


def test_emit_config_writes_only_the_schema_keys(cfg):
    # validate_config refuses a key outside SCHEMA, and emit_config does not write one
    edited = copy.deepcopy(cfg)
    edited["device"] = {"extra_um": 1.5, **edited["device"]}
    assert emit_config(edited) == emit_config(cfg)
    assert "extra_um" not in emit_config(edited, comments={"device.extra_um": "a note"})


def test_every_config_comment_names_a_schema_path():
    # emit_config writes a comment only at a section or key it visits, so a
    # comment keyed by a renamed key would vanish from the written config
    spec = importlib.util.spec_from_file_location(
        "make_defaults", Path(__file__).resolve().parent.parent / "scripts" / "make_defaults.py")
    make_defaults = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_defaults)
    paths = set(SCHEMA) | {f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys}
    assert set(CALIBRATION_COMMENTS) <= paths
    assert set(make_defaults.DEFAULT_COMMENTS) <= paths


def test_emit_round_trip(cfg):
    text = emit_config(cfg, header="round trip")
    back = validate_config(yaml.safe_load(text))
    assert config_hash(back) == config_hash(cfg)


@pytest.mark.parametrize("override, spelled_out", [
    ("experiment.power_max_mW=1e3", "experiment.power_max_mW=1.0e+3"),
    ("experiment.power_min_mW=1E-4", "experiment.power_min_mW=1.0e-4"),
    ("physics.pump_detuning_MHz=-2e5", "physics.pump_detuning_MHz=-2.0e+5"),
])
def test_override_reads_exponent_floats(cfg, override, spelled_out):
    got = apply_overrides(cfg, [override])
    assert got == apply_overrides(cfg, [spelled_out])
    section, key = override.split("=")[0].split(".")
    assert type(got[section][key]) is float


def test_emitted_exponent_floats_reload(cfg, tmp_path):
    edited = copy.deepcopy(cfg)
    edited["physics"]["pump_detuning_MHz"] = 1e-05
    edited["experiment"]["power_max_mW"] = 1e+20
    text = emit_config(edited)
    assert "pump_detuning_MHz: 1e-05\n" in text and "power_max_mW: 1e+20\n" in text
    path = tmp_path / "exponents.yaml"
    path.write_text(text, encoding="utf-8")
    assert load_config(path) == edited


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_cli_non_finite_override_exit_2(tmp_path, value):
    proc = run_cli(["convert", "--override", f"experiment.power_max_mW={value}",
                    "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("config key 'experiment.power_max_mW' must be finite")


# --- calibration workflow --------------------------------------------------

def test_calibrate_idempotent(cfg):
    once = calibrate_config(cfg)
    twice = calibrate_config(once)
    assert once["calibration"] == twice["calibration"]
    assert once["calibration"] == cfg["calibration"]


def test_calibrate_perturbed_targets_hit_anchors(cfg):
    from qfcring.builders import build_constraints, build_device
    from qfcring.matching import find_triple_resonance

    perturbed = copy.deepcopy(cfg)
    perturbed["calibration_targets"]["eta_pump"] = 0.55
    perturbed["calibration_targets"]["eta_signal"] = 0.9
    perturbed["calibration_targets"]["g0_over_2pi_MHz"] = 0.341
    perturbed["calibration_targets"]["fwm_rate_Hz"] = 0.088
    out = calibrate_config(perturbed)

    assert out["calibration"]["g0_full_over_2pi_MHz"] * 0.45 == \
        pytest.approx(0.341, rel=1e-12)
    device = build_device(out)
    match = find_triple_resonance(device, build_constraints(out))[0]
    assert match.pump.eta == pytest.approx(0.55, rel=1e-6)
    assert match.signal.eta == pytest.approx(0.9, rel=1e-6)
    assert match.idler.eta == pytest.approx(0.98, rel=1e-6)

    from qfcring.builders import build_fwm_channel
    from qfcring.constants import TWO_PI
    from qfcring.noise import fwm_noise_rate
    channel = build_fwm_channel(out, match, TWO_PI * 1.0e12)
    assert fwm_noise_rate(channel, 1e-3) == pytest.approx(0.088, rel=1e-6)


def test_missing_calibration_guard(cfg, tmp_path):
    bare = {k: v for k, v in cfg.items() if k != "calibration"}
    path = tmp_path / "bare.yaml"
    path.write_text(emit_config(bare), encoding="utf-8")
    proc = run_cli(["convert", "--config", str(path), "--out-dir",
                    str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "calibrate" in err["message"]


# --- CLI contract ------------------------------------------------------------

def test_cli_match_success(tmp_path):
    proc = run_cli(["match", "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["experiment"] == "match"
    for path in record["outputs"]:
        full = path if os.path.isabs(path) else tmp_path / path
        assert os.path.exists(full) and os.path.getsize(full) > 0
    report = json.loads(open(record["outputs"][0]).read())
    assert report["best"]["feasible"] is True


def test_cli_planted_fixture_matches_golden(tmp_path):
    import filecmp

    fixtures = Path(__file__).parent / "fixtures"
    golden = Path(__file__).parent / "golden" / "planted_match"
    out = tmp_path / "out"
    # the fixture's table path is relative to its own directory
    proc = run_cli(["match", "--config", "planted.yaml", "--out-dir", str(out)],
                   cwd=fixtures)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "match.json").read_text())
    best = report["best"]
    assert (best["signal"]["m"], best["pump"]["m"], best["idler"]["m"]) == \
        (1357, 616, 741)
    assert filecmp.cmp(out / "match.json", golden / "match.json", shallow=False)


def test_cli_unknown_key_exit_2(tmp_path):
    proc = run_cli(["convert", "--override", "bogus_key=1",
                    "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert "bogus_key" in err["message"]


@pytest.mark.parametrize("override, reason", [
    ("constraints.max_mismatch_MHz=0", "tolerances must be positive"),
    ("constraints.t_ring_min_K=500", "temperature sweep range is empty"),
    ("constraints.half_window_nm=0", "window must be positive"),
    ("constraints.t_step_mK=-1", "sweep step must be positive"),
])
def test_cli_bad_constraint_exit_2(tmp_path, override, reason):
    proc = run_cli(["match", "--override", override,
                    "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err == {"error": "ConfigError", "exit_code": 2,
                   "message": f"invalid constraints: {reason}"}


@pytest.mark.parametrize("experiment, override", [
    ("convert", "experiment.power_points=0"),
    ("noise", "experiment.power_points=0"),
    ("couplings", "experiment.mzi_sweep_points=0"),
    ("convert", "experiment.power_points=-1"),
    ("couplings", "experiment.dc_grid_points=-3"),
    ("tradeoff", "experiment.power_points=0"),
])
def test_cli_empty_grid_exit_2(tmp_path, experiment, override):
    proc = run_cli([experiment, "--override", override,
                    "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2
    key, value = override.split("=")
    err = json.loads(proc.stderr)
    assert err == {"error": "ConfigError", "exit_code": 2,
                   "message": f"config key '{key}' must be at least 1, got {value}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, override, error, message", [
    ("match", "physics.signal_wavelength_nm=2000", "OutOfDomain",
     "search band (2000.0, 2000.0) nm leaves the dispersion window"),
    ("match", "constraints.t_ring_max_K=900", "OutOfDomain",
     "sweep range [300.0, 900.0] K leaves the dispersion window"),
    ("match", "device.ring_length_um=-5", "DomainError", "ring length must be positive"),
    ("spectrum", "experiment.spectrum_points=1", "DomainError",
     "spectrum needs at least 2 wavelength samples"),
])
def test_cli_out_of_domain_value_exit_2(tmp_path, experiment, override, error, message):
    proc = run_cli([experiment, "--override", override,
                    "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert (err["error"], err["exit_code"]) == (error, 2)
    assert err["message"].startswith(message)


@pytest.mark.parametrize("experiment, error, prefix", [
    ("match", "NoFeasibleMatch", ""),
    ("noise", "NoFeasibleMatch", ""),
    # the trade-off names the first infeasible width, then the matcher's message
    ("tradeoff", "UnmatchedVariant", "width 1400 nm: "),
    ("calibrate", "CalibrationInfeasible", "anchor 'triple resonance' (width 1400 nm): "),
], ids=["match", "noise", "tradeoff", "calibrate"])
def test_cli_infeasible_exit_3(tmp_path, experiment, error, prefix):
    # 727 nm signal puts the idler outside its window: honest infeasibility
    proc = run_cli([experiment, "--override", "signal_wavelength_nm=727.0",
                    "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == error
    assert err["message"].startswith(prefix + "no ")


def test_cli_single_power_override(tmp_path):
    proc = run_cli(["convert", "--overrides", "pump_power_mW=1.0",
                    "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = np.genfromtxt(tmp_path / "out" / "convert.csv", delimiter=",",
                         names=True)
    assert float(rows["power_mW"]) == 1.0
    assert float(rows["eta_ext"]) >= 0.85


def test_meta_sidecars_echo_resolved_config(tmp_path):
    proc = run_cli(["noise", "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "out" / "noise.meta.json").read_text())
    assert meta["config_hash"] == config_hash(default_config())
    assert meta["resolved_config"]["physics"]["signal_input_rate_Hz"] == 10000.0
    assert meta["experiment"] == "noise"
