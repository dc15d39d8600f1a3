"""The process-level memo of verified operating points in `builders`, the
dispersion fit cache, the calibration drift warning, and the one companion
rule of the FWM noise channel (`builders.fwm_channel_at`)."""

import contextlib
import copy
import dataclasses
import json
import os
import re
import warnings
from importlib import resources
from types import SimpleNamespace

import pytest

from qfcring import builders, cli, matching
from qfcring.config import apply_overrides, width_key
from qfcring.constants import TWO_PI
from qfcring.elements import Device
from qfcring.errors import (ConfigError, NoFeasibleMatch, QfcError, StaleResult,
                             UnmatchedVariant)
from qfcring.experiments import run_experiment

from conftest import WIDTH, partial_sweep, planted_fixture_curved, simple_model

EXPLORE = ("spectrum", "couplings", "match", "convert", "noise", "tradeoff")


@pytest.fixture
def sweeps(monkeypatch):
    """Record every real sweep (its width and best match) and verification."""
    rec = SimpleNamespace(widths=[], bests=[], verified=[])
    real_find, real_verify = matching.find_triple_resonance, matching.verify_match

    def counting_find(device, constraints):
        rec.widths.append(device.width_nm)
        results = real_find(device, constraints)
        rec.bests.append(results[0])
        return results

    def counting_verify(device, result, *args, **kwargs):
        rec.verified.append(result)
        return real_verify(device, result, *args, **kwargs)

    monkeypatch.setattr(builders, "find_triple_resonance", counting_find)
    monkeypatch.setattr(builders, "verify_match", counting_verify)
    return rec


def _edited(cfg, path, change):
    out = copy.deepcopy(cfg)
    node = out
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = change(node[path[-1]])
    return out


def _perturbed_table(tmp_path, scale):
    """Copy of the packaged dispersion table with every n_eff scaled."""
    text = resources.files("qfcring.data").joinpath("default_dispersion.csv").read_text()
    lines = []
    for line in text.splitlines():
        fields = line.split(",")
        if len(fields) == 4 and not line.startswith(("#", "wavelength")):
            fields[3] = repr(float(fields[3]) * scale)
        lines.append(",".join(fields))
    path = tmp_path / f"table_{scale!r}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_explore_experiments_sweep_each_width_once(cfg, tmp_path, sweeps):
    for name in EXPLORE:
        run_experiment(name, cfg, str(tmp_path / name))
    widths = sorted({float(w) for w in cfg["experiment"]["widths_nm"]}
                    | {float(cfg["device"]["width_nm"])})
    assert sorted(sweeps.widths) == widths
    assert len(sweeps.verified) == len(sweeps.bests)
    for width, best in zip(sweeps.widths, sweeps.bests):
        assert any(v is best for v in sweeps.verified), f"width {width:g} nm not verified"


# (path, change, whether the changed device misses its calibrated coupling ratios)
SWEEP_INPUTS = [
    (("device", "ring_length_um"), lambda v: v + 0.01, True),
    (("device", "mzi_heater_length_um"), lambda v: v * 1.01, True),
    (("device", "propagation_loss_dB_per_m"), lambda v: v * 1.1, True),
    (("dispersion", "dn_dT_per_K"), lambda v: v * 1.01, True),
    (("constraints", "t_ring_min_K"), lambda v: v + 1.0, False),
    (("constraints", "max_mismatch_MHz"), lambda v: v * 2.0, False),
    (("physics", "signal_wavelength_nm"), lambda v: v + 1e-4, False),
    (("calibration", "by_width", "1500", "heater_scale"), lambda v: v * 1.001, True),
    (("calibration", "by_width", "1500", "lc_quad_um"), lambda v: [v[0] + 0.1, *v[1:]], False),
]


@pytest.mark.parametrize("path, change, drifts", SWEEP_INPUTS,
                         ids=[".".join(p) for p, _, _ in SWEEP_INPUTS])
def test_changed_sweep_input_sweeps_again(cfg, sweeps, path, change, drifts):
    builders.operating_point(cfg)
    drift = (pytest.warns(builders.CalibrationDrift, match="re-run `qfcring calibrate`$")
             if drifts else contextlib.nullcontext())
    with drift, contextlib.suppress(QfcError):
        builders.operating_point(_edited(cfg, path, change))
    assert len(sweeps.widths) == 2


def test_changed_dispersion_table_sweeps_again(cfg, tmp_path, sweeps):
    builders.operating_point(cfg)
    same = _edited(cfg, ("dispersion", "table_file"),
                   lambda _: _perturbed_table(tmp_path, 1.0))
    builders.operating_point(same)
    assert len(sweeps.widths) == 1, "a copy of the packaged table has the same content"
    moved = _edited(cfg, ("dispersion", "table_file"),
                    lambda _: _perturbed_table(tmp_path, 1.0 + 1e-6))
    with contextlib.suppress(QfcError):
        builders.operating_point(moved)
    assert len(sweeps.widths) == 2


@pytest.mark.parametrize("override", [
    "experiment.power_points=7",
    "physics.pump_detuning_MHz=25.0",
    "experiment.spectrum_points=11",
])
def test_downstream_knob_reuses_the_sweep(cfg, sweeps, override):
    _, first = builders.operating_point(cfg)
    device, again = builders.operating_point(apply_overrides(cfg, [override]))
    assert again is first
    assert device == builders.build_device(cfg)
    assert len(sweeps.widths) == 1 and len(sweeps.verified) == 1


def test_bare_ring_and_coupled_device_are_separate_entries(cfg, sweeps):
    _, bare = builders.operating_point(cfg, with_coupler=False)
    _, coupled = builders.operating_point(cfg)
    assert len(sweeps.widths) == 2
    assert [m.t_ring_K for m in bare] == [m.t_ring_K for m in coupled]
    assert bare[0].pump.kappa_ex != coupled[0].pump.kappa_ex
    # the coupler only rates: the bare-ring matches rated on the coupled device
    device = builders.build_device(cfg)
    assert [matching.rated(device, b) for b in bare] == list(coupled)


def test_infeasible_config_raises_on_every_call(cfg, sweeps):
    impossible = apply_overrides(cfg, ["constraints.max_mismatch_MHz=1e-9"])
    for _ in range(2):
        with pytest.raises(NoFeasibleMatch):
            builders.operating_point(impossible)
    assert len(sweeps.widths) == 2


def test_failed_verification_is_not_memoised(cfg, monkeypatch, sweeps):
    def stale(device, result):
        raise StaleResult("injected")

    counting_verify = builders.verify_match
    monkeypatch.setattr(builders, "verify_match", stale)
    with pytest.raises(StaleResult):
        builders.operating_point(cfg)
    monkeypatch.setattr(builders, "verify_match", counting_verify)
    builders.operating_point(cfg)
    assert len(sweeps.widths) == 2


def test_returned_matches_cannot_be_changed(cfg):
    _, matches = builders.operating_point(cfg)
    snapshot = copy.deepcopy(matches)
    assert isinstance(matches, tuple)
    with pytest.raises(TypeError):
        matches[0] = matches[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        matches[0].t_ring_K = 0.0
    _, again = builders.operating_point(cfg)
    assert again == snapshot


def test_memo_is_bounded_least_recently_used_first(cfg, sweeps):
    size = builders._SWEEP_MEMO_SIZE
    variants = [apply_overrides(cfg, [f"constraints.t_ring_max_K={390.0 + k}"])
                for k in range(size + 1)]
    for variant in variants[:size]:
        builders.operating_point(variant)
    builders.operating_point(variants[0])          # refresh the oldest entry
    builders.operating_point(variants[size])       # evicts variants[1]
    assert builders._verified_matches.cache_info().currsize == size
    assert len(sweeps.widths) == size + 1
    builders.operating_point(variants[0])
    assert len(sweeps.widths) == size + 1
    builders.operating_point(variants[1])
    assert len(sweeps.widths) == size + 2


@pytest.mark.parametrize("with_coupler", [True, False], ids=["coupled", "bare"])
def test_device_built_after_a_refit_equals_the_one_before(cfg, with_coupler):
    before = builders.build_device(cfg, with_coupler=with_coupler)
    builders._packaged_model.cache_clear()
    after = builders.build_device(cfg, with_coupler=with_coupler)
    assert after.dispersion is not before.dispersion
    assert after == before and hash(after) == hash(before)


def test_table_file_rewritten_in_place_is_refit(cfg, tmp_path):
    path = _perturbed_table(tmp_path, 1.0)
    table_cfg = _edited(cfg, ("dispersion", "table_file"), lambda _: path)
    before = builders.build_dispersion_model(table_cfg).content_hash()
    os.replace(_perturbed_table(tmp_path, 1.001), path)
    assert builders.build_dispersion_model(table_cfg).content_hash() != before


def test_relative_table_file_is_read_from_the_working_directory(cfg, tmp_path, monkeypatch):
    relative = _edited(cfg, ("dispersion", "table_file"), lambda _: "table.csv")
    hashes = []
    for scale in (1.0, 1.001):
        folder = tmp_path / f"scale_{scale!r}"
        folder.mkdir()
        os.replace(_perturbed_table(tmp_path, scale), folder / "table.csv")
        monkeypatch.chdir(folder)
        hashes.append(builders.build_dispersion_model(relative).content_hash())
    assert hashes[0] != hashes[1]


# --- the calibration drift warning -------------------------------------------

# Each moves a matched carrier's eta by 1e-2 or more off its calibration target.
DRIFTING = ["device.mzi_heater_length_um=120", "device.propagation_loss_dB_per_m=30",
            "dispersion.dn_dT_per_K=4.0e-5", "device.mzi_delta_T_K=27"]


@pytest.mark.parametrize("override", DRIFTING)
def test_drifted_device_warns_once_per_swept_width(cfg, tmp_path, capsys, override):
    assert cli.main(["tradeoff", "--override", override, "--out-dir", str(tmp_path)]) == 0
    record = json.loads(capsys.readouterr().out)
    drift = [w for w in record["warnings"] if "qfcring calibrate" in w]
    pattern = r"width (\S+) nm: (pump|signal|idler) eta \S+ misses its calibration target "
    assert [re.match(pattern, w).group(1) for w in drift] == [
        f"{w:g}" for w in sorted(cfg["experiment"]["widths_nm"])]


@pytest.mark.parametrize("overrides", [
    [], ["constraints.t_step_mK=2"], ["constraints.t_step_mK=12"],
    ["dispersion.fit_order=9"], ["physics.pump_detuning_MHz=100"],
], ids=["packaged", "step-2mK", "step-12mK", "fit-order-9", "pump-detuning-100MHz"])
def test_calibrated_device_does_not_warn_of_drift(cfg, tmp_path, overrides):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment("tradeoff", apply_overrides(cfg, overrides), str(tmp_path))
    assert not [w for w in caught if issubclass(w.category, builders.CalibrationDrift)]


# --- warnings in the CLI record ---------------------------------------------

def _off_integer_poling(cfg):
    """Every width's poling period 0.08 off its integer M: a RingCavity warning."""
    device = cfg["device"]
    turns = device["ppln_fraction"] * device["ring_length_um"]
    periods = {w: turns / (round(turns / p) + 0.08)
               for w, p in device["poling_period_um_by_width"].items()}
    return "device.poling_period_um_by_width={%s}" % ", ".join(
        f"{w}: {p!r}" for w, p in periods.items())


@pytest.mark.parametrize("experiment, count", [("calibrate", 3), ("tradeoff", 3), ("match", 1)])
def test_cli_record_lists_each_warning_once(cfg, tmp_path, capsys, experiment, count):
    # calibrate builds the primary width's ring twice (bare sweep, then the
    # g_chi3 anchor's coupled device); its warning is listed once.
    override = _off_integer_poling(cfg)
    assert cli.main([experiment, "--override", override, "--out-dir", str(tmp_path)]) == 0
    listed = json.loads(capsys.readouterr().out)["warnings"]
    poling = [w for w in listed if w.startswith("poling-compensated mode number")]
    assert len(poling) == count
    assert len(set(listed)) == len(listed)


def test_every_cli_record_lists_its_warnings(tmp_path, capsys):
    # Two runs in one process: the second must not take the first's warning
    # as already shown.
    for run in range(2):
        assert cli.main(["match", "--override", "device.propagation_loss_dB_per_m=30",
                         "--out-dir", str(tmp_path / str(run))]) == 0
        listed = json.loads(capsys.readouterr().out)["warnings"]
        assert len([w for w in listed if "qfcring calibrate" in w]) == 1


# --- the companion rule ----------------------------------------------------

def test_fwm_channel_comb_line_wins_over_the_table(cfg):
    # A model window wide enough to hold the companion line 2 w_p - w_i.
    device, constraints, _ = planted_fixture_curved()
    model = simple_model([2.0, 0.0, device.dispersion.coeffs_by_width[WIDTH][2]],
                         window=(600.0, 2400.0))
    wide = Device(dispersion=model, ring=device.ring)
    with partial_sweep():
        match = matching.find_triple_resonance(wide, constraints)[0]
    # The bare ring leaves the pump uncoupled; the channel needs a coupled pump.
    match = dataclasses.replace(match, pump=dataclasses.replace(
        match.pump, kappa_ex=match.pump.kappa_0))
    assert width_key(WIDTH) in cfg["physics"]["fwm_companion_detuning_THz_by_width"]
    channel, source = builders.fwm_channel_at(cfg, wide, match)
    assert source == "comb"
    assert channel.delta_comp == matching.companion_detuning(wide, match)


def test_fwm_channel_reads_the_table_for_the_packaged_config(cfg):
    device, matches = builders.operating_point(cfg)
    assert device.width_nm == 1500.0
    channel, source = builders.fwm_channel_at(cfg, device, matches[0])
    assert source == "table"
    assert channel.delta_comp == TWO_PI * 1.0e12


@pytest.mark.parametrize("width", [1400.0, 1500.0, 1600.0])
def test_fwm_channel_perturbs_the_conversion_system_of_its_match(cfg, width):
    """One pump per operating point: the noise reads the system convert reads."""
    device, matches = builders.operating_point(cfg, width_nm=width)
    channel, _ = builders.fwm_channel_at(cfg, device, matches[0])
    assert channel.system == builders.build_twm_system(cfg, matches[0])


def test_fwm_channel_without_comb_line_or_table_entry_is_unmatched(cfg):
    device, matches = builders.operating_point(cfg)
    bare = _edited(cfg, ("physics", "fwm_companion_detuning_THz_by_width"),
                   lambda table: {k: v for k, v in table.items() if k != "1500"})
    with pytest.raises(UnmatchedVariant, match="^width 1500 nm: companion line outside "
                                               "window and no table entry$"):
        builders.fwm_channel_at(bare, device, matches[0])


@pytest.mark.parametrize("build", [
    lambda cfg, match: builders.build_device(cfg),
    lambda cfg, match: builders.build_twm_system(cfg, match),
    lambda cfg, match: builders.build_fwm_channel(cfg, match, TWO_PI * 1.0e12),
], ids=["device", "twm-system", "fwm-channel"])
def test_every_reader_of_the_calibration_refuses_a_config_without_one(cfg, build):
    bare = copy.deepcopy(cfg)
    del bare["calibration"]
    _, matches = builders.operating_point(bare, with_coupler=False)
    with pytest.raises(ConfigError, match=r"^no calibration block in the config; run the "
                                          r"`calibrate` experiment first$"):
        build(bare, matches[0])
