"""The experiments' shared operating-point pipeline, output writer and runtime imports."""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcring import __version__, builders, matching
from qfcring.config import config_hash, default_config
from qfcring.errors import ConfigError
from qfcring.experiments import _CONVENTIONS, _Outputs, run_experiment

from conftest import assert_outputs_agree, src_env

GOLDEN = Path(__file__).parent / "golden"

# Widths each experiment sweeps with the packaged config.
SWEPT_WIDTHS = {
    "spectrum": [1500.0],
    "couplings": [1500.0],
    "match": [1500.0],
    "convert": [1500.0],
    "noise": [1500.0],
    "tradeoff": [1400.0, 1500.0, 1600.0],
    "calibrate": [1400.0, 1500.0, 1600.0],
}


@pytest.mark.parametrize("name", list(SWEPT_WIDTHS))
def test_one_verified_sweep_per_width(cfg, tmp_path, monkeypatch, name):
    swept, verified = [], []
    real_find, real_verify = matching.find_triple_resonance, matching.verify_match

    def counting_find(device, constraints):
        results = real_find(device, constraints)
        swept.append((device.width_nm, results[0]))
        return results

    def counting_verify(device, result, *args, **kwargs):
        verified.append(result)
        return real_verify(device, result, *args, **kwargs)

    for module in (builders, matching):
        monkeypatch.setattr(module, "find_triple_resonance", counting_find)
        monkeypatch.setattr(module, "verify_match", counting_verify)
    run_experiment(name, cfg, str(tmp_path))
    assert sorted(width for width, _ in swept) == SWEPT_WIDTHS[name]
    for width, best in swept:
        assert any(v is best for v in verified), f"width {width:g} nm not verified"


def test_runtime_leaves_scipy_unimported(tmp_path):
    code = (
        "import sys\n"
        "import qfcring\n"
        "from qfcring.config import default_config\n"
        "from qfcring.experiments import run_experiment\n"
        f"run_experiment('match', default_config(), {str(tmp_path / 'out')!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# JSON values whose encoding has corners: escapes, non-ASCII text, empty
# containers, -0.0, the smallest subnormal and a float near the top of range.
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, 1e308, "", '"', "\\", "\n", "a\"b\\c\nd",
                               "µm λ → ∞", "\u2028\x00"])
            | st.text())
_JSON = st.recursive(_SCALARS, lambda children: st.lists(children, max_size=4)
                     | st.dictionaries(st.text(max_size=6), children, max_size=4),
                     max_leaves=20)
_FIELD_NAMES = st.text(min_size=1, max_size=8) | st.sampled_from(
    ["output", "experiment", "resolved_config", "config_hash", "conventions"])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(resolved=st.dictionaries(st.text(max_size=6), _JSON, max_size=4),
       fields=st.dictionaries(_FIELD_NAMES, _JSON, max_size=5))
def test_record_is_the_indented_json_of_the_whole_record(resolved, fields):
    with tempfile.TemporaryDirectory() as out_dir:
        _Outputs("convert", resolved, out_dir).record("r.json", **fields)
        written = (Path(out_dir) / "r.json").read_bytes()
    base = {"config_hash": config_hash(resolved), "tool_version": __version__,
            "experiment": "convert", "resolved_config": resolved, "conventions": _CONVENTIONS}
    expected = json.dumps({**base, **fields}, sort_keys=True, indent=2) + "\n"
    assert written == expected.encode("utf-8")


@pytest.mark.parametrize("n_rows", [1, 127, 128, 129, 2001])
@pytest.mark.parametrize("n_cols", range(1, 7))
def test_table_body_matches_the_per_row_format(tmp_path, n_rows, n_cols):
    rng = np.random.default_rng(n_rows * 10 + n_cols)
    rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    rows.flat[:4] = [np.nan, np.inf, -np.inf, -0.0][:rows.size]
    header = [f"c{i}" for i in range(n_cols)]
    _Outputs("convert", {}, str(tmp_path)).table("t", header, rows)
    line = ",".join(["%.12g"] * n_cols) + "\n"
    expected = ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows.tolist())
    assert (tmp_path / "t.csv").read_bytes() == expected.encode("utf-8")


def test_each_sidecar_carries_its_own_resolved_config(tmp_path):
    cfg_a = default_config()
    cfg_b = default_config()
    cfg_b["experiment"]["mzi_sweep_points"] += 1
    cfg_a_changed = copy.deepcopy(cfg_a)
    cfg_a_changed["experiment"]["dc_grid_points"] += 1
    runs = [cfg_a, cfg_b, cfg_a, cfg_a_changed]
    hashes = [config_hash(c) for c in runs]
    assert hashes[0] == hashes[2] and len(set(hashes)) == 3
    for i, run_cfg in enumerate(runs):
        out_dir = tmp_path / str(i)
        run_experiment("couplings", run_cfg, str(out_dir))
        for name in ("dc_cross.meta.json", "coupling_ratios.meta.json"):
            meta = json.loads((out_dir / name).read_text())
            assert meta["resolved_config"] == run_cfg, (i, name)
            assert meta["config_hash"] == hashes[i], (i, name)


@pytest.mark.parametrize("name", ["nope", "Match", "", "calibrated_config"])
def test_unknown_experiment_is_refused_before_any_output(cfg, tmp_path, name):
    out_dir = tmp_path / "out"
    with pytest.raises(ConfigError, match=rf"^unknown experiment '{name}'; choose one of "
                                          "spectrum, couplings, match, convert, noise, "
                                          "tradeoff, calibrate$"):
        run_experiment(name, cfg, str(out_dir))
    assert not out_dir.exists()


@pytest.mark.parametrize("run, identities", [
    ("default_run", {"convert", "noise", "couplings", "combs", "operating point"}),
    ("planted_match", {"combs"}),  # the planted fixture runs `match` alone
])
def test_golden_runs_agree_across_experiments(run, identities):
    assert assert_outputs_agree(GOLDEN / run) == identities


@pytest.mark.xfail(strict=True, reason="ROADMAP item 26: the coupled ring resonates "
                                       "-arg(M11)/2pi FSR from the matched (bare-ring) lines")
def test_spectrum_dips_sit_at_the_matched_lines():
    best = json.loads((GOLDEN / "default_run" / "match.json").read_text())["best"]
    for role in ("pump", "signal", "idler"):
        rows = np.loadtxt(GOLDEN / "default_run" / f"spectrum_{role}.csv", delimiter=",",
                          skiprows=1)
        dip = rows[np.argmin(rows[:, 1]), 0]
        assert abs(dip - best[role]["wavelength_nm"]) <= np.max(np.diff(rows[:, 0])), role
