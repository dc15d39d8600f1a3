"""The experiments' shared operating-point pipeline and runtime imports."""

import subprocess
import sys

import pytest

from qfcring import builders, matching
from qfcring.experiments import run_experiment

from conftest import src_env

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
