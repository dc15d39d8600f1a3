"""The documented entry points: every narrative demo runs from a foreign directory and
prints its committed transcript, the README's library quickstart runs as written, and
`import qfcring` alone loads nothing but the package."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRANSCRIPTS = ROOT / "tests" / "golden" / "demos"
README = ROOT / "README.md"


def transcript_rule():
    """scripts/make_goldens.py's `transcript`, the one rule for what a transcript keeps."""
    spec = importlib.util.spec_from_file_location("make_goldens", ROOT / "scripts" / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    return make_goldens.transcript


def test_all_demos_collected():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in TRANSCRIPTS.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=src_env())
    assert proc.returncode == 0, proc.stderr
    # regenerate with scripts/make_goldens.py when a demo's output changes on purpose
    expected = (TRANSCRIPTS / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert transcript_rule()(proc.stdout) == expected


def quickstart_block():
    """The python block under the README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library quickstart\n+```python\n(.*?)^```", text, re.S | re.M)
    assert found, "README has no Library quickstart python block"
    return found.group(1)


def test_readme_quickstart_runs_as_written(tmp_path):
    report = "\nimport json\nprint(json.dumps({'p1': p1, 'r1': r1, 'source': source}))\n"
    proc = subprocess.run([sys.executable, "-c", quickstart_block() + report],
                          capture_output=True, text=True, cwd=tmp_path, env=src_env())
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    # the block's inline claims: ~1 mW, < 0.1 noise photons/s, "table"
    assert 0.5e-3 <= got["p1"] <= 2e-3
    assert got["r1"] < 0.1
    assert got["source"] == "table"


def test_package_import_loads_no_submodule_and_no_numpy():
    """The package root binds only __version__; every other name lives in its module."""
    probe = ("import json, sys, qfcring; print(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] in ('numpy', 'qfcring'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["qfcring"]
