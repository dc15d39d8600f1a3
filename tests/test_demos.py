"""Every narrative demo runs from a foreign directory and prints its committed transcript."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRANSCRIPTS = ROOT / "tests" / "golden" / "demos"


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
