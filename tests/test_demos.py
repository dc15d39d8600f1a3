"""Smoke test: every narrative demo runs to completion from a foreign directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=src_env())
    assert proc.returncode == 0, proc.stderr
