"""Smoke test: every demo script runs to completion and passes its own
checks (each exits nonzero on a failed check)."""

import os
import subprocess
import sys

import pytest

from conftest import ROOT

DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
