"""Every narrative script under demos/ runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_protocol_round_loop.py"}


@pytest.mark.parametrize(
    "demo",
    [pytest.param(d, marks=pytest.mark.slow) if d.name in SLOW else d for d in DEMOS],
    ids=[d.stem for d in DEMOS],
)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
