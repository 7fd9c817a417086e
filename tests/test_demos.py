"""The demo scripts run to completion as a reader would start them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    pytest.param("market_round_walkthrough.py", [], id="walkthrough"),
    pytest.param("run_all_scenarios.py", ["--days", "2"], id="all-scenarios"),
    pytest.param("ev_day_in_the_life.py", [], id="ev-day"),
])
def test_demo_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
