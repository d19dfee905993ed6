"""Each script under scripts/ imports and parses its arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["run_two_stage.py", "run_ablation.py",
                                    "sweep_alignment.py", "diff_runs.py",
                                    "identity_runs.py"])
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ("--rtol" if script == "diff_runs.py" else "--out") in proc.stdout
