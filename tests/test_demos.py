"""The demo scripts run to completion.

Each demo runs in a fresh interpreter, as ``python demos/<name>.py`` would.
``mc_validation.py`` runs two 400,000-path simulations of one exact step
each, in about 0.4 seconds on a 2-core machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import credeq

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["pricing_and_smile.py", "joint_calibration.py", "cds_curves.py",
                                  "mc_validation.py"])
def test_demo_exits_0(name):
    src = str(Path(credeq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
