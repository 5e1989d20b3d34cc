"""What a CLI command imports: scipy.optimize never, and the pricing commands no scipy at all.

Each check runs in a fresh interpreter, so modules loaded by other tests do
not count. Only module presence is asserted, never timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import credeq
from credeq.calibration import ModelFit
from credeq.pricing import CreditParams

from conftest import SURFACE_COEFFS, SURFACE_EQUITY, SURFACE_VASICEK

CHILD = """
import contextlib, io, json, sys
import credeq
import credeq.cli
after_import = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(credeq.cli.main(argv))
after_commands = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_commands": after_commands}))
"""


def run_child(commands):
    src = str(Path(credeq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy_optimize():
    result = run_child([])
    assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.")
                   for m in result["after_import"])


def test_pricing_commands_load_no_scipy(tmp_path):
    fit = ModelFit(vasicek=SURFACE_VASICEK, equity=SURFACE_EQUITY,
                   credit=CreditParams(l=0.3, lam=0.05), coeffs=SURFACE_COEFFS)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(fit.to_dict()), encoding="utf-8")
    commands = [
        ["price", "--fit", str(path), "--kind", "call", "--strike", "8", "--maturity", "0.5"],
        ["cds-curve", "--fit", str(path), "--maturities", "1..10"],
        ["ivol-surface", "--fit", str(path), "--grid", "0.25,0.5,1x7,8,9"],
    ]
    result = run_child(commands)
    assert result["codes"] == [0, 0, 0]
    assert result["after_commands"] == []
