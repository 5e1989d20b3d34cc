"""What a CLI command imports: each command loads only what it runs.

``import credeq.cli`` and the pricing commands (``price``, ``cds-curve``,
``ivol-surface``) run on floats and load neither NumPy nor scipy; the
calibration commands (``fit-rates``, ``calibrate``) load NumPy but no scipy.

Each check runs in a fresh interpreter, so modules loaded by other tests do
not count. Only module presence is asserted, never timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import credeq
from credeq.calibration import ModelFit
from credeq.corrections import CorrectionParams
from credeq.market_data import TreasuryCurve, save_bonds_csv, save_options_csv, save_treasury_csv
from credeq.pricing import CreditParams
from credeq.rates import vasicek_yield

from conftest import (
    INDEX_EQUITY,
    INDEX_VASICEK,
    ROUNDTRIP_GRID,
    SURFACE_COEFFS,
    SURFACE_EQUITY,
    SURFACE_VASICEK,
    TRUE_LAMBDA,
    TRUE_LOSS,
    make_bond_quotes,
    make_option_quotes,
)

CHILD = """
import contextlib, io, json, sys

def loaded(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)

import credeq
import credeq.cli
after_import = loaded("numpy", "scipy")
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(credeq.cli.main(argv))
print(json.dumps({"after_import": after_import, "codes": codes,
                  "numpy": loaded("numpy"), "scipy": loaded("scipy")}))
"""


def run_child(commands):
    src = str(Path(credeq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_params(path, vasicek, equity):
    path.write_text(json.dumps({
        "vasicek": {"alpha": vasicek.alpha, "beta": vasicek.beta, "eta": vasicek.eta,
                    "r": vasicek.r},
        "equity": {"x": equity.x, "sigma2": equity.sigma2, "rho1": equity.rho1,
                   "q": equity.q},
    }), encoding="utf-8")
    return path


@pytest.fixture
def fit_json(tmp_path):
    fit = ModelFit(vasicek=SURFACE_VASICEK, equity=SURFACE_EQUITY,
                   credit=CreditParams(l=0.3, lam=0.05), coeffs=SURFACE_COEFFS)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(fit.to_dict()), encoding="utf-8")
    return path


def pricing_commands(path):
    return [
        ["price", "--fit", str(path), "--kind", "call", "--strike", "8", "--maturity", "0.5"],
        ["cds-curve", "--fit", str(path), "--maturities", "1..10"],
        ["ivol-surface", "--fit", str(path), "--grid", "0.25,0.5,1x7,8,9"],
    ]


def test_import_loads_no_scipy_optimize():
    # Nor any other part of NumPy or scipy.
    assert run_child([])["after_import"] == []


def test_pricing_commands_load_no_scipy(fit_json):
    result = run_child(pricing_commands(fit_json))
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == [] and result["numpy"] == []


def test_calibration_commands_load_no_scipy(tmp_path):
    curve = TreasuryCurve(points=tuple(
        (s, vasicek_yield(SURFACE_VASICEK, s)) for s in (1 / 12, 0.25, 0.5, 1, 2, 3, 5, 7, 10)))
    save_treasury_csv(tmp_path / "treasury.csv", curve)

    credit = CreditParams(l=TRUE_LOSS, lam=TRUE_LAMBDA)
    save_bonds_csv(tmp_path / "bonds.csv",
                   make_bond_quotes(SURFACE_VASICEK, credit, SURFACE_COEFFS))
    save_options_csv(tmp_path / "options.csv", make_option_quotes(
        SURFACE_VASICEK, SURFACE_EQUITY, TRUE_LAMBDA, SURFACE_COEFFS, ROUNDTRIP_GRID,
        skip_nonpositive=True))
    params = write_params(tmp_path / "params.json", SURFACE_VASICEK, SURFACE_EQUITY)

    truth = CorrectionParams(v1=4e-4, v2=-6e-5, v4=2e-5, v5=-8e-4, v6=3e-4)
    grid = [(t, m, "call") for t in (0.25, 0.5, 1.0, 2.0) for m in (0.9, 1.0, 1.1)]
    save_options_csv(tmp_path / "spx.csv",
                     make_option_quotes(INDEX_VASICEK, INDEX_EQUITY, 0.0, truth, grid))
    index_params = write_params(tmp_path / "index.json", INDEX_VASICEK, INDEX_EQUITY)

    result = run_child([
        ["fit-rates", "--treasury", str(tmp_path / "treasury.csv")],
        ["calibrate", "--bonds", str(tmp_path / "bonds.csv"),
         "--options", str(tmp_path / "options.csv"), "--params", str(params),
         "--variant", "seven"],
        ["calibrate", "--options", str(tmp_path / "spx.csv"), "--params", str(index_params),
         "--variant", "index"],
    ])
    assert result["codes"] == [0, 0, 0]
    assert result["numpy"] and result["scipy"] == []
