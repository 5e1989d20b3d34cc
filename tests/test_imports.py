"""What the library imports: NumPy at most, never scipy.

``import credeq.cli`` and the pricing commands (``price``, ``cds-curve``,
``ivol-surface``) run on floats and load neither NumPy nor scipy; the
calibration commands (``fit-rates``, ``calibrate``) and the Monte-Carlo
``oracle`` (constant or multiscale factors) load NumPy but no scipy. scipy
is a test dependency only, and no module of ``credeq`` imports it. Only
``oracle`` loads ``credeq.oracle_mc``. No command loads a ``concurrent``
module, and after every command, as after the import, one thread is left:
the oracle runs on the calling thread. The package re-exports nothing, so
importing one of its modules runs only the modules that one imports.

Each command check runs in a fresh interpreter, so modules loaded by other
tests do not count. Only module presence and thread counts are asserted,
never timings.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
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
import contextlib, io, json, sys, threading

def loaded(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)

import credeq
import credeq.cli
after_import = loaded("numpy", "scipy", "concurrent")
oracle_after_import = "credeq.oracle_mc" in sys.modules
threads_after_import = threading.active_count()
codes, concurrent, oracle, threads = [], [], [], []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(credeq.cli.main(argv))
        concurrent.append(loaded("concurrent"))
        oracle.append("credeq.oracle_mc" in sys.modules)
        threads.append(threading.active_count())
print(json.dumps({"after_import": after_import, "oracle_after_import": oracle_after_import,
                  "threads_after_import": threads_after_import,
                  "codes": codes, "numpy": loaded("numpy"), "scipy": loaded("scipy"),
                  "concurrent": concurrent, "oracle": oracle, "threads": threads}))
"""


WRAPPERS_CHILD = """
import json, sys

def loaded(root):
    return sorted(m for m in sys.modules if m.split(".")[0] == root)

import credeq.pricing as pr
after_import = loaded("credeq")
from credeq.rates import EquityParams, VasicekParams
va = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
eq = EquityParams(x=8.04, sigma2=0.2576, rho1=-0.0327, q=0.01)
pin = pr.PricingInputs(va, eq, pr.CreditParams(l=0.4, lam=0.03), 0.5, 8.0)
prices = [pr.call_p0(pin), pr.put_p0(pin), pr.defaultable_bond_p0(pin)]
print(json.dumps({"prices": prices, "after_import": after_import,
                  "after_prices": loaded("credeq"), "numpy": loaded("numpy")}))
"""

IMPLIED_VOL_CHILD = """
import json
import credeq.implied_vol as m
print(json.dumps({"type": type(m).__name__, "model_quote": hasattr(m, "model_quote")}))
"""


def run_child(commands, code=CHILD):
    src = str(Path(credeq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
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


def test_exports_resolve():
    # A stale name left in __all__ breaks only a star import, so nothing else would catch it.
    for info in pkgutil.iter_modules(credeq.__path__):
        module = importlib.import_module(f"credeq.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name
        exec(f"from credeq.{info.name} import *", {})


def test_implied_vol_is_the_module():
    # The package re-exports nothing, so no function shadows the module of the same name.
    assert run_child([], IMPLIED_VOL_CHILD) == {"type": "module", "model_quote": True}


def test_no_library_module_imports_scipy():
    package = Path(credeq.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_import_loads_no_scipy_optimize():
    # Nor any other part of NumPy or scipy, nor concurrent.futures, and it starts no thread.
    result = run_child([])
    assert result["after_import"] == []
    assert result["oracle_after_import"] is False
    assert result["threads_after_import"] == 1


def test_pricing_wrappers_run_on_floats():
    # A fresh interpreter imports credeq.pricing first: its wrappers import the
    # kernel only when called, so there is no import cycle, and a price loads no NumPy.
    result = run_child([], WRAPPERS_CHILD)
    assert all(type(p) is float and p > 0 for p in result["prices"])
    assert result["numpy"] == []


def test_pricing_loads_only_its_own_imports():
    # Importing one module runs no other module of the package; the wrappers add the kernel.
    result = run_child([], WRAPPERS_CHILD)
    assert result["after_import"] == ["credeq", "credeq.errors", "credeq.pricing", "credeq.rates"]
    assert result["after_prices"] == ["credeq", "credeq.corrections", "credeq.errors",
                                      "credeq.pricing", "credeq.rates"]


def _credeq_names(path):
    """Every ``credeq`` module attribute a script names, as dotted paths, found with ast.

    Covers ``import credeq.X``, ``from credeq.X import Y`` (with or without
    ``as``), ``importlib.import_module("credeq.X")`` bound to a name, and
    attribute chains off any of those names.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "credeq":
                    names.add(alias.name)
                    bound[alias.asname or "credeq"] = alias.name if alias.asname else "credeq"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "credeq":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "attr", None) == "import_module"
              and isinstance(node.value.args[0], ast.Constant)
              and node.value.args[0].value.startswith("credeq")):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = node.value.args[0].value
            names.add(node.value.args[0].value)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id]] + chain))
    return names


def _resolves(dotted):
    """Whether each step of ``dotted`` exists, up to the first object that is not a module."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not isinstance(obj, types.ModuleType):
            break
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def test_names_the_bench_and_demos_use_resolve():
    repo = Path(__file__).resolve().parent.parent
    scripts = sorted((repo / "bench").glob("*.py")) + sorted((repo / "demos").glob("*.py"))
    used = {(path.relative_to(repo).as_posix(), name)
            for path in scripts for name in _credeq_names(path)}
    # The scan reaches the calls the bench makes through module aliases.
    assert ("bench/mc_oracle.py", "credeq.pricing.call_p0") in used
    missing = sorted((script, name) for script, name in used if not _resolves(name))
    assert missing == []


def test_pricing_commands_load_no_scipy(fit_json):
    result = run_child(pricing_commands(fit_json))
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == [] and result["numpy"] == []
    assert result["concurrent"] == [[], [], []]
    assert result["oracle"] == [False, False, False]
    assert result["threads"] == [1, 1, 1]


@pytest.mark.parametrize("factors", [[], ["--eps", "0.09"]], ids=["constant", "multiscale"])
def test_oracle_loads_no_scipy(fit_json, factors):
    result = run_child([["oracle", "--fit", str(fit_json), "--instrument", "call",
                         "--strike", "8", "--maturity", "0.1", "--paths", "10000"] + factors])
    assert result["codes"] == [0]
    assert result["numpy"] and result["scipy"] == []
    assert result["oracle"] == [True]
    # It steps its paths on the calling thread.
    assert result["concurrent"] == [[]]
    assert result["threads"] == [1]


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
    # They load NumPy anyway, so only this shows that they leave the oracle out.
    assert result["oracle"] == [False, False, False]
    assert result["concurrent"] == [[], [], []]
    assert result["threads"] == [1, 1, 1]
