"""The exit contract of the commands, over a fixed list of numeric inputs.

Every run goes through ``cli.main`` in process and must return 0, 2 or 3;
a run that fails writes nothing on stdout and exactly one JSON line on
stderr, and a run that succeeds writes nothing on stderr. The values are
drawn once, log-uniform over [1e-320, 1e308] with both signs, from a seeded
``random.Random``, plus 0, the least subnormal, nan and +-inf. They do not
come from hypothesis, which mixes the numeric literals of the loaded
modules into its draws, so an edit to ``src`` would re-draw them.

The ``oracle`` runs take only inputs outside its domain, which it rejects
before it simulates anything. ``calibrate`` runs on a small day of quotes
priced by the model, with one field of the equity block edited.
``fit-rates`` and ``estimate-equity`` run on a small treasury curve and
two 40-day histories, with one flag or one CSV cell set to each value.

Two contracts close the file: every float flag takes a negative number in
exponent form as a value, and every error class exits with the code the
table of ``credeq.errors`` gives it.
"""

import argparse
import datetime as dt
import json
import math
import random

import pytest

from credeq import cli, errors
from credeq.cli import build_parser, main
from credeq.market_data import save_bonds_csv, save_options_csv
from credeq.pricing import CreditParams

from conftest import (
    BOND_MATURITIES,
    ROUNDTRIP_GRID,
    SURFACE_COEFFS,
    SURFACE_EQUITY,
    SURFACE_VASICEK,
    make_bond_quotes,
    make_option_quotes,
)


def _values():
    rng = random.Random(14)
    lo, hi = math.log(1e-320), math.log(1e308)
    magnitudes = [math.exp(rng.uniform(lo, hi)) for _ in range(8)]
    return [0.0, 5e-324, math.nan, math.inf, -math.inf] + magnitudes + [-m for m in magnitudes]


VALUES = _values()

FIT = {
    "vasicek": {"alpha": 0.0063, "beta": 0.1034, "eta": 0.012, "r": 0.0476},
    "equity": {"x": 8.04, "sigma2": 0.2576, "rho1": -0.0327, "sigma1": 0.2576, "q": 0.01},
    "credit": {"l": 0.3, "lam": 0.05},
    "corrections": {"v1": 0.996, "v2": -0.0014, "v3": 0.0009, "v4": 0.0104, "v5": -0.6514,
                    "v6": 0.334, "w1": -0.1837, "w2": -0.0001},
}
FIELDS = [(block, name) for block, values in FIT.items() for name in values]

# The commands a fit runs through, with their flags; "{}" marks where a flag value goes.
COMMANDS = {
    "price-call": ["price", "--kind", "call", "--strike={}", "--maturity=0.5"],
    "price-call-maturity": ["price", "--kind", "call", "--strike=8", "--maturity={}"],
    "price-put": ["price", "--kind", "put", "--strike={}", "--maturity=0.5"],
    "price-put-maturity": ["price", "--kind", "put", "--strike=8", "--maturity={}"],
    "price-bond": ["price", "--kind", "bond", "--maturity={}"],
    "cds-curve": ["cds-curve", "--maturities={}"],
    "cds-series": ["cds-series", "--maturity={}"],
    "ivol-surface-maturity": ["ivol-surface", "--grid={}x7,9"],
    "ivol-surface-strike": ["ivol-surface", "--grid=0.25,1x{}"],
}
FIT_COMMANDS = [
    ["price", "--kind", "call", "--strike=8", "--maturity=0.5"],
    ["ivol-surface", "--grid=0.25,1x7,9"],
    ["cds-curve", "--maturities=1..10"],
]

# Each asks the oracle for more work than its domain allows (a step count past the
# float range included), or for a schedule past MAX_PAYMENTS.
ORACLE_OUT_OF_DOMAIN = [
    ["--instrument", "bond", "--maturity", "1", "--paths", "1000000000000"],
    ["--instrument", "bond", "--maturity", "1", "--paths", "1" + "0" * 400],
    ["--instrument", "call", "--strike", "8", "--maturity", "10", "--paths", "100000",
     "--eps", "0.1", "--steps-per-year", "1000000000"],
    ["--instrument", "bond", "--maturity", "1", "--eps", "0.1", "--steps-per-year",
     "1" + "0" * 400],
    ["--instrument", "bond", "--maturity", "1e308", "--eps", "0.1"],
    ["--instrument", "cds", "--maturity", "10000", "--paths", "20000"],
    ["--instrument", "cds", "--maturity", "1e308"],
]


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        assert set(json.loads(lines[0])) == {"error", "message"}, (argv, err)
    else:
        assert err == "", (argv, err)
    return code


def write_fit(path, fit):
    path.write_text(json.dumps(fit), encoding="utf-8")  # nan and inf as NaN and Infinity
    return str(path)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_numeric_flags(tmp_path, capsys, command):
    fit_path = write_fit(tmp_path / "2006-09-18.json", FIT)
    name, *flags = COMMANDS[command]
    source = ["--fits-dir", str(tmp_path)] if name == "cds-series" else ["--fit", fit_path]
    for value in VALUES:
        run(capsys, [name, *source, *(f.format(repr(value)) for f in flags)])


@pytest.mark.parametrize("block, name", FIELDS, ids=[f"{b}.{n}" for b, n in FIELDS])
def test_fit_fields(tmp_path, capsys, block, name):
    for value in VALUES:
        fit = json.loads(json.dumps(FIT))
        fit[block][name] = value
        fit_path = write_fit(tmp_path / "fit.json", fit)
        for command, *flags in FIT_COMMANDS:
            run(capsys, [command, "--fit", fit_path, *flags])


def test_oracle_out_of_domain(tmp_path, capsys):
    fit_path = write_fit(tmp_path / "fit.json", FIT)
    for argv in ORACLE_OUT_OF_DOMAIN:
        assert run(capsys, ["oracle", "--fit", fit_path, *argv]) == 2, argv


@pytest.fixture
def calibration_day(tmp_path):
    """Five bonds and the options of three maturities; returns the calibrate argv head."""
    credit = CreditParams(l=0.3, lam=0.05)
    bonds = make_bond_quotes(SURFACE_VASICEK, credit, SURFACE_COEFFS, BOND_MATURITIES[::3])
    grid = [row for row in ROUNDTRIP_GRID if row[0] in (0.04, 0.1, 0.3)]
    options = make_option_quotes(SURFACE_VASICEK, SURFACE_EQUITY, credit.lam, SURFACE_COEFFS,
                                 grid, skip_nonpositive=True)
    save_bonds_csv(tmp_path / "bonds.csv", bonds)
    save_options_csv(tmp_path / "options.csv", options)
    return ["calibrate", "--bonds", str(tmp_path / "bonds.csv"),
            "--options", str(tmp_path / "options.csv")]


def write_params(path, name, value):
    return write_fit(path, {"vasicek": FIT["vasicek"], "equity": dict(FIT["equity"], **{name: value})})


@pytest.mark.parametrize("name", list(FIT["equity"]))
def test_calibrate_equity_fields(tmp_path, capsys, calibration_day, name):
    assert run(capsys, [*calibration_day, "--params",
                        write_params(tmp_path / "params.json", name, FIT["equity"][name])]) == 0
    for value in VALUES:
        run(capsys, [*calibration_day, "--params", write_params(tmp_path / "params.json", name,
                                                                 value)])


@pytest.mark.parametrize("x", [1e-321, 1e-300])
def test_calibrate_tiny_spot_names_it(tmp_path, capsys, calibration_day, x):
    # The vega floor 1e-4 * x underflows to 0 at 1e-321; at 1e-300 the weights
    # 1 / floor put the weighted option residuals past the float range.
    code = main([*calibration_day, "--params", write_params(tmp_path / "params.json", "x", x)])
    out, err = capsys.readouterr()
    assert code in (2, 3) and out == ""
    [line] = err.splitlines()
    assert f"x = {x!r}" in json.loads(line)["message"]


# A treasury curve and two 40-day histories, as CSV rows; each test sets one
# flag or one cell to every value of VALUES.
TREASURY = [(0.25, 0.049), (1.0, 0.05), (2.0, 0.051), (5.0, 0.053), (10.0, 0.054)]
DAYS = [dt.date(2006, 1, 2) + dt.timedelta(days=k) for k in range(40)]
STOCK = [8.0 * math.exp(0.02 * math.sin(k)) for k in range(40)]
SPOT_RATES = [0.05 + 1e-3 * math.cos(k / 3.0) for k in range(40)]


def write_csv(path, header, rows):
    path.write_text("\n".join([header] + [f"{a},{b!r}" for a, b in rows]) + "\n",
                    encoding="utf-8")
    return str(path)


def write_treasury(path, row=None, column=None, value=None):
    rows = [list(r) for r in TREASURY]
    if row is not None:
        rows[row][column] = value
    return write_csv(path, "maturity_years,yield", [(repr(s), y) for s, y in rows])


def write_history(path, values, cell=None, value=None):
    values = list(values)
    if cell is not None:
        values[cell] = value
    return write_csv(path, "date,value", [(d.isoformat(), v) for d, v in zip(DAYS, values)])


def test_fit_rates_r_proxy(tmp_path, capsys):
    path = write_treasury(tmp_path / "treasury.csv")
    assert run(capsys, ["fit-rates", "--treasury", path]) == 0
    # +-1e308 too: the largest of VALUES keeps the r term b*r of the yields in range.
    for value in VALUES + [1e308, -1e308]:
        run(capsys, ["fit-rates", "--treasury", path, f"--r-proxy={value!r}"])


# The middle yield, and the last maturity (the one any larger value keeps increasing).
@pytest.mark.parametrize("row, column", [(2, 1), (4, 0)], ids=["yield", "maturity"])
def test_fit_rates_cells(tmp_path, capsys, row, column):
    for value in VALUES:
        run(capsys, ["fit-rates", "--treasury",
                     write_treasury(tmp_path / "treasury.csv", row, column, value)])


def estimate_equity(tmp_path, stock_cell=None, rate_cell=None, value=None):
    return ["estimate-equity",
            "--stock", write_history(tmp_path / "stock.csv", STOCK, stock_cell, value),
            "--spot-rate", write_history(tmp_path / "rates.csv", SPOT_RATES, rate_cell, value)]


@pytest.mark.parametrize("flag", ["--spot", "--dividend-yield"])
def test_estimate_equity_flags(tmp_path, capsys, flag):
    argv = estimate_equity(tmp_path)
    assert run(capsys, argv) == 0
    for value in VALUES:
        run(capsys, [*argv, f"{flag}={value!r}"])


@pytest.mark.parametrize("series", ["stock", "spot-rate"])
def test_estimate_equity_cells(tmp_path, capsys, series):
    cell = {"stock_cell": 20} if series == "stock" else {"rate_cell": 20}
    for value in VALUES:
        run(capsys, estimate_equity(tmp_path, value=value, **cell))


def float_flags():
    """(command, flag) for every flag of every command that takes a float."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, p in sub.choices.items()
            for a in p._actions if a.type is float]


FLOAT_FLAGS = float_flags()


def command_args(tmp_path, name):
    """A run of command ``name`` with a value for each of its float flags, as flag -> value."""
    fit_path = write_fit(tmp_path / "2006-09-18.json", FIT)
    return {
        "fit-rates": {"--treasury": write_treasury(tmp_path / "treasury.csv"),
                      "--r-proxy": "0.05"},
        "estimate-equity": {"--stock": write_history(tmp_path / "stock.csv", STOCK),
                            "--spot-rate": write_history(tmp_path / "rates.csv", SPOT_RATES),
                            "--spot": "8", "--dividend-yield": "0.01"},
        "price": {"--fit": fit_path, "--kind": "call", "--strike": "8", "--maturity": "0.5"},
        "cds-series": {"--fits-dir": str(tmp_path), "--maturity": "5"},
        "oracle": {"--fit": fit_path, "--instrument": "call", "--strike": "8",
                   "--maturity": "0.5", "--paths": "10000", "--eps": "0.1", "--dlt": "0.5"},
    }[name]


def test_float_flags_are_listed():
    assert FLOAT_FLAGS == [
        ("fit-rates", "--r-proxy"), ("estimate-equity", "--spot"),
        ("estimate-equity", "--dividend-yield"), ("price", "--strike"), ("price", "--maturity"),
        ("cds-series", "--maturity"), ("oracle", "--strike"), ("oracle", "--maturity"),
        ("oracle", "--eps"), ("oracle", "--dlt"),
    ]


@pytest.mark.parametrize("name, flag", FLOAT_FLAGS,
                         ids=[f"{name}{flag}" for name, flag in FLOAT_FLAGS])
def test_negative_exponent_is_a_value(tmp_path, capsys, name, flag):
    # repr writes every float below 1e-4 in magnitude in exponent form, and
    # argparse's own negative-number pattern has no exponent.
    args = command_args(tmp_path, name)
    head = [name] + [s for f, value in args.items() if f != flag for s in (f, value)]
    outcomes = []
    for tail in ([flag, "-1e-05"], [f"{flag}=-1e-05"]):
        code = main([*head, *tail])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def exit_table():
    """Class name -> CLI exit code, as the table in ``credeq.errors``' docstring gives them."""
    rows = (line.split() for line in errors.__doc__.splitlines())
    return {row[0]: int(row[1]) for row in rows if len(row) > 1 and row[1].isdigit()}


def test_exit_table_names_every_error_class():
    assert sorted(exit_table()) == sorted(c.__name__ for c in errors.CredeqError.__subclasses__())


@pytest.mark.parametrize("cls", errors.CredeqError.__subclasses__(), ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, cls):
    def fail(args):
        raise cls("raised by the test")

    monkeypatch.setattr(cli, "cmd_price", fail)
    code = main(["price", "--fit", "fit.json", "--kind", "bond", "--maturity", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (exit_table()[cls.__name__], "")
    [line] = err.splitlines()
    assert json.loads(line) == {"error": cls.__name__, "message": "raised by the test"}
