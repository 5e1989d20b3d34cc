import argparse
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from credeq.cli import build_parser, main
from credeq.market_data import (
    save_bonds_csv,
    save_history_csv,
    save_options_csv,
    save_treasury_csv,
    PriceHistory,
    TreasuryCurve,
)
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import VasicekParams, vasicek_yield

from conftest import (
    INDEX_EQUITY,
    INDEX_VASICEK,
    SURFACE_EQUITY,
    SURFACE_VASICEK,
    TRUE_LAMBDA,
    TRUE_LOSS,
    make_bond_quotes,
    make_option_quotes,
    ROUNDTRIP_GRID,
    SURFACE_COEFFS,
)
from reference_oracles import call_p0
from test_rates import business_days


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def fixture_files(tmp_path):
    credit = CreditParams(l=TRUE_LOSS, lam=TRUE_LAMBDA)
    bonds = make_bond_quotes(SURFACE_VASICEK, credit, SURFACE_COEFFS)
    options = make_option_quotes(
        SURFACE_VASICEK, SURFACE_EQUITY, TRUE_LAMBDA, SURFACE_COEFFS,
        ROUNDTRIP_GRID, skip_nonpositive=True,
    )
    bonds_csv = tmp_path / "bonds.csv"
    options_csv = tmp_path / "options.csv"
    save_bonds_csv(bonds_csv, bonds)
    save_options_csv(options_csv, options)
    params = {
        "vasicek": {
            "alpha": SURFACE_VASICEK.alpha,
            "beta": SURFACE_VASICEK.beta,
            "eta": SURFACE_VASICEK.eta,
            "r": SURFACE_VASICEK.r,
        },
        "equity": {
            "x": SURFACE_EQUITY.x,
            "sigma2": SURFACE_EQUITY.sigma2,
            "rho1": SURFACE_EQUITY.rho1,
            "sigma1": SURFACE_EQUITY.sigma1,
            "q": SURFACE_EQUITY.q,
        },
    }
    params_json = tmp_path / "params.json"
    params_json.write_text(json.dumps(params))
    return tmp_path, bonds_csv, options_csv, params_json


class TestFitRates:
    def test_recovers_curve_parameters(self, tmp_path, capsys):
        from conftest import INDEX_VASICEK

        curve = TreasuryCurve(
            points=tuple(
                (s, vasicek_yield(INDEX_VASICEK, s))
                for s in [1 / 12, 0.25, 0.5, 1, 2, 3, 5, 7, 10, 20]
            )
        )
        path = tmp_path / "treasury.csv"
        save_treasury_csv(path, curve)
        # the 1-month yield proxies r to ~1e-4; pass the exact rate so the
        # noise-free identifiability check is meaningful
        code, out, err = run(
            capsys, "fit-rates", "--treasury", str(path),
            "--r-proxy", str(INDEX_VASICEK.r),
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["vasicek"]["beta"] == pytest.approx(INDEX_VASICEK.beta, abs=1e-3)
        assert payload["residual_rmse"] < 1e-7
        assert payload["vasicek"]["r"] == INDEX_VASICEK.r
        assert list(payload) == ["vasicek", "residual_rmse", "at_bound"]
        assert payload["at_bound"] == []

    def test_reports_parameters_at_a_bound(self, tmp_path, capsys):
        # A long-run rate alpha/beta = 0.8 needs alpha beyond its bound of 0.5.
        from credeq.rates import VasicekParams

        truth = VasicekParams(alpha=0.8, beta=1.0, eta=0.05, r=0.05)
        curve = TreasuryCurve(
            points=tuple((s, vasicek_yield(truth, s)) for s in [0.25, 1, 2, 5, 10, 30])
        )
        path = tmp_path / "treasury.csv"
        save_treasury_csv(path, curve)
        code, out, err = run(
            capsys, "fit-rates", "--treasury", str(path), "--r-proxy", str(truth.r)
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["vasicek"]["alpha"] == 0.5
        assert "alpha" in payload["at_bound"]

    def test_default_proxy_is_shortest_yield(self, tmp_path, capsys):
        from conftest import INDEX_VASICEK

        curve = TreasuryCurve(
            points=tuple(
                (s, vasicek_yield(INDEX_VASICEK, s)) for s in [1 / 12, 1, 5, 10, 20]
            )
        )
        path = tmp_path / "treasury.csv"
        save_treasury_csv(path, curve)
        code, out, err = run(capsys, "fit-rates", "--treasury", str(path))
        assert code == 0, err
        assert json.loads(out)["vasicek"]["r"] == curve.points[0][1]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "fit-rates", "--treasury", "no-such.csv")
        assert code == 2
        assert json.loads(err)["error"]


class TestEstimateEquity:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        n = 2000
        days = business_days(n)
        prices = 8.0 * np.exp(np.cumsum(0.38 / math.sqrt(252) * rng.standard_normal(n)))
        rates = 0.05 + np.cumsum(1e-4 * rng.standard_normal(n))
        stock_csv, rates_csv = tmp_path / "stock.csv", tmp_path / "rates.csv"
        save_history_csv(stock_csv, PriceHistory(points=tuple(zip(days, prices))))
        save_history_csv(rates_csv, PriceHistory(points=tuple(zip(days, rates))))
        code, out, err = run(
            capsys, "estimate-equity", "--stock", str(stock_csv),
            "--spot-rate", str(rates_csv), "--dividend-yield", "0.01",
        )
        assert code == 0, err
        eq = json.loads(out)["equity"]
        assert abs(eq["sigma2"] - 0.38) < 0.03
        assert abs(eq["rho1"]) < 0.1
        assert eq["x"] == prices[-1]
        assert eq["q"] == 0.01

    def write_and_run(self, tmp_path, capsys, days, prices, rates):
        stock_csv, rates_csv = tmp_path / "stock.csv", tmp_path / "rates.csv"
        save_history_csv(stock_csv, PriceHistory(points=tuple(zip(days, prices))))
        save_history_csv(rates_csv, PriceHistory(points=tuple(zip(days, rates))))
        return run(capsys, "estimate-equity", "--stock", str(stock_csv),
                   "--spot-rate", str(rates_csv))

    def test_spot_rates_may_touch_and_cross_zero(self, tmp_path, capsys):
        days = business_days(60)
        prices = 8.0 * np.exp(0.01 * np.sin(np.arange(60)))
        rates = 0.002 * np.cos(np.arange(60) / 5.0)
        rates[10] = 0.0
        code, out, err = self.write_and_run(tmp_path, capsys, days, prices, rates)
        assert code == 0, err
        assert abs(json.loads(out)["equity"]["rho1"]) < 1

    @pytest.mark.parametrize("value", [0.0, -8.0])
    def test_non_positive_stock_value_exits_2(self, tmp_path, capsys, value):
        days = business_days(60)
        prices = 8.0 * np.exp(0.01 * np.sin(np.arange(60)))
        prices[17] = value
        code, out, err = self.write_and_run(tmp_path, capsys, days, prices,
                                            0.05 + 1e-3 * np.cos(np.arange(60)))
        assert_one_error_line(code, out, err)
        assert str(days[17]) in json.loads(err)["message"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_dividend_yield_exit_2(self, tmp_path, capsys, value):
        days = business_days(100)
        prices = 8.0 * np.exp(0.01 * np.sin(np.arange(100)))
        stock_csv, rates_csv = tmp_path / "stock.csv", tmp_path / "rates.csv"
        save_history_csv(stock_csv, PriceHistory(points=tuple(zip(days, prices))))
        rates = 0.05 + 1e-3 * np.cos(np.arange(100))
        save_history_csv(rates_csv, PriceHistory(points=tuple(zip(days, rates))))
        code, out, err = run(
            capsys, "estimate-equity", "--stock", str(stock_csv),
            "--spot-rate", str(rates_csv), "--dividend-yield", value,
        )
        assert code == 2
        assert out == ""
        assert "dividend yield" in json.loads(err)["message"]


class TestCalibrateAndConsume:
    def test_full_daily_workflow(self, fixture_files, capsys):
        tmp_path, bonds_csv, options_csv, params_json = fixture_files
        report_path = tmp_path / "fit.json"
        code, out, err = run(
            capsys, "calibrate",
            "--bonds", str(bonds_csv), "--options", str(options_csv),
            "--params", str(params_json), "--out", str(report_path),
        )
        assert code == 0, err
        report = json.loads(report_path.read_text())
        pars = report["parameters"]
        assert pars["variant"] == "seven_param"  # the default --variant
        assert pars["credit"]["l"] == pytest.approx(TRUE_LOSS, abs=1e-12)
        assert pars["credit"]["lam"] == pytest.approx(TRUE_LAMBDA, abs=1e-10)
        assert pars["corrections"]["v1"] == pytest.approx(SURFACE_COEFFS.v1, abs=1e-8)
        assert report["option_fit"]["weighted_residual"] < 1e-12
        assert report["bond_fit"]["condition_number"] > 1

        # price an instrument straight from the report (no quote re-read)
        code, out, err = run(
            capsys, "price", "--fit", str(report_path),
            "--kind", "call", "--strike", "8.04", "--maturity", "0.1",
        )
        assert code == 0, err
        priced = json.loads(out)
        pin = PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1.0, TRUE_LAMBDA), 0.1, 8.04
        )
        assert priced["p0"] == pytest.approx(call_p0(pin), rel=1e-9)
        assert math.isfinite(priced["price"])

        # term structure from the same report
        code, out, err = run(
            capsys, "cds-curve", "--fit", str(report_path), "--maturities", "1..10",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "maturity_years,spread_bps"
        assert len(lines) == 11
        spreads = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(s > 0 for s in spreads)

        # implied-vol surface grid
        code, out, err = run(
            capsys, "ivol-surface", "--fit", str(report_path),
            "--grid", "0.1,0.2x7.0,8.04,9.0",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "maturity_years,strike,implied_vol"
        assert len(lines) == 7

    def test_zero_coefficient_fit_prices_at_p0(self, tmp_path, capsys):
        fit = {
            "vasicek": {"alpha": SURFACE_VASICEK.alpha, "beta": SURFACE_VASICEK.beta,
                        "eta": SURFACE_VASICEK.eta, "r": SURFACE_VASICEK.r},
            "equity": {"x": 8.04, "sigma2": 0.2576, "rho1": -0.0327},
            "credit": {"l": 1.0, "lam": 0.027},
            "corrections": {},
        }
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit))
        code, out, err = run(
            capsys, "price", "--fit", str(path),
            "--kind", "call", "--strike", "8.0", "--maturity", "0.5",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["price"] == payload["p0"]
        assert payload["implied_vol"] > 0

    def test_three_param_variant(self, tmp_path, capsys):
        from credeq.corrections import CorrectionParams

        truth = CorrectionParams(v1=0.012, v3=0.0009, w1=-0.008, w2=-0.0001)
        credit = CreditParams(l=TRUE_LOSS, lam=TRUE_LAMBDA)
        bonds = make_bond_quotes(SURFACE_VASICEK, credit, truth)
        grid = [(t, m, k) for t in (0.25, 0.5, 1.0, 2.0)
                for m, k in ((0.8, "call"), (1.0, "call"), (1.2, "put"))]
        options = make_option_quotes(SURFACE_VASICEK, SURFACE_EQUITY, TRUE_LAMBDA, truth, grid)
        bonds_csv, options_csv = tmp_path / "b.csv", tmp_path / "o.csv"
        save_bonds_csv(bonds_csv, bonds)
        save_options_csv(options_csv, options)
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "vasicek": {"alpha": SURFACE_VASICEK.alpha, "beta": SURFACE_VASICEK.beta,
                        "eta": SURFACE_VASICEK.eta, "r": SURFACE_VASICEK.r},
            "equity": {"x": SURFACE_EQUITY.x, "sigma2": SURFACE_EQUITY.sigma2,
                       "rho1": SURFACE_EQUITY.rho1},
        }))
        code, out, err = run(
            capsys, "calibrate", "--bonds", str(bonds_csv), "--options", str(options_csv),
            "--params", str(params), "--variant", "three",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["parameters"]["variant"] == "three_param"
        assert report["parameters"]["corrections"]["v1"] == pytest.approx(0.012, abs=1e-8)
        assert report["parameters"]["corrections"]["v2"] == 0.0

    def test_index_variant_needs_no_bonds(self, tmp_path, capsys):
        from conftest import INDEX_EQUITY, INDEX_VASICEK
        from credeq.corrections import CorrectionParams

        truth = CorrectionParams(v1=4e-4, v2=-6e-5, v4=2e-5, v5=-8e-4, v6=3e-4)
        grid = [(t, m, "call") for t in (0.25, 0.5, 1.0, 2.0) for m in (0.9, 1.0, 1.1)]
        quotes = make_option_quotes(INDEX_VASICEK, INDEX_EQUITY, 0.0, truth, grid)
        options_csv = tmp_path / "spx.csv"
        save_options_csv(options_csv, quotes)
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "vasicek": {"alpha": INDEX_VASICEK.alpha, "beta": INDEX_VASICEK.beta,
                        "eta": INDEX_VASICEK.eta, "r": INDEX_VASICEK.r},
            "equity": {"x": INDEX_EQUITY.x, "sigma2": INDEX_EQUITY.sigma2,
                       "rho1": INDEX_EQUITY.rho1, "q": INDEX_EQUITY.q},
        }))
        code, out, err = run(
            capsys, "calibrate", "--options", str(options_csv),
            "--params", str(params), "--variant", "index",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["parameters"]["credit"]["lam"] == 0.0
        assert report["parameters"]["corrections"]["v1"] == pytest.approx(4e-4, abs=1e-8)
        assert report["parameters"]["variant"] == "index"
        # The option filter is recorded; the bond grids, which index never uses, are not.
        assert report["config"] == {"variant": "index", "min_maturity": 9 / 365, "min_volume": 0}
        assert report["bond_fit"] == {"l_lambda": 0.0, "l_v3": 0.0, "l_w2": 0.0,
                                      "residual": 0.0, "condition_number": 0.0}

    def test_too_few_options_exit_2(self, fixture_files, capsys):
        tmp_path, bonds_csv, options_csv, params_json = fixture_files
        few = tmp_path / "few.csv"
        lines = options_csv.read_text().splitlines()
        few.write_text("\n".join(lines[:4]) + "\n")
        code, _, err = run(
            capsys, "calibrate", "--bonds", str(bonds_csv),
            "--options", str(few), "--params", str(params_json),
        )
        assert code == 2
        assert "quotes" in json.loads(err)["message"]


    @pytest.mark.parametrize(
        "target, row",
        [("options", "0.5,8.0,call,nan,100"), ("options", "0.5,8.0,put,inf,100"),
         ("options", "inf,8.0,call,1.0,100"), ("bonds", "inf,0.9")],
    )
    def test_non_finite_quote_exit_2(self, fixture_files, capsys, target, row):
        tmp_path, bonds_csv, options_csv, params_json = fixture_files
        files = {"bonds": bonds_csv, "options": options_csv}
        files[target].write_text(files[target].read_text() + row + "\n")
        code, _, err = run(
            capsys, "calibrate", "--bonds", str(bonds_csv),
            "--options", str(options_csv), "--params", str(params_json),
        )
        assert code == 2
        assert "finite" in json.loads(err)["message"]


def fit_dict():
    return {
        "vasicek": {"alpha": 0.004, "beta": 0.09, "eta": 0.001, "r": 0.05},
        "equity": {"x": 8.0, "sigma2": 0.3, "rho1": 0.0},
        "credit": {"l": 0.4, "lam": 0.05},
        "corrections": {"v3": 0.02, "w2": 0.003},
    }


def fit_text(block, name, literal):
    """Fit JSON text whose ``block.name`` is ``literal`` verbatim, e.g. a 5,000-digit integer."""
    fit = fit_dict()
    fit[block][name] = "@"
    return json.dumps(fit).replace('"@"', literal)


def huge_fit(block, name):
    """A fit JSON whose ``block.name`` is 1e200: finite, accepted, and overflowing."""
    fit = fit_dict()
    fit[block][name] = 1e200
    return fit


class TestOverflow:
    """A huge but finite parameter exits 3 with one JSON line, never a traceback."""

    COMMANDS = {
        "price": ["price", "--kind", "call", "--strike", "8", "--maturity", "0.5"],
        "ivol-surface": ["ivol-surface", "--grid", "0.5x8"],
        "cds-curve": ["cds-curve", "--maturities", "1..3"],
    }

    @pytest.mark.parametrize("command, block, name", [
        ("price", "equity", "sigma2"), ("price", "vasicek", "eta"), ("price", "vasicek", "beta"),
        ("ivol-surface", "equity", "sigma2"), ("ivol-surface", "vasicek", "eta"),
        ("ivol-surface", "vasicek", "beta"), ("cds-curve", "vasicek", "beta"),
    ])
    def test_exit_3(self, tmp_path, capsys, command, block, name):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(huge_fit(block, name)))
        argv = self.COMMANDS[command]
        code, out, err = run(capsys, *argv[:1], "--fit", str(path), *argv[1:])
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "NumericalError"
        assert f"{name} = 1e+200" in error["message"]

    def test_cds_series_writes_na(self, tmp_path, capsys):
        fits_dir = tmp_path / "fits"
        fits_dir.mkdir()
        (fits_dir / "2006-09-18.json").write_text(json.dumps(huge_fit("equity", "x")))
        (fits_dir / "2006-09-19.json").write_text(json.dumps(huge_fit("vasicek", "beta")))
        code, out, err = run(capsys, "cds-series", "--fits-dir", str(fits_dir), "--maturity", "5")
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[1].startswith("2006-09-18,5.0,") and not lines[1].endswith("NA")
        assert lines[2] == "2006-09-19,5.0,NA"


class TestCdsSeries:
    # A day whose fit cannot be read or priced: an incomplete fit, a value that is not a
    # float, bytes that are not UTF-8, a directory in the fit file's place, or a fit
    # that overflows when priced.
    BAD_DAYS = {
        "malformed": lambda path: path.write_text("{\"broken\": true}"),
        "5000-digit-integer": lambda path: path.write_text(fit_text("equity", "x", "9" * 5000)),
        "400-digit-integer": lambda path: path.write_text(fit_text("equity", "x", "9" * 400)),
        "deep-nesting": lambda path: path.write_text(
            fit_text("equity", "x", "[" * 10**5 + "]" * 10**5)),
        "boolean": lambda path: path.write_text(fit_text("credit", "lam", "true")),
        "not-utf8": lambda path: path.write_bytes(json.dumps(fit_dict()).encode("utf-16")),
        "directory": lambda path: path.mkdir(),
        "unpriceable": lambda path: path.write_text(json.dumps(huge_fit("vasicek", "eta"))),
    }

    @pytest.mark.parametrize("bad_day", sorted(BAD_DAYS))
    def test_series_with_gap(self, tmp_path, capsys, bad_day):
        fits_dir = tmp_path / "fits"
        fits_dir.mkdir()
        good = {
            "vasicek": {"alpha": 0.004, "beta": 0.09, "eta": 0.001, "r": 0.05},
            "equity": {"x": 8.0, "sigma2": 0.3, "rho1": 0.0},
            "credit": {"l": 0.4, "lam": 0.05},
            "corrections": {"v3": 0.02, "w2": 0.003},
        }
        (fits_dir / "2006-09-18.json").write_text(json.dumps(good))
        self.BAD_DAYS[bad_day](fits_dir / "2006-09-19.json")
        (fits_dir / "2006-09-20.json").write_text(json.dumps(good))
        code, out, err = run(
            capsys, "cds-series", "--fits-dir", str(fits_dir), "--maturity", "5",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "date,maturity_years,spread_bps"
        assert lines[1].startswith("2006-09-18,5.0,")
        assert lines[2] == "2006-09-19,5.0,NA"
        assert lines[3].startswith("2006-09-20,5.0,")
        assert float(lines[1].rsplit(",", 1)[1]) == float(lines[3].rsplit(",", 1)[1])

    def test_fits_dir_must_be_a_directory(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict()))
        for fits_dir in (path, tmp_path / "missing"):
            code, out, err = run(capsys, "cds-series", "--fits-dir", str(fits_dir),
                                 "--maturity", "5")
            assert_one_error_line(code, out, err)
            assert "is not a directory" in json.loads(err)["message"]

    def test_fits_dir_without_fit_files(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no fits here")
        code, out, err = run(capsys, "cds-series", "--fits-dir", str(tmp_path), "--maturity", "5")
        assert_one_error_line(code, out, err)
        assert "no fit files" in json.loads(err)["message"]


class TestDividendQuote:
    """A flat 20% model with the index's dividend yield quotes 20% at every maturity.

    The rate is deterministic (eta = 0), nothing defaults (lam = 0) and there are no
    corrections, so the model price is Black-Scholes on the spot x*exp(-q*tau).
    """

    SIGMA = 0.2
    MATURITIES = (0.25, 1.0, 2.0)
    VASICEK = dict(asdict(INDEX_VASICEK), eta=0.0)

    @pytest.fixture
    def fit_path(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({
            "vasicek": self.VASICEK,
            "equity": {"x": INDEX_EQUITY.x, "sigma2": self.SIGMA, "rho1": INDEX_EQUITY.rho1,
                       "q": INDEX_EQUITY.q},
            "credit": {"l": 1.0, "lam": 0.0},
            "corrections": {},
        }))
        return path

    @pytest.mark.parametrize("tau", MATURITIES)
    def test_price(self, capsys, fit_path, tau):
        code, out, err = run(capsys, "price", "--fit", str(fit_path), "--kind", "call",
                             "--strike", repr(INDEX_EQUITY.x), "--maturity", repr(tau))
        assert code == 0, err
        priced = json.loads(out)
        assert priced["quote_rate"] == vasicek_yield(VasicekParams(**self.VASICEK), tau)
        assert priced["implied_vol"] == pytest.approx(self.SIGMA, abs=1e-8)

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_ivol_surface(self, capsys, fit_path, kind):
        strikes = [m * INDEX_EQUITY.x for m in (0.9, 1.0, 1.1)]
        grid = ",".join(map(repr, self.MATURITIES)) + "x" + ",".join(map(repr, strikes))
        code, out, err = run(capsys, "ivol-surface", "--fit", str(fit_path), "--grid", grid,
                             "--kind", kind)
        assert code == 0, err
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 9
        for row in rows:
            assert float(row.rsplit(",", 1)[1]) == pytest.approx(self.SIGMA, abs=1e-8), row


def assert_one_error_line(code, out, err, error="ValidationError"):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


class TestMalformedJson:
    """Parameter and fit JSON that is not an object of complete blocks exits 2."""

    EDITS = {
        "top-level-list": lambda p: [p],
        "list-of-pairs": lambda p: list(p.items()),  # dict.update would take it
        "missing-key": lambda p: dict(p, vasicek={k: v for k, v in p["vasicek"].items()
                                                  if k != "r"}),
        "extra-key": lambda p: dict(p, equity=dict(p["equity"], spot=8.0)),
        "missing-block": lambda p: {"vasicek": p["vasicek"]},
        "list-block": lambda p: dict(p, vasicek=list(p["vasicek"].values())),
        "boolean-value": lambda p: dict(p, vasicek=dict(p["vasicek"], r=True)),
        "400-digit-integer": lambda p: dict(p, equity=dict(p["equity"], x=10**400)),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_calibrate_params(self, fixture_files, capsys, edit):
        tmp_path, bonds_csv, options_csv, params_json = fixture_files
        params_json.write_text(json.dumps(self.EDITS[edit](json.loads(params_json.read_text()))))
        code, out, err = run(capsys, "calibrate", "--bonds", str(bonds_csv),
                             "--options", str(options_csv), "--params", str(params_json))
        assert_one_error_line(code, out, err)

    @pytest.mark.parametrize("argv", [
        ["price", "--kind", "bond", "--maturity", "2"],
        ["cds-curve"],
    ], ids=["price", "cds-curve"])
    def test_top_level_list_fit(self, tmp_path, capsys, argv):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps([fit_dict()]))
        code, out, err = run(capsys, argv[0], "--fit", str(path), *argv[1:])
        assert_one_error_line(code, out, err)

    def test_fit_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict())[:-1])
        code, out, err = run(capsys, "price", "--fit", str(path), "--kind", "bond",
                             "--maturity", "2")
        assert_one_error_line(code, out, err)
        assert "not valid JSON" in json.loads(err)["message"]

    # json.loads refuses an integer past 4,300 digits and nesting past the recursion
    # limit; a float cannot hold an integer of 400 digits; a boolean would pass as 0 or 1.
    @pytest.mark.parametrize("block, name, literal, message", [
        ("equity", "x", "9" * 5000, "not valid JSON"),
        ("equity", "x", "[" * 10**5 + "]" * 10**5, "not valid JSON"),
        ("equity", "x", "9" * 400, "malformed 'equity' block"),
        ("credit", "lam", "true", "'lam'"),
        ("vasicek", "r", "true", "'r'"),
        ("corrections", "v1", "false", "'v1'"),
    ], ids=["5000-digit-integer", "deep-nesting", "400-digit-integer", "lam-true", "r-true",
            "v1-false"])
    def test_fit_value_that_is_not_a_float(self, tmp_path, capsys, block, name, literal,
                                           message):
        path = tmp_path / "fit.json"
        path.write_text(fit_text(block, name, literal))
        code, out, err = run(capsys, "price", "--fit", str(path), "--kind", "bond",
                             "--maturity", "2")
        assert_one_error_line(code, out, err)
        assert message in json.loads(err)["message"]

    @pytest.mark.parametrize("variant, error", [
        (["seven_param"], "ValidationError"), (7, "ValidationError"),
        (None, "ValidationError"), ("five_param", "ValidationError"),
    ], ids=["list", "number", "null", "unknown"])
    @pytest.mark.parametrize("argv", [
        ["price", "--kind", "bond", "--maturity", "2"],
        ["cds-curve"],
    ], ids=["price", "cds-curve"])
    def test_bad_variant(self, tmp_path, capsys, argv, variant, error):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(dict(fit_dict(), variant=variant)))
        code, out, err = run(capsys, argv[0], "--fit", str(path), *argv[1:])
        assert_one_error_line(code, out, err, error)


class TestUnreadableInput:
    """A path that is a directory, or a file that is not UTF-8, exits 2 with one JSON line.

    A UTF-8 byte-order mark is not an error: it is skipped.
    """

    def test_directory_path(self, tmp_path, capsys):
        code, out, err = run(capsys, "fit-rates", "--treasury", str(tmp_path))
        assert_one_error_line(code, out, err, "IsADirectoryError")

    def test_utf16_csv(self, tmp_path, capsys):
        path = tmp_path / "treasury.csv"
        save_treasury_csv(path, TreasuryCurve(points=((0.25, 0.05), (1.0, 0.051), (5.0, 0.052))))
        path.write_bytes(path.read_text(encoding="utf-8").encode("utf-16"))
        code, out, err = run(capsys, "fit-rates", "--treasury", str(path))
        assert_one_error_line(code, out, err, "UnicodeDecodeError")

    def test_utf16_fit_json(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        path.write_bytes(json.dumps(fit_dict()).encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        code, out, err = run(capsys, "price", "--fit", str(path), "--kind", "bond",
                             "--maturity", "2")
        assert_one_error_line(code, out, err, "UnicodeDecodeError")

    def test_byte_order_mark_fit_json(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        argv = ["price", "--fit", str(path), "--kind", "bond", "--maturity", "2"]
        path.write_text(json.dumps(fit_dict()), encoding="utf-8")
        plain = run(capsys, *argv)
        path.write_text(json.dumps(fit_dict()), encoding="utf-8-sig")
        assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert run(capsys, *argv) == plain
        assert plain[0] == 0


class TestOracleCommand:
    FIT = {
        "vasicek": {"alpha": 0.0063, "beta": 0.1034, "eta": 0.012, "r": 0.0476},
        "equity": {"x": 8.04, "sigma2": 0.2576, "rho1": -0.0327},
        "credit": {"l": 1.0, "lam": 0.027},
        "corrections": {},
    }

    def test_constant_factor_estimate(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(
            capsys, "oracle", "--fit", str(path), "--instrument", "call",
            "--strike", "8.04", "--maturity", "0.25", "--paths", "20000", "--seed", "3",
        )
        assert code == 0, err
        payload = json.loads(out)
        pin = PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1.0, 0.027), 0.25, 8.04
        )
        assert abs(payload["estimate"] - call_p0(pin)) < 4 * payload["std_error"]

    @pytest.mark.parametrize("instrument, maturity, freq, n_steps", [
        ("bond", "0.5", "annual", 126), ("cds", "2", "quarterly", 504)])
    def test_reports_its_cost(self, tmp_path, capsys, instrument, maturity, freq, n_steps):
        # Multiscale factors (--eps) step on the 252-a-year grid.
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(capsys, "oracle", "--fit", str(path), "--instrument", instrument,
                             "--maturity", maturity, "--freq", freq, "--paths", "10000",
                             "--eps", "0.09")
        assert code == 0, err
        payload = json.loads(out)
        assert list(payload) == ["instrument", "estimate", "std_error", "n_paths", "n_steps",
                                 "elapsed_s", "path_steps_per_s", "n_chunks"]
        assert payload["n_steps"] == n_steps
        assert payload["elapsed_s"] > 0
        assert payload["path_steps_per_s"] == 10_000 * n_steps / payload["elapsed_s"]

    @pytest.mark.parametrize("instrument, maturity, freq, n_steps", [
        ("call", "0.5", "annual", 1), ("bond", "0.5", "annual", 1),
        ("cds", "2", "quarterly", 8), ("cds", "5", "annual", 5)])
    def test_constant_factors_report_one_step_per_segment(self, tmp_path, capsys, instrument,
                                                          maturity, freq, n_steps):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(capsys, "oracle", "--fit", str(path), "--instrument", instrument,
                             "--strike", "8.04", "--maturity", maturity, "--freq", freq,
                             "--paths", "10000", "--steps-per-year", "1000")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["n_steps"] == n_steps
        assert payload["path_steps_per_s"] == 10_000 * n_steps / payload["elapsed_s"]

    @pytest.mark.parametrize("paths, n_chunks", [("10000", 1), ("40000", 2)])
    def test_reports_its_chunks(self, tmp_path, capsys, paths, n_chunks):
        # 16,384 antithetic pairs a chunk: 5,000 pairs take one, 20,000 take two.
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(capsys, "oracle", "--fit", str(path), "--instrument", "bond",
                             "--maturity", "0.1", "--paths", paths)
        assert code == 0, err
        assert json.loads(out)["n_chunks"] == n_chunks

    @pytest.mark.parametrize("scales", [["--eps", "nan"], ["--eps", "inf"],
                                        ["--eps", "0.1", "--dlt", "nan"],
                                        ["--eps", "0.1", "--dlt", "inf"]])
    def test_non_finite_factor_scale_exits_2(self, tmp_path, capsys, scales):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(capsys, "oracle", "--fit", str(path), "--instrument", "bond",
                             "--maturity", "0.5", "--paths", "10000", *scales)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"

    def test_eps_far_below_the_time_step_runs(self, tmp_path, capsys):
        # At 252 steps a year dt is about 0.004, four times eps: the fast factors step exactly.
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(capsys, "oracle", "--fit", str(path), "--instrument", "bond",
                             "--maturity", "5", "--paths", "10000", "--eps", "0.001")
        assert code == 0, err
        payload = json.loads(out)
        assert math.isfinite(payload["estimate"]) and payload["std_error"] > 0

    @pytest.mark.parametrize("dlt", ["nan", "0.1", "0"])
    def test_dlt_without_eps_exits_2(self, tmp_path, capsys, dlt):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(capsys, "oracle", "--fit", str(path), "--instrument", "bond",
                             "--maturity", "0.5", "--paths", "10000", "--dlt", dlt)
        assert_one_error_line(code, out, err)

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        code, out, err = run(capsys, "oracle", "--fit", str(path), "--instrument", "bond",
                             "--maturity", "0.5", "--paths", "10000", "--seed", seed)
        assert_one_error_line(code, out, err)
        assert "seed" in json.loads(err)["message"]

    def test_dlt_defaults_to_zero_with_eps(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(self.FIT))
        argv = ["oracle", "--fit", str(path), "--instrument", "bond", "--maturity", "0.5",
                "--paths", "10000", "--eps", "0.25"]
        estimates = []
        for extra in ([], ["--dlt", "0"]):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 0, err
            estimates.append(json.loads(out)["estimate"])
        assert estimates[0] == estimates[1]


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["cds-curve", "--maturities", "1.5..3"],
        ["cds-curve", "--maturities", "a"],
        ["cds-curve", "--maturities", ""],
        ["cds-curve", "--maturities", "inf"],
        ["cds-series", "--maturity", "nan"],
        ["cds-series", "--maturity", "inf"],
        ["oracle", "--instrument", "cds", "--maturity", "nan"],
        ["oracle", "--instrument", "cds", "--maturity", "inf"],
    ])
    def test_bad_maturities_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict()))
        source = ["--fits-dir", str(tmp_path)] if argv[0] == "cds-series" else ["--fit", str(path)]
        code, out, err = run(capsys, argv[0], *source, *argv[1:])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValidationError"

    @pytest.mark.parametrize("argv, message", [
        (["cds-curve", "--maturities", "20000"], "more than 10000 payments"),
        (["cds-curve", "--freq", "quarterly", "--maturities", "2501"], "more than 10000 payments"),
        (["cds-curve", "--maturities", "0..10000"], "10001 points; a range has at most 10000"),
        (["cds-series", "--maturity", "20000"], "more than 10000 payments"),
    ], ids=["one-maturity", "quarterly", "range", "series"])
    def test_more_than_max_payments_exits_2(self, tmp_path, capsys, argv, message):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict()))
        source = ["--fits-dir", str(tmp_path)] if argv[0] == "cds-series" else ["--fit", str(path)]
        code, out, err = run(capsys, argv[0], *source, *argv[1:])
        assert_one_error_line(code, out, err)
        assert message in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [
        ["price", "--kind", "call", "--strike", "8", "--maturity", "1e-300"],
        ["price", "--kind", "put", "--strike", "8", "--maturity", "1e-300"],
        ["ivol-surface", "--grid", "1e-300x8"],
    ], ids=["price-call", "price-put", "ivol-surface"])
    def test_vanishing_variance_exits_2(self, tmp_path, capsys, argv):
        # At tau = 1e-300 the variance v is so small that v * sqrt(v) underflows to 0.
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict()))
        code, out, err = run(capsys, argv[0], "--fit", str(path), *argv[1:])
        assert_one_error_line(code, out, err, "DomainError")
        assert "variance must be at least" in json.loads(err)["message"]

    @pytest.mark.parametrize("x, argv", [
        (5e-324, ["price", "--kind", "call", "--strike", "8", "--maturity", "0.5"]),
        (5e-324, ["price", "--kind", "put", "--strike", "8", "--maturity", "0.5"]),
        (5e-324, ["ivol-surface", "--grid", "0.25,1x7,9"]),
        (8.0, ["price", "--kind", "call", "--strike", "5e-324", "--maturity", "0.5"]),
        (8.0, ["ivol-surface", "--kind", "put", "--grid", "0.25x5e-324"]),
    ], ids=["price-call", "price-put", "ivol-surface", "tiny-strike", "tiny-strike-surface"])
    def test_spot_strike_ratio_out_of_float_range_exits_2(self, tmp_path, capsys, x, argv):
        # x = 5e-324 is a positive spot, but x / 8 rounds to 0, and 8 / 5e-324 to inf.
        fit = fit_dict()
        fit["equity"]["x"] = x
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit))
        code, out, err = run(capsys, argv[0], "--fit", str(path), *argv[1:])
        assert_one_error_line(code, out, err, "DomainError")
        assert "spot / strike" in json.loads(err)["message"]

    def test_spot_strike_ratio_out_of_float_range_in_calibrate_exits_2(self, fixture_files,
                                                                        capsys):
        tmp_path, bonds_csv, options_csv, params_json = fixture_files
        params = json.loads(params_json.read_text())
        params["equity"]["x"] = 5e-324
        params_json.write_text(json.dumps(params))
        code, out, err = run(capsys, "calibrate", "--bonds", str(bonds_csv),
                             "--options", str(options_csv), "--params", str(params_json))
        assert_one_error_line(code, out, err, "DomainError")
        assert "spot / strike" in json.loads(err)["message"]

    @pytest.mark.parametrize("name", ["q", "sigma1"])
    def test_non_finite_equity_in_fit_exits_2(self, tmp_path, capsys, name):
        fit = fit_dict()
        fit["equity"][name] = math.nan  # json writes NaN, which json reads back
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit))
        code, out, err = run(capsys, "price", "--fit", str(path), "--kind", "call",
                             "--strike", "8", "--maturity", "0.5")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"

    @pytest.mark.parametrize("argv", [
        ["price", "--kind", "call", "--strike", "inf", "--maturity", "0.5"],
        ["ivol-surface", "--kind", "call", "--grid", "1xinf"],
        ["oracle", "--instrument", "call", "--strike", "inf", "--maturity", "0.5"],
    ], ids=["price", "ivol-surface", "oracle"])
    def test_infinite_strike_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict()))
        code, out, err = run(capsys, argv[0], "--fit", str(path), *argv[1:])
        assert_one_error_line(code, out, err)
        assert "strike must be finite" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["cds-curve", "--fit", "fit.json", "--maturities", "-1..2"],
        ["price", "--fit", "fit.json", "--kind", "bond", "--maturity", "2", "--bogus"],
        ["calibrate", "--options", "o.csv", "--params", "p.json", "--l-grid", "96"],
    ])
    def test_unparsable_arguments_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValidationError"

    def test_option_set_of_each_subcommand(self):
        """Adding or removing a flag is a deliberate edit of this table."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {name: [s for a in p._actions if not isinstance(a, argparse._HelpAction)
                          for s in a.option_strings]
                   for name, p in sub.choices.items()}
        assert options == {
            "fit-rates": ["--treasury", "--r-proxy", "--out"],
            "estimate-equity": ["--stock", "--spot-rate", "--spot", "--dividend-yield", "--out"],
            "calibrate": ["--bonds", "--options", "--params", "--variant", "--out"],
            "price": ["--fit", "--kind", "--strike", "--maturity", "--out"],
            "cds-curve": ["--fit", "--maturities", "--freq", "--out"],
            "cds-series": ["--fits-dir", "--maturity", "--freq", "--out"],
            "ivol-surface": ["--fit", "--grid", "--kind", "--out"],
            "oracle": ["--fit", "--instrument", "--strike", "--maturity", "--paths", "--seed",
                       "--steps-per-year", "--eps", "--dlt", "--freq", "--out"],
        }

    def test_unknown_variant_in_fit_exits_2(self, tmp_path, capsys):
        fit = dict(fit_dict(), variant="five_param")
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit))
        code, _, err = run(capsys, "price", "--fit", str(path), "--kind", "bond",
                           "--maturity", "2")
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

    def test_bad_grid_spec(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({
            "vasicek": {"alpha": 0.004, "beta": 0.09, "eta": 0.001, "r": 0.05},
            "equity": {"x": 8.0, "sigma2": 0.3, "rho1": 0.0},
            "credit": {"l": 1.0, "lam": 0.02},
            "corrections": {},
        }))
        code, _, err = run(capsys, "ivol-surface", "--fit", str(path), "--grid", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("grid", ["0.5x", "x8", "x"])
    def test_grid_needs_a_maturity_and_a_strike(self, tmp_path, capsys, grid):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict()))
        code, out, err = run(capsys, "ivol-surface", "--fit", str(path), "--grid", grid)
        assert_one_error_line(code, out, err)
        assert "at least one maturity and one strike" in json.loads(err)["message"]

    def test_option_price_needs_a_strike(self, tmp_path, capsys):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_dict()))
        code, out, err = run(capsys, "price", "--fit", str(path), "--kind", "put",
                             "--maturity", "0.5")
        assert_one_error_line(code, out, err)
        assert "--strike is required" in json.loads(err)["message"]

    def test_calibrate_with_a_bond_step_needs_bonds(self, fixture_files, capsys):
        _, _, options_csv, params_json = fixture_files
        code, out, err = run(capsys, "calibrate", "--options", str(options_csv),
                             "--params", str(params_json))
        assert_one_error_line(code, out, err)
        assert "--bonds is required" in json.loads(err)["message"]
