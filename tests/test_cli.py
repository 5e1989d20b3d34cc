import json
import math

import numpy as np
import pytest

from credeq.cli import main
from credeq.market_data import (
    save_bonds_csv,
    save_history_csv,
    save_options_csv,
    save_treasury_csv,
    PriceHistory,
    TreasuryCurve,
)
from credeq.pricing import CreditParams, PricingInputs, call_p0
from credeq.rates import vasicek_yield

from conftest import (
    SURFACE_EQUITY,
    SURFACE_VASICEK,
    TRUE_LAMBDA,
    TRUE_LOSS,
    make_bond_quotes,
    make_option_quotes,
    ROUNDTRIP_GRID,
    SURFACE_COEFFS,
)
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


class TestCdsSeries:
    def test_series_with_gap(self, tmp_path, capsys):
        fits_dir = tmp_path / "fits"
        fits_dir.mkdir()
        good = {
            "vasicek": {"alpha": 0.004, "beta": 0.09, "eta": 0.001, "r": 0.05},
            "equity": {"x": 8.0, "sigma2": 0.3, "rho1": 0.0},
            "credit": {"l": 0.4, "lam": 0.05},
            "corrections": {"v3": 0.02, "w2": 0.003},
        }
        (fits_dir / "2006-09-18.json").write_text(json.dumps(good))
        (fits_dir / "2006-09-19.json").write_text("{\"broken\": true}")
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


class TestOracleCommand:
    def test_constant_factor_estimate(self, tmp_path, capsys):
        fit = {
            "vasicek": {"alpha": 0.0063, "beta": 0.1034, "eta": 0.012, "r": 0.0476},
            "equity": {"x": 8.04, "sigma2": 0.2576, "rho1": -0.0327},
            "credit": {"l": 1.0, "lam": 0.027},
            "corrections": {},
        }
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit))
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


class TestArgumentErrors:
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
