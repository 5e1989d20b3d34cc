import datetime as dt
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from credeq.calibration import ModelFit
from credeq.cds import (
    MAX_PAYMENTS,
    CdsSchedule,
    annual_schedule,
    cds_series,
    cds_spread,
    cds_term_structure,
)
from credeq.corrections import CorrectionParams
from credeq.errors import NumericalError, ValidationError
from credeq.pricing import CreditParams
from credeq.rates import VasicekParams

from conftest import CDS_SET_A, CDS_SET_B, CDS_SET_C, SURFACE_EQUITY
from reference_oracles import cds_spread_reduce


def model(vasicek, credit, coeffs):
    return ModelFit(vasicek=vasicek, equity=SURFACE_EQUITY, credit=credit, coeffs=coeffs)


PLAIN_VASICEK = VasicekParams(alpha=0.004, beta=0.09, eta=0.001, r=0.05)


class TestSchedule:
    def test_annual_default(self):
        s = annual_schedule(5.0)
        assert s.payment_times == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert s.delta == 1.0
        assert s.maturity == 5.0

    def test_quarterly(self):
        s = annual_schedule(1.0, 0.25)
        assert len(s.payment_times) == 4
        assert s.delta == 0.25

    def test_non_multiple_maturity_rejected(self):
        with pytest.raises(ValidationError):
            annual_schedule(2.5, 1.0)

    @pytest.mark.parametrize("maturity, delta", [
        (math.nan, 1.0), (math.inf, 1.0), (5.0, 0.0), (5.0, -1.0), (5.0, math.nan),
        (5.0, math.inf)])
    def test_bad_arguments_rejected(self, maturity, delta):
        with pytest.raises(ValidationError):
            annual_schedule(maturity, delta)

    @pytest.mark.parametrize("maturity, delta", [(10001.0, 1.0), (2500.25, 0.25), (1e300, 1e-300)])
    def test_more_than_max_payments_rejected(self, maturity, delta):
        with pytest.raises(ValidationError, match="more than 10000 payments"):
            annual_schedule(maturity, delta)

    def test_max_payments_accepted(self):
        assert len(annual_schedule(2500.0, 0.25).payment_times) == 10000

    @pytest.mark.parametrize("delta, n", [
        (0.0, 1), (-1.0, 1), (math.nan, 1), (math.inf, 1),
        (1.0, 0), (1.0, MAX_PAYMENTS + 1), (1.0, 2.5), (1.0, True)])
    def test_bad_delta_or_count_rejected(self, delta, n):
        with pytest.raises(ValidationError):
            CdsSchedule(delta, n)


class TestSpread:
    def test_zero_loss_zero_spread(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=0.0, lam=0.05),
                    CorrectionParams(v3=0.02, w2=0.003))
        assert cds_spread(fit, annual_schedule(5.0)) == 0.0

    def test_no_default_risk_is_flat_zero(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=1.0, lam=0.0), CorrectionParams())
        for t, spread in cds_term_structure(fit, range(1, 11)):
            assert spread == 0.0

    def test_monotone_in_loss_rate(self):
        spreads = []
        for l in np.linspace(0.0, 1.0, 11):
            fit = model(PLAIN_VASICEK, CreditParams(l=float(l), lam=0.08), CorrectionParams())
            spreads.append(cds_spread(fit, annual_schedule(5.0)))
        assert all(b > a for a, b in zip(spreads, spreads[1:]))

    def test_credit_triangle_at_short_maturity(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=0.4, lam=0.08), CorrectionParams())
        spread = cds_spread(fit, annual_schedule(0.01, 0.01))
        assert abs(spread - 0.4 * 0.08) / (0.4 * 0.08) < 0.01

    def test_deterministic_rate_quadrature_oracle(self):
        # eta=0 and zero corrections: both legs are explicit integrals of
        # the deterministic short-rate path
        p = VasicekParams(alpha=0.0045, beta=0.0983, eta=0.0, r=0.0516)
        l, lam = 0.283, 0.0459
        fit = model(p, CreditParams(l=l, lam=lam), CorrectionParams())

        def rate_path(s):
            return p.r * math.exp(-p.beta * s) + p.alpha / p.beta * (1 - math.exp(-p.beta * s))

        def disc(t):
            val, _ = quad(rate_path, 0, t, epsabs=1e-14, epsrel=1e-13)
            return math.exp(-val)

        for t_mat in (1.0, 4.0, 10.0):
            sched = annual_schedule(t_mat)
            oracle = (disc(t_mat) - disc(t_mat) * math.exp(-l * lam * t_mat)) / sum(
                disc(t) * math.exp(-lam * t) for t in sched.payment_times
            )
            assert cds_spread(fit, sched) == pytest.approx(oracle, abs=1e-6)

    def test_degenerate_annuity_raises(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=1.0, lam=0.05), CorrectionParams(w2=-40.0))
        with pytest.raises(NumericalError):
            cds_spread(fit, annual_schedule(5.0))


class TestTermStructure:
    def test_three_calibrated_sets_shapes(self):
        curves = []
        for s in (CDS_SET_A, CDS_SET_B, CDS_SET_C):
            fit = model(s["vasicek"], s["credit"], s["coeffs"])
            ts = cds_term_structure(fit, range(1, 11))
            spreads = np.asarray([v for _, v in ts])
            assert np.isfinite(spreads).all()
            assert (spreads > 0).all()
            curves.append(spreads)
        diffs = [np.sign(np.diff(c)) for c in curves]
        # partial-loss set rises out to 10y; the two full-loss sets hump
        assert (diffs[0] > 0).all()
        assert diffs[1][0] > 0 and diffs[1][-1] < 0
        assert diffs[2][0] > 0 and diffs[2][-1] < 0

    def test_single_maturity(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=0.5, lam=0.03), CorrectionParams())
        ts = cds_term_structure(fit, [5.0])
        assert len(ts) == 1 and ts[0][0] == 5.0

    @pytest.mark.parametrize("maturities, delta", [
        ([float(t) for t in range(1, 11)], 1.0),
        ([float(t) for t in range(1, 11)], 0.25),
        ([1.0, 3.0, 5.0], 1.0),
        ([7.0, 2.0, 7.0, 10.0, 1.0], 1.0),
        ([float(t) / 2 for t in range(1, 61)], 0.5),
        # every schedule of 1..120 payments, at five frequencies
        *[([n * delta for n in range(1, 121)], delta) for delta in (1.0, 0.5, 0.25, 1 / 12, 0.1)],
        ([], 1.0),  # no maturities, no curve
    ])
    def test_curve_equals_one_spread_per_schedule(self, maturities, delta):
        # Each full-loss bond is priced once per curve; every spread stays bit-identical
        # to one schedule's own annuity, summed left to right.
        for s in (CDS_SET_A, CDS_SET_B, CDS_SET_C):
            fit = model(s["vasicek"], s["credit"], s["coeffs"])
            expected = [(t, cds_spread_reduce(fit, annual_schedule(t, delta))) for t in maturities]
            assert cds_term_structure(fit, maturities, delta) == expected
            assert [(t, cds_spread(fit, annual_schedule(t, delta))) for t in maturities] == expected

    def test_annual_curve_prices_each_bond_once(self, monkeypatch):
        # One Vasicek-factor evaluation per payment date gives that date's
        # full-loss bond and, where a schedule ends, its riskless and protection
        # bonds: 10 for the annual 1..10 curve, 40 for a quarterly curve to 10 y.
        import credeq.cds as cds

        taus = []
        rate_factors = cds._rate_factors
        monkeypatch.setattr(cds, "_rate_factors",
                            lambda va, tau: taus.append(tau) or rate_factors(va, tau))
        fit = model(CDS_SET_A["vasicek"], CDS_SET_A["credit"], CDS_SET_A["coeffs"])
        cds_term_structure(fit, [float(t) for t in range(1, 11)])
        assert taus == [float(m) for m in range(1, 11)]
        taus.clear()
        cds_term_structure(fit, [m / 4 for m in range(1, 41)], 0.25)
        assert taus == [m * 0.25 for m in range(1, 41)]


# Fits a spread cannot be priced for: a ValidationError from the variant
# check, a NumericalError from the Vasicek factors, and a corrected bond that
# is not finite.
UNPRICEABLE = {
    "index-with-intensity": dict(credit=CreditParams(l=0.4, lam=0.05),
                                 coeffs=CorrectionParams(v1=0.1), variant="index"),
    "ignored-coefficient": dict(credit=CreditParams(l=0.4, lam=0.05),
                                coeffs=CorrectionParams(v3=0.02, w2=0.003, v2=0.3),
                                variant="three_param"),
    "eta-1e200": dict(vasicek=replace(PLAIN_VASICEK, eta=1e200),
                      credit=CreditParams(l=0.4, lam=0.05), coeffs=CorrectionParams()),
    "non-finite-bond": dict(credit=CreditParams(l=0.4, lam=0.05),
                            coeffs=CorrectionParams(v3=1e308, w2=1e308)),
}


def unpriceable(name):
    kw = dict(UNPRICEABLE[name])
    return ModelFit(vasicek=kw.pop("vasicek", PLAIN_VASICEK), equity=SURFACE_EQUITY, **kw)


def raised(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


class TestErrorPaths:
    @pytest.mark.parametrize("name", sorted(UNPRICEABLE))
    def test_same_error_as_bond_by_bond_pricing(self, name):
        fit = unpriceable(name)
        schedule = annual_schedule(5.0)
        expected = raised(cds_spread_reduce, fit, schedule)
        assert raised(cds_spread, fit, schedule) == expected
        assert raised(cds_term_structure, fit, [float(t) for t in range(1, 6)]) == expected

    def test_cds_series_prints_na_for_such_a_day(self, tmp_path, capsys):
        from credeq.cli import main

        good = model(PLAIN_VASICEK, CreditParams(l=0.4, lam=0.05), CorrectionParams())
        days = sorted(UNPRICEABLE)
        for i, name in enumerate(days):
            (tmp_path / f"2006-09-{11 + i}.json").write_text(json.dumps(unpriceable(name).to_dict()))
        (tmp_path / "2006-09-18.json").write_text(json.dumps(good.to_dict()))
        assert main(["cds-series", "--fits-dir", str(tmp_path), "--maturity", "5"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = out.splitlines()[1:]
        assert rows[:-1] == [f"2006-09-{11 + i},5.0,NA" for i in range(len(days))]
        assert rows[-1] == f"2006-09-18,5.0,{cds_spread(good, annual_schedule(5.0)) * 1e4}"


class TestSeries:
    def fits(self):
        base = dict(vasicek=PLAIN_VASICEK, coeffs=CorrectionParams())
        return [
            (
                dt.date(2006, 9, 18 + i),
                model(base["vasicek"], CreditParams(l=0.4, lam=lam), base["coeffs"]),
            )
            for i, lam in enumerate((0.02, 0.03, 0.05, 0.08))
        ]

    def test_constant_fits_constant_series(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=0.4, lam=0.05), CorrectionParams())
        series = cds_series([(dt.date(2006, 9, 18 + i), fit) for i in range(5)], 5.0)
        values = {v for _, v in series}
        assert len(values) == 1

    def test_drifting_intensity_monotone_series(self):
        series = cds_series(self.fits(), 5.0)
        values = [v for _, v in series]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gap_markers_preserved(self):
        items = self.fits()
        items.insert(2, (dt.date(2006, 9, 25), None))
        series = cds_series(items, 3.0)
        assert series[2][1] is None
        assert all(v is not None for i, (_, v) in enumerate(series) if i != 2)

    def test_unpriceable_fit_is_a_gap(self):
        unpriceable = model(replace(PLAIN_VASICEK, eta=1e200), CreditParams(l=0.4, lam=0.05),
                            CorrectionParams())
        with pytest.raises(NumericalError):
            cds_spread(unpriceable, annual_schedule(5.0))
        items = self.fits()
        items.insert(2, (dt.date(2006, 9, 25), unpriceable))
        series = cds_series(items, 5.0)
        assert series[2] == (dt.date(2006, 9, 25), None)
        assert series[:2] + series[3:] == cds_series(self.fits(), 5.0)

    def test_multiple_tenors_finite(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=0.4, lam=0.05), CorrectionParams())
        three = cds_series([(dt.date(2006, 9, 18), fit)], 3.0)
        five = cds_series([(dt.date(2006, 9, 18), fit)], 5.0)
        assert math.isfinite(three[0][1]) and math.isfinite(five[0][1])

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            cds_series([], 5.0)
