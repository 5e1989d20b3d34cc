import datetime as dt
import math

import numpy as np
import pytest
from scipy.integrate import quad

from credeq.calibration import ModelFit
from credeq.cds import CdsSchedule, annual_schedule, cds_series, cds_spread, cds_term_structure
from credeq.corrections import CorrectionParams
from credeq.errors import NumericalError, ValidationError
from credeq.pricing import CreditParams
from credeq.rates import VasicekParams

from conftest import CDS_SET_A, CDS_SET_B, CDS_SET_C, SURFACE_EQUITY


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

    def test_uneven_spacing_rejected(self):
        with pytest.raises(ValidationError):
            CdsSchedule((1.0, 2.0, 3.5))

    def test_first_payment_positive(self):
        with pytest.raises(ValidationError):
            CdsSchedule((0.0, 1.0))


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
    ])
    def test_curve_equals_one_spread_per_schedule(self, maturities, delta):
        # Each full-loss bond is priced once per curve; the spreads stay bit-identical.
        for s in (CDS_SET_A, CDS_SET_B, CDS_SET_C):
            fit = model(s["vasicek"], s["credit"], s["coeffs"])
            assert cds_term_structure(fit, maturities, delta) == [
                (t, cds_spread(fit, annual_schedule(t, delta))) for t in maturities]

    def test_annual_curve_prices_each_bond_once(self, monkeypatch):
        # 1..10: ten protection bonds at l, ten distinct full-loss payment bonds.
        import credeq.cds as cds

        calls = []
        price_full = cds.price_full
        monkeypatch.setattr(cds, "price_full", lambda *a: calls.append(a) or price_full(*a))
        fit = model(CDS_SET_A["vasicek"], CDS_SET_A["credit"], CDS_SET_A["coeffs"])
        cds_term_structure(fit, [float(t) for t in range(1, 11)])
        assert len(calls) == 20


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

    def test_multiple_tenors_finite(self):
        fit = model(PLAIN_VASICEK, CreditParams(l=0.4, lam=0.05), CorrectionParams())
        three = cds_series([(dt.date(2006, 9, 18), fit)], 3.0)
        five = cds_series([(dt.date(2006, 9, 18), fit)], 5.0)
        assert math.isfinite(three[0][1]) and math.isfinite(five[0][1])

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            cds_series([], 5.0)
