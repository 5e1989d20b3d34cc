import datetime as dt
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from credeq.calibration import ModelFit, fit_bonds, fit_options
from credeq.cds import annual_schedule, cds_spread
from credeq.corrections import CorrectionParams, price_full
from credeq.errors import NumericalError, ValidationError
from credeq.market_data import PriceHistory, TreasuryCurve
from credeq.pricing import CreditParams, PricingInputs, call_p0
from credeq.rates import (
    FIT_BOUNDS,
    SERIES_CUTOFF,
    EquityParams,
    VasicekParams,
    _h_g,
    at_bound,
    curve_rmse,
    estimate_rho1,
    estimate_sigma2,
    fit_vasicek,
    riskless_bond,
    vasicek_factors,
    vasicek_yield,
)

from conftest import (
    HIST_VASICEK,
    INDEX_VASICEK,
    ROUNDTRIP_GRID,
    SURFACE_EQUITY,
    SURFACE_VASICEK,
    log_uniform,
    make_bond_quotes,
    make_option_quotes,
)
from reference_oracles import variance_v
from scalar_reference import curve_sse, fit_vasicek_nelder_mead

# The treasury maturities (years) of the benchmark's CLI day.
TREASURY_MATURITIES = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0)


def ou_bond_mc(p, s, n_paths=500_000, steps_per_year=52, seed=123):
    """Discount factor by exact-transition OU simulation, trapezoidal integral."""
    rng = np.random.default_rng(seed)
    n_steps = max(1, round(s * steps_per_year))
    dt_ = s / n_steps
    decay = math.exp(-p.beta * dt_)
    sd = p.eta * math.sqrt((1 - decay * decay) / (2 * p.beta))
    mean_level = p.alpha / p.beta
    r = np.full(n_paths, p.r)
    integral = np.zeros(n_paths)
    for _ in range(n_steps):
        r_new = mean_level + (r - mean_level) * decay + sd * rng.standard_normal(n_paths)
        integral += 0.5 * (r + r_new) * dt_
        r = r_new
    disc = np.exp(-integral)
    return float(disc.mean()), float(disc.std(ddof=1) / math.sqrt(n_paths))


class TestFactorB:
    def test_zero_horizon(self):
        assert vasicek_factors(0.1, 0.0)[0] == 0.0

    def test_direct_evaluation(self):
        # cross-check the expm1 path against the plain expression
        assert vasicek_factors(0.0872, 5.0)[0] == pytest.approx(
            (1 - math.exp(-0.0872 * 5.0)) / 0.0872, abs=1e-14
        )

    def test_small_beta_limit(self):
        # b -> s as beta -> 0; the series branch avoids the 0/0
        assert vasicek_factors(1e-9, 2.0)[0] == pytest.approx(2.0, abs=1e-8)


    def test_monotone_concave_bounded(self):
        beta = 0.3
        ss = np.linspace(0.0, 30, 200)
        bs = [vasicek_factors(beta, s)[0] for s in ss]
        d = np.diff(bs)
        assert (d > 0).all()
        assert (np.diff(d) < 1e-12).all()
        assert all(0 <= b < 1 / beta for b in bs)


def exact_factors(beta, s, alpha, eta):
    """b, int b, int b^2, da/deta, a and |alpha int b| + |eta part of a| in 50-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        beta, s, alpha, eta = map(Decimal, (beta, s, alpha, eta))
        u = beta * s
        e1, e2 = (-u).exp() - 1, (-2 * u).exp() - 1
        ib = (u + e1) / beta**2
        g3 = (u / 2 + e1 - e2 / 4) / beta**3
        return (-e1 / beta, ib, 2 * g3, 2 * eta * g3, eta**2 * g3 - alpha * ib,
                abs(alpha * ib) + eta**2 * g3)


class TestFactorAccuracy:
    """The factors against 50-digit decimal, over the fit bounds and at tiny beta*s.

    The tolerance is three times the largest error seen over 40,000 such
    draws, 3.1e-15 of int b^2 just above SERIES_CUTOFF, where the closed form
    of G cancels 16-fold. Switching at beta*s = 1e-6 with separate series
    per factor, the errors reached 7.3e-4 (da/deta) and 4.2e-10 (int b) just
    above the switch.
    """

    RTOL = 1e-14

    @given(
        beta=log_uniform(*FIT_BOUNDS["beta"]),
        s=st.floats(0.01, 30.0),
        u=log_uniform(1e-9, 1e-3),
        tiny=st.booleans(),  # take s = u/beta instead
        alpha=st.floats(*FIT_BOUNDS["alpha"]),
        eta=st.floats(1e-8, FIT_BOUNDS["eta"][1]),  # da/deta of a subnormal eta underflows
    )
    @settings(max_examples=300)
    def test_relative_error(self, beta, s, u, tiny, alpha, eta):
        if tiny:
            s = u / beta
        p = VasicekParams(alpha=alpha, beta=beta, eta=eta, r=0.0)
        *exact, a_exact, a_size = exact_factors(beta, s, alpha, eta)
        b, ib, _, g3 = vasicek_factors(beta, s)
        got = (b, ib, 2 * g3, 2 * p.eta * g3)
        for name, value, want in zip(("b", "int b", "int b^2", "da/deta"), got, exact):
            assert abs(Decimal(value) - want) <= Decimal(self.RTOL) * abs(want), name
        a = vasicek_factors(beta, s, alpha, eta)[2]
        assert abs(Decimal(a) - a_exact) <= Decimal(self.RTOL) * a_size

    def test_h_and_g_are_continuous_across_the_cutoff(self):
        below = _h_g(math.nextafter(SERIES_CUTOFF, 0.0))  # series
        above = _h_g(SERIES_CUTOFF)  # closed forms
        for lo, hi in zip(below, above):
            assert lo < hi and hi - lo <= self.RTOL * hi


class TestFactorA:
    def test_zero_horizon(self):
        p = HIST_VASICEK
        assert vasicek_factors(p.beta, 0.0, p.alpha, p.eta)[2] == 0.0

    def test_quadrature_oracle(self):
        # a solves a' = eta^2 b^2 / 2 - alpha b with a(0) = 0
        p = HIST_VASICEK
        for s in (0.5, 3.0, 10.0):
            ref, _ = quad(
                lambda u: 0.5 * p.eta**2 * vasicek_factors(p.beta, u)[0] ** 2
                - p.alpha * vasicek_factors(p.beta, u)[0],
                0,
                s,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            assert vasicek_factors(p.beta, s, p.alpha, p.eta)[2] == pytest.approx(ref, abs=1e-12)

    def test_literal_closed_form(self):
        # (eta^2/2b^2 - a/b)s + (eta^2/b^3 - a/b^2)(e^{-bs}-1) - eta^2/(4b^3)(e^{-2bs}-1)
        p = VasicekParams(alpha=0.0037, beta=0.0872, eta=0.0241, r=0.05)
        for s in (0.25, 1.0, 5.0, 10.0):
            a, b, e = p.alpha, p.beta, p.eta
            literal = (
                (e**2 / (2 * b**2) - a / b) * s
                + (e**2 / b**3 - a / b**2) * (math.exp(-b * s) - 1)
                - e**2 / (4 * b**3) * (math.exp(-2 * b * s) - 1)
            )
            got = vasicek_factors(p.beta, s, p.alpha, p.eta)[2]
            assert got == pytest.approx(literal, abs=1e-13)

    def test_eta_part_exact_at_small_beta(self):
        # The closed form of the eta part cancels from O(beta*s) to
        # O((beta*s)^3); at small beta the series keeps it to rounding.
        beta = 1e-3
        # a(s) at (alpha=0, eta=1) minus a(s) at (alpha=0, eta=0)
        with localcontext() as ctx:
            ctx.prec = 50
            for s in (1e-3, 0.25, 2.0, 30.0, 600.0):
                u = Decimal(beta) * Decimal(s)
                exact = (u / 2 + ((-u).exp() - 1) - ((-2 * u).exp() - 1) / 4) / Decimal(beta) ** 3
                got = vasicek_factors(beta, s, 0.0, 1.0)[2] - vasicek_factors(beta, s, 0.0, 0.0)[2]
                assert abs(Decimal(got) - exact) <= Decimal(1e-14) * exact

    def test_eta_zero_reduction(self):
        p = VasicekParams(alpha=0.005, beta=0.1, eta=0.0, r=0.05)
        s = 1.0
        expected = -(p.alpha / p.beta) * s - (p.alpha / p.beta**2) * (math.exp(-p.beta * s) - 1)
        assert vasicek_factors(p.beta, s, p.alpha, p.eta)[2] == pytest.approx(expected, abs=1e-15)

    def test_integral_helpers_match_quadrature(self):
        beta = 0.22
        for s in (0.3, 2.0, 8.0):
            ib, _ = quad(lambda u: vasicek_factors(beta, u)[0], 0, s, epsabs=1e-14)
            ib2, _ = quad(lambda u: vasicek_factors(beta, u)[0] ** 2, 0, s, epsabs=1e-14)
            assert vasicek_factors(beta, s)[1] == pytest.approx(ib, abs=1e-12)
            assert 2 * vasicek_factors(beta, s)[3] == pytest.approx(ib2, abs=1e-12)


class TestRisklessBond:
    def test_par_at_zero(self):
        assert riskless_bond(HIST_VASICEK, 0.0) == 1.0

    def test_yield_at_zero_is_the_short_rate(self):
        assert vasicek_yield(HIST_VASICEK, 0.0) == HIST_VASICEK.r

    def test_against_ou_simulation(self):
        price = riskless_bond(HIST_VASICEK, 5.0)
        mc, se = ou_bond_mc(HIST_VASICEK, 5.0)
        assert price < 1
        assert abs(price - mc) < 3 * se

    def test_convexity_can_push_price_above_par(self):
        p = VasicekParams(alpha=0.0, beta=0.4, eta=0.15, r=0.001)
        price = riskless_bond(p, 5.0)
        assert price > 1
        mc, se = ou_bond_mc(p, 5.0)
        assert abs(price - mc) < 3 * se

    def test_deterministic_rate_consistency(self):
        # eta=0: -log B equals the time integral of the deterministic rate path
        p = VasicekParams(alpha=0.004, beta=0.25, eta=0.0, r=0.03)
        s = 4.0
        mean_rate = lambda u: p.r * math.exp(-p.beta * u) + p.alpha / p.beta * (
            1 - math.exp(-p.beta * u)
        )
        ref, _ = quad(mean_rate, 0, s, epsabs=1e-13)
        assert -math.log(riskless_bond(p, s)) == pytest.approx(ref, abs=1e-8)


class TestFitVasicek:
    def curve_from(self, p, maturities):
        return TreasuryCurve(points=tuple((s, vasicek_yield(p, s)) for s in maturities))

    def test_noise_free_recovery(self):
        truth = INDEX_VASICEK
        curve = self.curve_from(truth, [1 / 12, 0.25, 0.5, 1, 2, 3, 5, 7, 10, 20])
        fitted = fit_vasicek(curve, r_proxy=truth.r)
        assert abs(fitted.alpha - truth.alpha) < 1e-4
        assert abs(fitted.beta - truth.beta) < 1e-4
        assert abs(fitted.eta - truth.eta) < 1e-4

    def test_flat_curve(self):
        r = 0.045
        curve = TreasuryCurve(points=tuple((s, r) for s in [0.25, 1, 2, 5, 10]))
        fitted = fit_vasicek(curve, r_proxy=r)
        assert abs(fitted.alpha - fitted.beta * r) < 1e-4
        assert fitted.eta < 1e-3

    def test_three_point_curve_converges(self):
        truth = VasicekParams(alpha=0.01, beta=0.3, eta=0.01, r=0.04)
        curve = self.curve_from(truth, [0.5, 2, 7])
        fitted = fit_vasicek(curve, r_proxy=truth.r)
        assert curve_rmse(fitted, curve) < 1e-6

    def test_default_proxy_is_shortest_yield(self):
        truth = INDEX_VASICEK
        curve = self.curve_from(truth, [1 / 12, 1, 5, 10])
        fitted = fit_vasicek(curve)
        assert fitted.r == curve.points[0][1]

    def test_non_finite_sse_raises(self):
        curve = self.curve_from(INDEX_VASICEK, TREASURY_MATURITIES)
        with pytest.raises(NumericalError):
            fit_vasicek(curve, r_proxy=1e300)

    def test_overflowing_curve_raises(self):
        # Yields of +-1e308 overflow the projection to NaN.
        curve = TreasuryCurve(points=tuple(
            (s, 1e308 * (-1) ** i) for i, s in enumerate(TREASURY_MATURITIES)))
        with pytest.raises(NumericalError):
            fit_vasicek(curve, r_proxy=0.05)

    def test_non_finite_proxy_is_rejected(self):
        curve = self.curve_from(INDEX_VASICEK, TREASURY_MATURITIES)
        with pytest.raises(ValidationError):
            fit_vasicek(curve, r_proxy=math.nan)

    def test_deep_minimum_on_a_kink(self):
        # At alpha on its bound and eta near 0 the profile over beta has its
        # minimum on a kink (eta^2 reaches 0 there), while a shallow basin near
        # beta = 0.5 fits to an rmse of 4e-11; only a full polish of both ranks them.
        truth = VasicekParams(alpha=0.5, beta=1.0, eta=1e-4, r=0.0)
        curve = self.curve_from(truth, TREASURY_MATURITIES)
        assert curve_rmse(fit_vasicek(curve, r_proxy=truth.r), curve) <= 1e-12

    @given(
        alpha=st.floats(*FIT_BOUNDS["alpha"]),
        # small beta, where the eta part cancels most, as often as large
        beta=log_uniform(*FIT_BOUNDS["beta"]),
        eta=st.floats(*FIT_BOUNDS["eta"]),
        r=st.floats(0.0, 0.1),
    )
    @settings(max_examples=100)
    def test_recovers_exact_curves(self, alpha, beta, eta, r):
        truth = VasicekParams(alpha=alpha, beta=beta, eta=eta, r=r)
        curve = self.curve_from(truth, TREASURY_MATURITIES)
        assert curve_rmse(fit_vasicek(curve, r_proxy=r), curve) <= 1e-12

    @staticmethod
    def noisy(truth, seed, bp=3.0):
        rng = np.random.default_rng(seed)
        return TreasuryCurve(points=tuple(
            (s, vasicek_yield(truth, s) + bp * 1e-4 * rng.standard_normal())
            for s in TREASURY_MATURITIES))

    @pytest.mark.parametrize("case", ["default-proxy", "misfit-proxy", "noisy-1", "noisy-2",
                                      "noisy-3"])
    def test_no_worse_than_nelder_mead(self, case):
        curve, r_proxy = {
            "default-proxy": (self.curve_from(INDEX_VASICEK, TREASURY_MATURITIES), None),
            "misfit-proxy": (self.curve_from(SURFACE_VASICEK, TREASURY_MATURITIES),
                             SURFACE_VASICEK.r + 0.004),
            "noisy-1": (self.noisy(HIST_VASICEK, 1), HIST_VASICEK.r),
            "noisy-2": (self.noisy(SURFACE_VASICEK, 2), SURFACE_VASICEK.r),
            "noisy-3": (self.noisy(INDEX_VASICEK, 3, bp=10.0), None),
        }[case]
        reference = curve_sse(fit_vasicek_nelder_mead(curve, r_proxy), curve)
        assert reference > 1e-12  # a misfit, not an exact curve
        assert curve_sse(fit_vasicek(curve, r_proxy), curve) <= reference * (1 + 1e-12)


class TestBoundHits:
    def test_interior_fit_names_no_bound(self):
        curve = TreasuryCurve(points=tuple(
            (s, vasicek_yield(SURFACE_VASICEK, s)) for s in TREASURY_MATURITIES))
        assert at_bound(fit_vasicek(curve, SURFACE_VASICEK.r)) == []

    @staticmethod
    def negative_eta2_curve(p, eta2):
        """Yields of the affine form at eta^2 = eta2 < 0, which no Vasicek model produces.

        The eta part of a(s) is eta^2 times a(s) at (alpha=0, eta=1).
        """
        return TreasuryCurve(points=tuple(
            (s, vasicek_yield(p, s) - eta2 * vasicek_factors(p.beta, s, 0.0, 1.0)[2] / s)
            for s in TREASURY_MATURITIES))

    def test_eta_stops_at_zero(self):
        p = VasicekParams(alpha=0.0063, beta=0.5, eta=0.0, r=0.0476)
        fitted = fit_vasicek(self.negative_eta2_curve(p, -1e-3), p.r)
        assert fitted.eta == 0.0
        assert at_bound(fitted) == ["eta"]

    def test_beta_stops_at_its_lower_bound(self):
        p = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.0, r=0.0476)
        fitted = fit_vasicek(self.negative_eta2_curve(p, -1e-3), p.r)
        assert fitted.beta == FIT_BOUNDS["beta"][0]
        assert at_bound(fitted) == ["beta"]

    def test_long_run_rate_beyond_alpha_bound(self):
        truth = VasicekParams(alpha=0.8, beta=1.0, eta=0.05, r=0.05)
        curve = TreasuryCurve(points=tuple(
            (s, vasicek_yield(truth, s)) for s in TREASURY_MATURITIES))
        fitted = fit_vasicek(curve, truth.r)
        assert fitted.alpha == FIT_BOUNDS["alpha"][1]
        assert "alpha" in at_bound(fitted)


# Finite parameters whose powers or riskless bond leave the float range; beta**3
# underflows to 0 at beta = 1e-200.
EXTREME_PARAMETERS = (("beta", 1e200), ("beta", 1e-200), ("eta", 1e200), ("sigma2", 1e200),
                      ("eta", 1e153), ("alpha", -1e200), ("r", -1e200))


class TestOverflowNamesTheParameter:
    """A huge but finite parameter raises NumericalError naming it, never a bare OverflowError."""

    @staticmethod
    def huge(name, value=1e200):
        """(vasicek, equity) of the surface example with ``name`` set to ``value``."""
        va, eq = dict(vars(SURFACE_VASICEK)), dict(vars(SURFACE_EQUITY))
        (eq if name in eq else va)[name] = value
        return VasicekParams(**va), EquityParams(**eq)

    # A bond has no equity leg, so sigma2 does not reach it.
    @pytest.mark.parametrize("kind, name, value", [
        (kind, name, value) for kind in ("call", "put", "bond") for name, value in EXTREME_PARAMETERS
        if (kind, name) != ("bond", "sigma2")])
    def test_price_full(self, kind, name, value):
        va, eq = self.huge(name, value)
        pin = PricingInputs(va, eq, CreditParams(0.4, 0.03), 0.5, None if kind == "bond" else 8.0)
        with pytest.raises(NumericalError, match=re.escape(f"{name} = {value:g}")):
            price_full(pin, CorrectionParams(), kind)

    # The kernel's riskless bond exp(a - b*r) overflows here, and its error names the parameter.
    @pytest.mark.parametrize("name, value", [("eta", 1e153), ("alpha", -1e200), ("r", -1e200)])
    def test_call_p0(self, name, value):
        pin = PricingInputs(*self.huge(name, value), CreditParams(0.4, 0.03), 0.5, 8.0)
        with pytest.raises(NumericalError, match=re.escape(f"{name} = {value:g}")):
            call_p0(pin)

    @pytest.mark.parametrize("name", ["sigma2", "eta"])
    def test_variance_v(self, name):
        pin = PricingInputs(*self.huge(name), CreditParams(1.0, 0.03), 0.5, 8.0)
        with pytest.raises(NumericalError, match=re.escape(f"{name} = 1e+200")):
            variance_v(pin)

    @pytest.mark.parametrize("name", ["beta", "eta"])
    def test_vasicek_yield(self, name):
        with pytest.raises(NumericalError, match=re.escape(f"{name} = 1e+200")):
            vasicek_yield(self.huge(name)[0], 2.0)

    @pytest.mark.parametrize("name", ["beta", "eta"])
    def test_cds_spread(self, name):
        va, _ = self.huge(name)
        fit = ModelFit(va, SURFACE_EQUITY, CreditParams(0.4, 0.03), CorrectionParams(v3=0.01))
        with pytest.raises(NumericalError, match=re.escape(f"{name} = 1e+200")):
            cds_spread(fit, annual_schedule(3.0))

    @pytest.mark.parametrize("name", ["beta", "eta", "sigma2"])
    def test_fit_options(self, name):
        credit = CreditParams(0.3, 0.05)
        bonds = make_bond_quotes(SURFACE_VASICEK, credit, CorrectionParams())
        options = make_option_quotes(SURFACE_VASICEK, SURFACE_EQUITY, 0.05, CorrectionParams(),
                                     ROUNDTRIP_GRID)
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        with pytest.raises(NumericalError, match=re.escape(f"{name} = 1e+200")):
            fit_options(options, bond_fit, *self.huge(name))


def business_days(n, start=dt.date(2006, 1, 2)):
    days, d = [], start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


class TestEquityParams:
    @pytest.mark.parametrize("name", ["q", "sigma1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValidationError, match=str(value)):
            EquityParams(x=8.0, sigma2=0.3, rho1=0.0, **{name: value})


class TestHistoricalEstimators:
    def test_constant_series_has_zero_vol(self):
        hist = PriceHistory(points=tuple((d, 10.0) for d in business_days(60)))
        assert estimate_sigma2(hist) == 0.0

    def test_gbm_recovery(self):
        rng = np.random.default_rng(5)
        sigma, n = 0.3827, 10_000
        rets = sigma / math.sqrt(252) * rng.standard_normal(n)
        prices = 8.0 * np.exp(np.cumsum(rets))
        hist = PriceHistory(points=tuple(zip(business_days(n), prices)))
        # sampling error bound ~ sigma / sqrt(2n)
        assert abs(estimate_sigma2(hist) - sigma) < 0.02

    def test_alternating_returns_closed_form(self):
        up, down = math.log(1.01), math.log(0.99)
        n = 100
        prices, p = [], 10.0
        for i in range(n):
            prices.append(p)
            p *= 1.01 if i % 2 == 0 else 0.99
        hist = PriceHistory(points=tuple(zip(business_days(n), prices)))
        expected = np.std([up, down] * ((n - 1) // 2) + [up], ddof=1) * math.sqrt(252)
        assert estimate_sigma2(hist) == pytest.approx(expected, rel=1e-12)

    def test_too_short_history(self):
        hist = PriceHistory(points=tuple((d, 10.0) for d in business_days(10)))
        with pytest.raises(ValidationError):
            estimate_sigma2(hist)

    def test_perfect_correlation_clamps(self):
        days = business_days(200)
        rng = np.random.default_rng(6)
        rates = 0.05 + np.cumsum(1e-4 * rng.standard_normal(200))
        stock = np.exp(np.cumsum(np.concatenate([[0.0], np.diff(rates)])))
        stock_hist = PriceHistory(points=tuple(zip(days, stock)))
        rate_hist = PriceHistory(points=tuple(zip(days, rates)))
        assert estimate_rho1(stock_hist, rate_hist) == pytest.approx(0.999)

    def test_anticorrelation_clamps(self):
        days = business_days(200)
        rng = np.random.default_rng(8)
        rates = 0.05 + np.cumsum(1e-4 * rng.standard_normal(200))
        stock = np.exp(np.cumsum(np.concatenate([[0.0], -np.diff(rates)])))
        stock_hist = PriceHistory(points=tuple(zip(days, stock)))
        rate_hist = PriceHistory(points=tuple(zip(days, rates)))
        assert estimate_rho1(stock_hist, rate_hist) == pytest.approx(-0.999)

    def test_independent_series_near_zero(self):
        n = 10_000
        days = business_days(n)
        rng = np.random.default_rng(9)
        stock = np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
        rates = 0.05 + np.cumsum(1e-4 * rng.standard_normal(n))
        rho = estimate_rho1(
            PriceHistory(points=tuple(zip(days, stock))),
            PriceHistory(points=tuple(zip(days, rates))),
        )
        assert abs(rho) < 0.05

    @pytest.mark.parametrize("value", [0.0, -10.0])
    def test_non_positive_stock_value_is_named(self, value):
        days = business_days(40)
        stock = PriceHistory(points=tuple((d, value if i == 25 else 10.0 + i % 3)
                                          for i, d in enumerate(days)))
        rates = PriceHistory(points=tuple((d, 0.05 + 1e-4 * (i % 5)) for i, d in enumerate(days)))
        for estimate in (lambda: estimate_sigma2(stock), lambda: estimate_rho1(stock, rates)):
            with pytest.raises(ValidationError, match=f"stock value at {days[25]}"):
                estimate()

    @pytest.mark.parametrize("value", [3.477766014398386e270, -3.477766014398386e270, 1e308])
    def test_rate_series_out_of_float_range_is_not_clamped(self, value):
        # The squares of the rate differences overflow, and corrcoef gives a
        # meaningless 0 or nan that the clamp to [-0.999, 0.999] would pass on.
        days = business_days(40)
        stock = PriceHistory(points=tuple((d, 10.0 + i % 3) for i, d in enumerate(days)))
        rates = PriceHistory(points=tuple((d, value if i == 20 else 0.05 + 1e-4 * (i % 5))
                                          for i, d in enumerate(days)))
        with pytest.raises(NumericalError, match="^correlation is not finite: "):
            estimate_rho1(stock, rates)

    def test_spot_rates_may_touch_and_cross_zero(self):
        days = business_days(60)
        rng = np.random.default_rng(12)
        rates = 1e-3 * np.cumsum(rng.standard_normal(60))
        rates[20] = 0.0
        stock = np.exp(np.cumsum(0.01 * rng.standard_normal(60)))
        rate_hist = PriceHistory(points=tuple(zip(days, rates)))
        assert (rates < 0).any() and (rates > 0).any()
        rho = estimate_rho1(PriceHistory(points=tuple(zip(days, stock))), rate_hist)
        assert abs(rho) < 1

    def test_no_overlap_errors(self):
        a = PriceHistory(points=tuple((d, 10.0) for d in business_days(40)))
        b = PriceHistory(
            points=tuple((d, 0.05) for d in business_days(40, start=dt.date(2010, 1, 4)))
        )
        with pytest.raises(ValidationError):
            estimate_rho1(a, b)
