import math

import numpy as np
import pytest
from scipy.integrate import quad

from credeq.errors import ValidationError
from credeq.implied_vol import bs_price
from credeq.pricing import CreditParams, PricingInputs, call_p0, defaultable_bond_p0, put_p0
from credeq.rates import EquityParams, VasicekParams, riskless_bond, vasicek_factors, vasicek_yield

from conftest import SURFACE_EQUITY, SURFACE_LAMBDA, SURFACE_VASICEK
import reference_oracles as ref
from reference_oracles import _survival_bond, generic_p0, mean_m, variance_v


def random_inputs(rng, with_strike=True, l=None):
    va = VasicekParams(
        alpha=rng.uniform(-0.05, 0.05),
        beta=rng.uniform(0.02, 1.5),
        eta=rng.uniform(0.0, 0.08),
        r=rng.uniform(0.0, 0.10),
    )
    eq = EquityParams(
        x=rng.uniform(1, 200),
        sigma2=rng.uniform(0.08, 0.9),
        rho1=rng.uniform(-0.9, 0.9),
    )
    cr = CreditParams(l=rng.uniform(0, 1) if l is None else l, lam=rng.uniform(0, 1.0))
    tau = rng.uniform(0.02, 10)
    strike = eq.x * rng.uniform(0.3, 2.5) if with_strike else None
    return PricingInputs(va, eq, cr, tau, strike)


class TestInputs:
    @pytest.mark.parametrize("strike", [0.0, -1.0, math.inf, math.nan])
    def test_strike_must_be_finite_and_positive(self, strike):
        with pytest.raises(ValidationError, match="strike must be finite and > 0"):
            PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, 0.1), 1.0, strike)


class TestWrappersEqualReference:
    def test_bit_for_bit(self):
        # An explicit seeded list rather than hypothesis, whose draws mix in
        # literals from the library source and so move when it is edited.
        rng = np.random.default_rng(21)
        for _ in range(3000):
            va = VasicekParams(alpha=rng.uniform(-0.05, 0.05), beta=rng.uniform(0.02, 1.5),
                               eta=rng.uniform(0.0, 0.08), r=rng.uniform(0.0, 0.10))
            x = rng.uniform(1, 200)
            eq = EquityParams(x=x, sigma2=rng.uniform(0.08, 0.9), rho1=rng.uniform(-0.9, 0.9),
                              q=rng.uniform(0.0, 0.06))
            cr = CreditParams(l=rng.uniform(0, 1), lam=rng.uniform(0, 1.0))
            tau = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
            pin = PricingInputs(va, eq, cr, tau, x * rng.uniform(0.3, 3.0))
            assert call_p0(pin) == ref.call_p0(pin), pin
            assert put_p0(pin) == ref.put_p0(pin), pin
            assert defaultable_bond_p0(pin) == ref.defaultable_bond_p0(pin), pin


class TestVarianceV:
    def test_zero_at_zero_horizon(self):
        pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, 0.1), 0.0)
        assert variance_v(pin) == 0.0

    def test_eta_zero_is_lognormal_variance(self):
        va = VasicekParams(alpha=0.01, beta=0.2, eta=0.0, r=0.05)
        pin = PricingInputs(va, SURFACE_EQUITY, CreditParams(1, 0.0), 2.0)
        assert variance_v(pin) == pytest.approx(SURFACE_EQUITY.sigma2**2 * 2.0, abs=1e-15)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pin = random_inputs(rng)
            va, eq = pin.vasicek, pin.equity
            ref, _ = quad(
                lambda s: eq.sigma2**2
                + (va.eta * vasicek_factors(va.beta, s)[0]) ** 2
                + 2 * eq.rho1 * eq.sigma2 * va.eta * vasicek_factors(va.beta, s)[0],
                0,
                pin.tau,
                epsabs=1e-14,
                epsrel=1e-13,
                limit=200,
            )
            assert variance_v(pin) == pytest.approx(ref, abs=1e-10)

    def test_literal_closed_form(self):
        # the three-exponential display, transcribed term by term
        rng = np.random.default_rng(17)
        for _ in range(50):
            pin = random_inputs(rng)
            va, eq, tau = pin.vasicek, pin.equity, pin.tau
            beta, eta = va.beta, va.eta
            c = eta * eq.rho1 * eq.sigma2
            literal = (
                (eq.sigma2**2 + 2 * c / beta + eta**2 / beta**2) * tau
                + (2 * c / beta**2 + 2 * eta**2 / beta**3) * math.exp(-beta * tau)
                - eta**2 / (2 * beta**3) * math.exp(-2 * beta * tau)
                - (2 * c / beta**2 + 1.5 * eta**2 / beta**3)
            )
            assert variance_v(pin) == pytest.approx(literal, abs=1e-11 * max(1, literal))

    def test_surface_params_one_year(self):
        pin = PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, SURFACE_LAMBDA), 1.0
        )
        va, eq = pin.vasicek, pin.equity
        ref, _ = quad(
            lambda s: eq.sigma2**2
            + (va.eta * vasicek_factors(va.beta, s)[0]) ** 2
            + 2 * eq.rho1 * eq.sigma2 * va.eta * vasicek_factors(va.beta, s)[0],
            0,
            1.0,
            epsabs=1e-14,
        )
        assert variance_v(pin) == pytest.approx(ref, abs=1e-10)


class TestDefaultableBond:
    def test_zero_loss_is_riskless(self):
        pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(0.0, 0.3), 5.0)
        assert defaultable_bond_p0(pin) == riskless_bond(SURFACE_VASICEK, 5.0)

    def test_factorization(self):
        va = VasicekParams(alpha=0.0037, beta=0.0872, eta=0.0001, r=0.0516)
        cr = CreditParams(l=0.283, lam=0.0459)
        pin = PricingInputs(va, SURFACE_EQUITY, cr, 5.0)
        expected = riskless_bond(va, 5.0) * math.exp(-0.283 * 0.0459 * 5.0)
        assert defaultable_bond_p0(pin) == pytest.approx(expected, rel=1e-15)

    def test_certain_total_loss_wipes_value(self):
        pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1.0, 1e6), 1.0)
        assert defaultable_bond_p0(pin) == pytest.approx(0.0, abs=1e-300)


class TestCallPut:
    def test_put_call_parity_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pin = random_inputs(rng, l=1.0)
            lhs = ref.call_p0(pin) - ref.put_p0(pin)
            rhs = pin.equity.x - pin.strike * riskless_bond(pin.vasicek, pin.tau)
            assert abs(lhs - rhs) <= 1e-12 * pin.equity.x

    def test_degenerate_strike(self):
        pin = PricingInputs(
            SURFACE_VASICEK,
            SURFACE_EQUITY,
            CreditParams(1, SURFACE_LAMBDA),
            0.5,
            1e-10 * SURFACE_EQUITY.x,
        )
        price = call_p0(pin)
        # the residual K * Bc(1) leg bounds the gap to the stock itself
        assert abs(price - SURFACE_EQUITY.x) < 2e-10 * SURFACE_EQUITY.x
        assert price == pytest.approx(
            SURFACE_EQUITY.x - pin.strike * _survival_bond(pin), abs=1e-12 * SURFACE_EQUITY.x
        )

    def test_reduces_to_black_scholes(self):
        # no default risk, deterministic rates: flat-rate BS at the zero yield
        va = VasicekParams(alpha=0.008, beta=0.2, eta=0.0, r=0.04)
        eq = EquityParams(x=100.0, sigma2=0.25, rho1=0.3)
        pin = PricingInputs(va, eq, CreditParams(1, 0.0), 1.5, 95.0)
        rate = vasicek_yield(va, 1.5)
        assert call_p0(pin) == pytest.approx(
            bs_price(100.0, 95.0, 1.5, rate, 0.25, "call"), rel=1e-12
        )
        assert put_p0(pin) == pytest.approx(
            bs_price(100.0, 95.0, 1.5, rate, 0.25, "put"), rel=1e-12
        )

    def test_put_worthless_stock_leaves_riskless_claim(self):
        eq = EquityParams(x=1e-10, sigma2=0.3, rho1=0.0)
        pin = PricingInputs(SURFACE_VASICEK, eq, CreditParams(1, 0.05), 2.0, 8.0)
        assert put_p0(pin) == pytest.approx(
            8.0 * riskless_bond(SURFACE_VASICEK, 2.0), rel=1e-9
        )

    def test_put_certain_default_pays_strike(self):
        pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, 1e3), 1.0, 8.0)
        assert put_p0(pin) == pytest.approx(
            8.0 * riskless_bond(SURFACE_VASICEK, 1.0), abs=1e-6
        )

    def test_call_monotone_and_convex_in_strike(self):
        cr = CreditParams(1, SURFACE_LAMBDA)
        strikes = np.linspace(2.0, 16.0, 40)
        prices = [
            call_p0(PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, cr, 1.0, k))
            for k in strikes
        ]
        d = np.diff(prices)
        assert (d <= 1e-12).all()
        assert (np.diff(d) >= -1e-12).all()

    def test_nonnegative_prices(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pin = random_inputs(rng, l=1.0)
            assert call_p0(pin) >= 0
            assert put_p0(pin) >= 0

    def test_strike_required(self):
        pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, 0.1), 1.0)
        with pytest.raises(ValidationError):
            call_p0(pin)


class TestGenericQuadrature:
    def pin(self, l=1.0, tau=0.5):
        return PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(l, SURFACE_LAMBDA), tau, 8.04
        )

    def test_unit_payoff_is_bond(self):
        pin = self.pin(l=0.4)
        assert generic_p0(pin, lambda s: np.ones_like(s)) == pytest.approx(
            ref.defaultable_bond_p0(pin), abs=1e-12
        )

    def test_call_payoff_matches_closed_form(self):
        pin = self.pin()
        val = generic_p0(pin, lambda s: np.maximum(s - 8.04, 0.0))
        assert val == pytest.approx(ref.call_p0(pin), abs=1e-8 * 8.04)

    def test_put_payoff_matches_pure_option_leg(self):
        # the quadrature prices only the survival-contingent leg; the closed
        # form adds the pay-strike-on-default claim on top
        pin = self.pin()
        leg = generic_p0(pin, lambda s: np.maximum(8.04 - s, 0.0))
        default_claim = 8.04 * (riskless_bond(SURFACE_VASICEK, 0.5) - _survival_bond(pin))
        assert leg + default_claim == pytest.approx(ref.put_p0(pin), abs=1e-8 * 8.04)

    def test_identity_payoff_martingale_drift(self):
        for l in (1.0, 0.3):
            pin = self.pin(l=l)
            expected = SURFACE_EQUITY.x * math.exp((1 - l) * SURFACE_LAMBDA * 0.5)
            assert generic_p0(pin, lambda s: s) == pytest.approx(expected, rel=1e-10)

    def test_indicator_partition_sums_to_bond(self):
        pin = self.pin(l=0.7)
        cuts = [0.0, 4.0, 7.0, 8.5, 12.0, math.inf]
        total = sum(
            generic_p0(pin, lambda s, a=a, b=b: np.where((s >= a) & (s < b), 1.0, 0.0))
            for a, b in zip(cuts[:-1], cuts[1:])
        )
        assert total == pytest.approx(ref.defaultable_bond_p0(pin), abs=1e-8)

    def test_zero_horizon_degenerates_to_payoff(self):
        pin = PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, SURFACE_LAMBDA), 0.0, 8.0
        )
        assert generic_p0(pin, lambda s: np.maximum(s - 8.0, 0.0)) == pytest.approx(0.04)

    def test_mean_includes_full_intensity_drift(self):
        # the log-price mean carries lambda*tau for every loss rate
        pin_a, pin_b = self.pin(l=1.0), self.pin(l=0.2)
        assert mean_m(pin_a) == mean_m(pin_b)

    def test_non_finite_payoff_rejected(self):
        from credeq.errors import NumericalError

        pin = self.pin()
        with pytest.raises(NumericalError):
            generic_p0(pin, lambda s: np.where(s > 8.04, np.inf, 1.0))
