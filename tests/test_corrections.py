import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credeq.corrections import (
    _MIN_VARIANCE,
    CorrectionParams,
    _evaluate,
    evaluate_options,
    price_full,
    price_p0,
)
from credeq.errors import DomainError, ValidationError
from credeq.pricing import CreditParams, PricingInputs, norm_cdf, norm_pdf
from credeq.rates import EquityParams, VasicekParams, vasicek_factors

from conftest import (
    SURFACE_COEFFS,
    SURFACE_EQUITY,
    SURFACE_LAMBDA,
    SURFACE_VASICEK,
    greeks,
    log_uniform,
)
from reference_oracles import (
    FD_STEP_PARAM,
    _log_survival_bond,
    _reprice,
    _richardson_d1,
    _survival_bond,
    call_p0,
    defaultable_bond_p0,
    greeks_fd,
    variance_v,
)


def random_point(rng):
    va = VasicekParams(
        alpha=rng.uniform(-0.03, 0.05),
        beta=rng.uniform(0.05, 1.0),
        eta=rng.uniform(0.006, 0.05),
        r=rng.uniform(0.0, 0.08),
    )
    eq = EquityParams(
        x=rng.uniform(2, 150),
        sigma2=rng.uniform(0.15, 0.6),
        rho1=rng.uniform(-0.8, 0.8),
        q=float(rng.choice([0.0, 0.02])),
    )
    cr = CreditParams(l=rng.uniform(0, 1), lam=rng.uniform(0, 0.2))
    tau = rng.uniform(0.25, 3)
    strike = eq.x * rng.uniform(0.75, 1.35)
    return PricingInputs(va, eq, cr, tau, strike)


def greek_errors(pin, kind):
    """Per-component mismatch between analytic and finite-difference Greeks.

    Near-zero components are measured against 5e-3 of the vector's sup
    norm, where the FD oracle itself is noise-limited.
    """
    analytic = greeks(pin, kind)
    fd = greeks_fd(pin, kind)
    scale = max(abs(t) for t in fd)
    return [abs(a - f) / max(abs(f), 5e-3 * scale) for a, f in zip(analytic, fd)]


class TestGreeksAgainstFiniteDifferences:
    def test_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            pin = random_point(rng)
            for kind in ("call", "put", "bond"):
                errs = greek_errors(pin, kind)
                assert max(errs) <= 1e-5, (kind, errs)

    def test_dollar_gamma_closed_form(self):
        # x^2 d2C/dx2 = x * pdf(d1) / sqrt(v), cross-checked by differences
        pin = PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, SURFACE_LAMBDA), 0.75, 8.5
        )
        g = greeks(pin, "call")
        fd = greeks_fd(pin, "call")
        assert g[0] == pytest.approx(fd[0], rel=1e-7)
        gamma2 = -g[0] / 0.75
        v = variance_v(pin)
        d1 = (math.log(8.04 / 8.5) - _log_survival_bond(pin) + 0.5 * v) / math.sqrt(v)
        assert gamma2 == pytest.approx(8.04 * norm_pdf(d1) / math.sqrt(v), rel=1e-13)

    def test_literal_call_greek_displays(self):
        # g3, g4, g6 match their explicit call-side closed forms
        pin = PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, SURFACE_LAMBDA), 1.25, 7.6
        )
        va, tau, strike = SURFACE_VASICEK, 1.25, 7.6
        v = variance_v(pin)
        sv = math.sqrt(v)
        lr = math.log(SURFACE_EQUITY.x / strike) - _log_survival_bond(pin)
        d1, d2 = (lr + v / 2) / sv, (lr - v / 2) / sv
        bbar = _survival_bond(pin)
        big_a = tau / va.beta + (math.exp(-va.beta * tau) - 1) / va.beta**2
        g = greeks(pin, "call")
        assert g[2] == pytest.approx(
            -strike * bbar * big_a * (norm_cdf(d2) - norm_pdf(d2) / sv), rel=1e-13
        )
        x_gamma = SURFACE_EQUITY.x * norm_pdf(d1) / sv
        assert g[3] == pytest.approx(-x_gamma * d1 * big_a / sv, rel=1e-13)
        assert g[5] == pytest.approx(x_gamma * big_a, rel=1e-13)
        assert g[1] == pytest.approx(-tau * x_gamma * (1 - d1 / sv), rel=1e-13)

    def test_deep_otm_greeks_vanish(self):
        pin = PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, SURFACE_LAMBDA), 1.0, 1e6 * 8.04
        )
        g = greeks(pin, "call")
        assert all(abs(t) < 1e-12 for t in (g[0], g[1], g[3], g[4], g[5], g[6]))

    def test_bond_greek_structure(self):
        cr = CreditParams(l=0.4, lam=0.08)
        pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, cr, 3.0)
        g = greeks(pin, "bond")
        assert (g[0], g[1], g[3], g[4], g[5], g[6]) == (0, 0, 0, 0, 0, 0)
        bond = defaultable_bond_p0(pin)
        beta, tau = SURFACE_VASICEK.beta, 3.0
        da = -bond * (tau / beta + (math.exp(-beta * tau) - 1) / beta**2)
        assert g[2] == pytest.approx(da, rel=1e-13)
        b = vasicek_factors(beta, tau)[0]
        assert g[7] == pytest.approx(
            (-da + 0.5 * tau * tau * bond - tau * b * bond) / beta, rel=1e-13
        )


def exact_j(beta, tau):
    """J = tau^2/(2 beta) - (1 - exp(-u)(1 + u))/beta^3, u = beta*tau, in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        beta, tau = Decimal(beta), Decimal(tau)
        u = beta * tau
        return tau * tau / (2 * beta) - (1 - (-u).exp() * (1 + u)) / beta**3


class TestG8AgainstDecimal:
    """g8 = J * D, with J against its 60-digit closed form, over beta in [1e-8, 5].

    The bound is fixed from float64: J = int b^2 + beta/2 (int b)^2 adds two
    non-negative terms, so its error is that of int b^2, within 3.1e-15 (the
    budget of ``rates._h_g``), plus a few ulps of the products.
    """

    RTOL = Decimal("5e-15")

    @given(
        beta=log_uniform(1e-8, 5.0),
        tau=log_uniform(1e-3, 30.0),
        alpha=st.floats(-0.03, 0.05),
        eta=st.floats(0.0, 0.05),
        r=st.floats(0.0, 0.08),
        l_lambda=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_bond(self, beta, tau, alpha, eta, r, l_lambda):
        va = VasicekParams(alpha=alpha, beta=beta, eta=eta, r=r)
        pin = PricingInputs(va, SURFACE_EQUITY, CreditParams(1.0, l_lambda), tau)
        bond, g8 = price_p0(pin, "bond"), greeks(pin, "bond")[7]
        want = exact_j(beta, tau)
        assert abs(Decimal(g8) / Decimal(bond) - want) <= self.RTOL * want

    @given(
        beta=log_uniform(1e-8, 5.0),
        tau=log_uniform(1e-3, 30.0),
        alpha=st.floats(-0.03, 0.05),
        eta=st.floats(0.0, 0.05),
        r=st.floats(0.0, 0.08),
        lam=st.floats(0.0, 0.5),
        moneyness=st.floats(0.75, 1.35),
        put=st.booleans(),
    )
    @settings(max_examples=300)
    def test_option(self, beta, tau, alpha, eta, r, lam, moneyness, put):
        # D is the kernel's own, read back from g3 = int b * D: the test pins
        # the identity g8 = J * D, not the rounding of D.
        va = VasicekParams(alpha=alpha, beta=beta, eta=eta, r=r)
        eq = SURFACE_EQUITY
        pin = PricingInputs(va, eq, CreditParams(1.0, lam), tau, moneyness * eq.x)
        g = greeks(pin, "put" if put else "call")
        d = Decimal(g[2]) / Decimal(vasicek_factors(beta, tau)[1])
        want = exact_j(beta, tau) * d
        assert abs(Decimal(g[7]) - want) <= self.RTOL * abs(want)


class TestRemarkStyleIdentity:
    def test_dalpha_expressible_through_rate_greeks(self):
        # -dP/dalpha = (1/beta) [ -tau (x P_x - P) + P_r ] for every kind
        rng = np.random.default_rng(3)
        for _ in range(100):
            pin = random_point(rng)
            for kind in ("call", "put", "bond"):
                p0, (x_dpdx, dp_da, dp_dr), _ = _evaluate(pin, kind)
                lhs = -dp_da
                rhs = (-pin.tau * (x_dpdx - p0) + dp_dr) / pin.vasicek.beta
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pin = random_point(rng)
            for kind in ("call", "put", "bond"):
                p0, (x_dpdx, dp_da, dp_dr), _ = _evaluate(pin, kind)
                assert p0 == pytest.approx(price_p0(pin, kind), rel=1e-13)
                fd_da = _richardson_d1(
                    lambda a: _reprice(pin, kind, alpha=a), pin.vasicek.alpha, FD_STEP_PARAM
                )
                fd_dr = _richardson_d1(
                    lambda r: _reprice(pin, kind, r=r), pin.vasicek.r, FD_STEP_PARAM
                )
                assert dp_da == pytest.approx(fd_da, abs=2e-8 * max(1, abs(fd_da)))
                assert dp_dr == pytest.approx(fd_dr, abs=2e-8 * max(1, abs(fd_dr)))


FAST = ("v1", "v2", "v3", "v4", "v5", "v6")


class TestCorrectionAssembly:
    def pin(self, kind_l=0.3, tau=1.0):
        return PricingInputs(
            SURFACE_VASICEK,
            SURFACE_EQUITY,
            CreditParams(kind_l, SURFACE_LAMBDA),
            tau,
            8.04,
        )

    def correction(self, pin, coeffs, kind):
        """price_full minus P0: the fast plus slow correction that coeffs select."""
        return price_full(pin, coeffs, kind) - price_p0(pin, kind)

    def test_zero_coefficients_zero_adjustment(self):
        zero = CorrectionParams()
        for kind in ("call", "put", "bond"):
            assert self.correction(self.pin(), zero, kind) == 0.0

    def test_bond_fast_correction_is_loss_scaled_alpha_sensitivity(self):
        only_v3 = CorrectionParams(v3=0.0425)
        pin = self.pin(kind_l=0.283, tau=5.0)
        g = greeks(pin, "bond")
        assert self.correction(pin, only_v3, "bond") == pytest.approx(
            0.283 * 0.0425 * g[2], rel=1e-14
        )

    def test_bond_slow_correction_bracket(self):
        only_w2 = CorrectionParams(w2=0.0036)
        pin = self.pin(kind_l=0.283, tau=5.0)
        bond = defaultable_bond_p0(pin)
        beta, tau = pin.vasicek.beta, pin.tau
        da = -vasicek_factors(beta, tau)[1] * bond
        dr = -vasicek_factors(beta, tau)[0] * bond
        bracket = (-da + 0.5 * tau * tau * bond + tau * dr) / beta
        assert self.correction(pin, only_w2, "bond") == pytest.approx(
            0.283 * 0.0036 * bracket, rel=1e-13
        )

    def test_option_corrections_ignore_bond_loss_rate(self):
        # options always carry full loss of the stock at default
        fast = CorrectionParams(**{n: getattr(SURFACE_COEFFS, n) for n in FAST})
        slow = CorrectionParams(w1=SURFACE_COEFFS.w1, w2=SURFACE_COEFFS.w2)
        for kind in ("call", "put"):
            for coeffs in (fast, slow):
                a = price_full(self.pin(kind_l=0.2), coeffs, kind)
                b = price_full(self.pin(kind_l=1.0), coeffs, kind)
                assert a == b

    def test_surface_coefficients_give_finite_adjustment(self):
        pin = self.pin(kind_l=1.0, tau=1.0)
        adj = self.correction(pin, SURFACE_COEFFS, "call")
        assert math.isfinite(adj) and adj != 0.0

    def test_corrections_vanish_superlinearly_at_short_maturity(self):
        # out-of-the-money strike so every term decays at least linearly
        strike = 1.2 * SURFACE_EQUITY.x
        taus = [0.2, 0.1, 0.05]
        for idx in (1, 2, 3, 6, 7):
            vals = []
            for tau in taus:
                pin = PricingInputs(
                    SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, SURFACE_LAMBDA), tau,
                    strike,
                )
                vals.append(abs(greeks(pin, "call")[idx]))
            assert vals[1] <= 0.6 * vals[0] + 1e-300
            assert vals[2] <= 0.6 * vals[1] + 1e-300


class TestPriceFull:
    def pin(self, lam=SURFACE_LAMBDA, l=1.0, tau=0.5, strike=8.04):
        return PricingInputs(
            SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(l, lam), tau, strike
        )

    def test_zero_coefficients_reduce_to_p0(self):
        pin = self.pin()
        assert price_full(pin, CorrectionParams(), "call") == call_p0(pin)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown instrument kind 'swap'"):
            price_p0(self.pin(), "swap")

    def test_least_variance_is_where_g5s_denominator_underflows(self):
        below = math.nextafter(_MIN_VARIANCE, 0.0)
        assert _MIN_VARIANCE * math.sqrt(_MIN_VARIANCE) > 0
        assert below * math.sqrt(below) == 0

    def test_vanishing_variance_is_out_of_domain(self):
        # tau = 1e-300 gives v ~ 7e-302, below the least variance, on both paths.
        with pytest.raises(DomainError, match="variance must be at least"):
            price_full(self.pin(tau=1e-300), CorrectionParams(), "call")
        with pytest.raises(DomainError, match="variance must be at least"):
            evaluate_options(SURFACE_VASICEK, SURFACE_EQUITY, [0.0], [1e-300], [8.04], [0])

    @pytest.mark.parametrize("x, strike", [(5e-324, 8.0), (8.0, 5e-324), (1e300, 1e-10)],
                             ids=["ratio-underflows", "ratio-overflows", "ratio-overflows-big"])
    def test_spot_strike_ratio_out_of_float_range(self, x, strike):
        # The kernel takes log(x / strike); at 0 or inf that is no price, on either path.
        equity = EquityParams(x=x, sigma2=SURFACE_EQUITY.sigma2, rho1=SURFACE_EQUITY.rho1)
        pin = PricingInputs(SURFACE_VASICEK, equity, CreditParams(1.0, SURFACE_LAMBDA), 0.5,
                            strike)
        for kind in ("call", "put"):
            with pytest.raises(DomainError, match="spot / strike"):
                price_full(pin, CorrectionParams(), kind)
        with pytest.raises(DomainError, match="spot / strike"):
            evaluate_options(SURFACE_VASICEK, equity, [0.0], [0.5, 0.5], [8.0, strike], [0, 1])

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(12)
        pin = self.pin(tau=0.8, strike=7.5)
        p0 = call_p0(pin)
        for _ in range(20):
            a = CorrectionParams(*rng.uniform(-0.05, 0.05, size=8))
            b = CorrectionParams(*rng.uniform(-0.05, 0.05, size=8))
            ab = CorrectionParams(*(x + y for x, y in zip(a.__dict__.values(), b.__dict__.values())))
            lhs = price_full(pin, ab, "call") - p0
            rhs = (price_full(pin, a, "call") - p0) + (price_full(pin, b, "call") - p0)
            assert lhs == pytest.approx(rhs, abs=1e-12 * SURFACE_EQUITY.x)

    def test_index_variant_bitwise_equals_restricted_seven(self):
        coeffs = CorrectionParams(v1=0.02, v2=-0.003, v4=0.001, v5=-0.04, v6=0.015)
        rng = np.random.default_rng(13)
        for _ in range(100):
            tau = rng.uniform(0.1, 3)
            strike = SURFACE_EQUITY.x * rng.uniform(0.7, 1.4)
            pin = self.pin(lam=0.0, tau=tau, strike=strike)
            a = price_full(pin, coeffs, "call", variant="index")
            b = price_full(pin, coeffs, "call", variant="seven_param")
            assert a == b  # bit-identical

    def test_index_variant_requires_zero_intensity(self):
        with pytest.raises(ValidationError):
            price_full(self.pin(lam=0.02), CorrectionParams(v1=0.01), "call", variant="index")

    def test_index_variant_rejects_ignored_coefficients(self):
        with pytest.raises(ValidationError):
            price_full(
                self.pin(lam=0.0), CorrectionParams(w1=0.01), "call", variant="index"
            )

    def test_three_param_rejects_extra_fast_terms(self):
        with pytest.raises(ValidationError):
            price_full(
                self.pin(), CorrectionParams(v1=0.01, v2=0.02), "call", variant="three_param"
            )

    def test_three_param_accepts_its_coefficient_set(self):
        coeffs = CorrectionParams(v1=0.01, v3=0.002, w1=-0.01, w2=0.0004)
        val = price_full(self.pin(), coeffs, "call", variant="three_param")
        assert math.isfinite(val)
