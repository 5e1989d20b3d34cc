"""The batched kernel against the float path, and the batched fits against the scalar loops.

The tolerances are fixed from float64, not fitted to the results:

* kernel: the array path (NumPy, the Cephes ``ndtr`` port) and the float path
  (``math``, ``pricing.norm_cdf``) run the same algebra but not the same
  elementary functions, which may differ by an ulp. Each element must agree
  to 1e-13 of the evaluation's scale: the largest magnitude among P0, the
  eight Greeks and the terms P0 sums (spot and strike, which cancel in a
  deep put).
* fits: the same grid index; coefficients within 1e-8; the root of the
  residual within 1e-12 of the quotes' (weighted) price norm, which is the
  rounding that separates two least-squares solvers on the same system.
* array normal CDF: the port against ``scipy.special.ndtr`` bit for bit:
  the same Cephes algorithm in the same operation order, on the C library's
  exp.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credeq.calibration import ZERO_BOND_FIT, _quote_weights, fit_bonds, fit_options
from credeq.corrections import (
    CorrectionParams,
    _ndtr,
    evaluate_bonds,
    evaluate_options,
    price_full,
    price_p0,
)
from credeq.errors import NumericalError
from credeq.market_data import OptionQuote
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import SERIES_CUTOFF, EquityParams, VasicekParams

from conftest import (
    ROUNDTRIP_GRID,
    SURFACE_COEFFS,
    SURFACE_EQUITY,
    SURFACE_VASICEK,
    greeks,
    log_uniform,
    make_bond_quotes,
    make_option_quotes,
)
from reference_oracles import _d12, _log_survival_bond, call_p0, put_p0, variance_v
from scalar_reference import fit_bonds_loop, fit_options_loop

KERNEL_RTOL = 1e-13
COEFF_TOL = 1e-8
RESIDUAL_RTOL = 1e-12

# beta * tau of the tiny maturities (tau ~ 1e-6), where the log-moneyness
# -q*tau must not carry the rounding of x_eff.
TINY_BETA_TAU = 5e-7

# beta * tau just below and just above the series/closed-form switch of the
# Vasicek factors.
AROUND_CUTOFF = (SERIES_CUTOFF * (1 - 1e-9), SERIES_CUTOFF * (1 + 1e-9))


def vasicek(beta):
    return st.builds(
        VasicekParams,
        alpha=st.floats(-0.03, 0.05),
        beta=beta,
        eta=st.floats(0.0, 0.05),
        r=st.floats(0.0, 0.08),
    )


def equity(q):
    return st.builds(
        EquityParams,
        x=st.floats(2.0, 150.0),
        sigma2=st.floats(0.15, 0.6),
        rho1=st.floats(-0.8, 0.8),
        q=q,
    )


def assert_options_match(va, eq, lams, quotes):
    """Every (intensity, quote) element of the array path equals the float wrappers."""
    taus, moneyness, puts = zip(*quotes)
    strikes = [m * eq.x for m in moneyness]
    p0, g = evaluate_options(va, eq, np.asarray(lams), taus, strikes, puts)
    assert p0.shape == (len(lams), len(quotes)) and g.shape == p0.shape + (8,)
    for i, lam in enumerate(lams):
        for j, (tau, strike, put) in enumerate(zip(taus, strikes, puts)):
            pin = PricingInputs(va, eq, CreditParams(1.0, lam), tau, strike)
            kind = "put" if put else "call"
            want = np.array((price_p0(pin, kind),) + greeks(pin, kind))
            got = np.concatenate(([p0[i, j]], g[i, j]))
            scale = max(np.max(np.abs(want)), pin.x_eff, strike)
            assert np.all(np.abs(got - want) <= KERNEL_RTOL * scale), (kind, tau, lam, got - want)


class TestKernelPaths:
    @given(
        # The bond test's lower end up to the fit's upper bound, log-uniform,
        # so that small beta is drawn as often as large.
        va=vasicek(log_uniform(1e-8, 5.0)),
        eq=equity(st.sampled_from([0.0, 0.02])),
        lams=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
        quotes=st.lists(
            st.tuples(st.floats(0.25, 3.0), st.floats(0.75, 1.35), st.booleans()),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60)
    def test_option_grid_equals_float_path(self, va, eq, lams, quotes):
        below, above = (u / va.beta for u in AROUND_CUTOFF)
        # The switch maturities, where they lie within 10 years.
        switch = [q for q in ((below, 0.9, True), (above, 1.1, False)) if q[0] <= 10.0]
        assert_options_match(va, eq, lams, quotes + switch)

    @given(
        va=vasicek(st.floats(0.05, 1.0)),
        eq=equity(st.floats(0.001, 0.05)),
        lams=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3),
    )
    @settings(max_examples=30)
    def test_series_branch_option_equals_float_path(self, va, eq, lams):
        # At the money, so log(x / K) is exactly 0 and the log-moneyness is
        # -q*tau on both paths, free of x_eff's rounding; at this tau
        # near-the-money Greeks are otherwise ill-conditioned in float64
        # whichever path computes them.
        tau = TINY_BETA_TAU / va.beta
        assert_options_match(va, eq, lams, [(tau, 1.0, False), (tau, 1.0, True)])

    @given(
        va=vasicek(st.floats(0.05, 1.0)),
        eq=equity(st.floats(0.001, 0.05)),
        lam=st.floats(0.0, 0.5),
    )
    @settings(max_examples=30)
    def test_log_moneyness_at_tiny_tau_is_free_of_dividend_rounding(self, va, eq, lam):
        # At K = x the log-moneyness log(x_eff / K) is exactly -q*tau. Taken
        # as log(x_eff / K), it would carry x_eff's rounding, about 1e-16,
        # which at tau ~ 1e-6 is 1e-10 of the log-moneyness itself.
        tau = TINY_BETA_TAU / va.beta
        pin = PricingInputs(va, eq, CreditParams(1.0, lam), tau, eq.x)
        d1, d2 = _d12(pin)
        v = variance_v(pin)
        got = 0.5 * (d1 + d2) * math.sqrt(v)
        want = -eq.q * tau - _log_survival_bond(pin)
        assert abs(got - want) <= KERNEL_RTOL * max(abs(want), v)
        # The kernel takes the same log-moneyness: P0 stays bit-equal.
        assert price_full(pin, CorrectionParams(), "call") == call_p0(pin)
        assert price_full(pin, CorrectionParams(), "put") == put_p0(pin)

    @given(
        va=vasicek(st.floats(1e-8, 2.0)),
        l_lambdas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        taus=st.lists(st.floats(0.1, 30.0), min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_bond_grid_equals_float_path(self, va, l_lambdas, taus):
        # The tiny and switch maturities, where they lie within the drawn 30 years.
        taus = taus + [u / va.beta for u in (TINY_BETA_TAU, *AROUND_CUTOFF) if u <= 30 * va.beta]
        p0, cols = evaluate_bonds(va, np.asarray(l_lambdas), taus)
        assert cols.shape == p0.shape + (2,)
        for i, l_lambda in enumerate(l_lambdas):
            for j, tau in enumerate(taus):
                pin = PricingInputs(va, SURFACE_EQUITY, CreditParams(1.0, l_lambda), tau)
                g = greeks(pin, "bond")
                want = np.array((price_p0(pin, "bond"), g[2], g[7]))
                got = np.array((p0[i, j], *cols[i, j]))
                scale = np.max(np.abs(want))
                assert np.all(np.abs(got - want) <= KERNEL_RTOL * scale), (tau, got - want)


# Seeded off-grid truths: (l, lambda) between the grid points of both steps.
OFF_GRID = [(0.37, 0.0633)] + [
    (float(l), float(lam))
    for l, lam in zip(*np.random.default_rng(2024).uniform([0.2, 0.02], [0.9, 0.09], (3, 2)).T)
]
ON_GRID = (0.30, 0.05)  # the conftest round-trip truth


def day(l, lam, coeffs=SURFACE_COEFFS):
    bonds = make_bond_quotes(SURFACE_VASICEK, CreditParams(l=l, lam=lam), coeffs)
    options = make_option_quotes(
        SURFACE_VASICEK, SURFACE_EQUITY, lam, coeffs, ROUNDTRIP_GRID, skip_nonpositive=True
    )
    return bonds, options


def residual_close(batched, loop, prices):
    norm = math.sqrt(float(np.sum(np.asarray(prices) ** 2)))
    return abs(math.sqrt(batched) - math.sqrt(loop)) <= RESIDUAL_RTOL * norm


@pytest.mark.parametrize("truth", [ON_GRID] + OFF_GRID)
class TestBatchedFitsMatchScalarLoops:
    def test_bond_step(self, truth):
        bonds, _ = day(*truth)
        fit = fit_bonds(bonds, SURFACE_VASICEK)
        _, l_lambda, theta, resid = fit_bonds_loop(bonds, SURFACE_VASICEK)
        assert fit.l_lambda == l_lambda  # the same grid point
        assert abs(fit.l_v3 - theta[0]) <= COEFF_TOL and abs(fit.l_w2 - theta[1]) <= COEFF_TOL
        assert residual_close(fit.residual, resid, [q.price for q in bonds])

    def test_option_step(self, truth):
        bonds, options = day(*truth)
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        _, l, theta, resid = fit_options_loop(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        assert fit.l == l  # the same grid point
        fitted = [getattr(fit.coeffs, n) for n in ("v1", "v2", "v4", "v5", "v6", "w1")]
        assert np.max(np.abs(np.asarray(fitted) - theta)) <= COEFF_TOL
        weights = _quote_weights(options, SURFACE_VASICEK, SURFACE_EQUITY)
        assert residual_close(
            fit.weighted_residual, resid, weights * [q.price for q in options]
        )


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestNonFiniteGreeks:
    """A NaN Greek stops the fit with NumericalError instead of steering the argmin."""

    # With eta = 0 and a vanishing sigma2, v*sqrt(v) is so small that
    # log_ratio / (v*sqrt(v)) overflows and g5 becomes 0 * inf. NumPy warns.
    VASICEK = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.0, r=0.0476)
    EQUITY = EquityParams(x=8.04, sigma2=1e-105, rho1=0.5)
    QUOTES = [OptionQuote(t, k, "call", 1.0, 10) for t in (0.5, 1.0) for k in (7.0, 7.5, 8.0, 8.5)]

    def test_kernel_yields_nan(self):
        pin = PricingInputs(self.VASICEK, self.EQUITY, CreditParams(1.0, 0.0), 0.5, 7.0)
        assert math.isnan(greeks(pin, "call")[4])

    def test_fit_options_raises(self):
        bond_fit = fit_bonds(day(*ON_GRID)[0], self.VASICEK)
        with pytest.raises(NumericalError, match="non-finite"):
            fit_options(self.QUOTES, bond_fit, self.VASICEK, self.EQUITY)

    def test_calibrate_index_raises(self):
        with pytest.raises(NumericalError, match="non-finite"):
            fit_options(self.QUOTES, ZERO_BOND_FIT, self.VASICEK, self.EQUITY, variant="index")


def test_price_full_is_p0_plus_both_corrections():
    # P0 + fast + slow, each summed in the kernel's order from price_p0 and greeks.
    from credeq.corrections import price_full

    c = CorrectionParams(v1=0.01, v2=-0.002, v3=0.003, v4=0.001, v5=-0.02, v6=0.01,
                         w1=-0.005, w2=0.0004)
    for kind, strike in (("call", 7.5), ("put", 8.5), ("bond", None)):
        pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(0.4, 0.03), 1.5,
                            strike)
        g = greeks(pin, kind)
        l = 0.4 if kind == "bond" else 1.0
        fast = (c.v1 * g[0] + c.v2 * g[1] + l * c.v3 * g[2] + c.v4 * g[3] + c.v5 * g[4]
                + c.v6 * g[5])
        slow = c.w1 * g[6] + l * c.w2 * g[7]
        assert price_full(pin, c, kind) == price_p0(pin, kind) + fast + slow


class TestArrayNormalCdf:
    """The array path's Cephes ndtr port against scipy's ndtr (imported here only)."""

    # Cephes works on x = a * sqrt(1/2) and switches branch at |x| = 1/sqrt(2),
    # 1 and 8, that is at |a| = 1, sqrt(2) and 8 sqrt(2).
    X_EDGES = (math.sqrt(0.5), 1.0, 8.0)

    def edge_points(self):
        """Each |a| edge with its eight neighbouring doubles either side, both signs."""
        points = []
        for x_edge in self.X_EDGES:
            near = [x_edge / math.sqrt(0.5)]
            for _ in range(8):
                near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], 1e9)]
            points += near + [-a for a in near]
        return np.asarray(points)

    def test_matches_scipy_on_a_dense_sweep(self):
        from scipy.special import ndtr

        # Every result stays a normal double down to a = -37.
        a = np.concatenate((np.linspace(-37.0, 40.0, 385_001), self.edge_points()))
        want = ndtr(a)
        assert np.all(want > 0)
        np.testing.assert_array_equal(_ndtr(a), want)

    def test_edge_points_straddle_every_branch_edge(self):
        from credeq.corrections import _SQRT1_2

        x = np.abs(self.edge_points() * _SQRT1_2)
        for edge in self.X_EDGES:
            near = np.abs(x - edge) <= 16 * np.spacing(edge)
            assert (x[near] < edge).any() and (x[near] >= edge).any()

    def test_zero_is_one_half(self):
        assert _ndtr(0.0) == 0.5
        assert (_ndtr(np.array([0.0, -0.0])) == 0.5).all()

    def test_infinities_are_exact(self):
        out = _ndtr(np.array([np.inf, -np.inf]))
        assert out[0] == 1.0 and out[1] == 0.0

    def test_large_arguments_saturate_as_scipy_does(self):
        from scipy.special import ndtr

        # 1 - erfc/2 rounds to 1 from a of about 8.3 up; erfc is 0 once
        # a^2/2 > MAXLOG, below a of about -37.7.
        a = np.array([9.0, 11.4, 20.0, 40.0, 1e10, 1e300, -38.0, -40.0, -1e10, -1e300])
        np.testing.assert_array_equal(_ndtr(a), ndtr(a))
        assert (_ndtr(a[a > 0]) == 1.0).all() and (_ndtr(a[a < 0]) == 0.0).all()

    def test_nan_propagates(self):
        out = _ndtr(np.array([np.nan, 0.0, -np.nan]))
        assert math.isnan(out[0]) and out[1] == 0.5 and math.isnan(out[2])

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_nan_on_a_grid_raises(self):
        # sigma2^2 * tau overflows to v = inf beyond tau = 1, so d1 = inf/inf is
        # NaN while the spot and discount terms stay finite: only the CDF
        # carries the NaN into P0.
        equity = EquityParams(x=8.04, sigma2=1e154, rho1=0.0)
        p0, _ = evaluate_options(SURFACE_VASICEK, equity, np.array([0.0, 0.02]), [2.0, 3.0],
                                 [8.0, 8.5], [0, 1])
        assert np.isnan(p0).all()
        quotes = [OptionQuote(t, k, "call", 1.0, 10) for t in (2.0, 3.0) for k in (7.0, 8.0, 9.0)]
        with pytest.raises(NumericalError, match="non-finite"):
            fit_options(quotes, ZERO_BOND_FIT, SURFACE_VASICEK, equity, variant="index")
