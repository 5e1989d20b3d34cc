import math
import random
from collections import Counter

import numpy as np
import pytest

from credeq.errors import DomainError, ValidationError
from credeq.implied_vol import (
    PRICE_TOL,
    VOL_HI,
    VOL_LO,
    bs_price,
    bs_vega,
    implied_vol,
    model_quote,
)
from credeq.pricing import norm_cdf
from credeq.rates import EquityParams, VasicekParams, vasicek_yield

from reference_oracles import bs_price as reference_bs_price
from reference_oracles import bs_vega as reference_bs_vega
from reference_oracles import implied_vol_calls


class TestBsPrice:
    def test_zero_vol_call_is_discounted_intrinsic(self):
        assert bs_price(100, 90, 1.0, 0.05, 0.0, "call") == pytest.approx(
            100 - 90 * math.exp(-0.05), rel=1e-15
        )
        assert bs_price(80, 90, 1.0, 0.05, 0.0, "call") == 0.0

    def test_atm_zero_rate_identity(self):
        # vol 0.2, tau 1: price = x * (2*N(0.1) - 1)
        x = 50.0
        assert bs_price(x, x, 1.0, 0.0, 0.2, "call") == pytest.approx(
            x * (2 * norm_cdf(0.1) - 1), rel=1e-14
        )

    def test_parity(self):
        c = bs_price(100, 95, 0.7, 0.04, 0.3, "call")
        p = bs_price(100, 95, 0.7, 0.04, 0.3, "put")
        assert c - p == pytest.approx(100 - 95 * math.exp(-0.04 * 0.7), rel=1e-14)


class TestImpliedVol:
    @pytest.mark.parametrize("vol", [0.01, 0.05, 0.2, 0.8, 1.5, 3.0])
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_round_trip_atm(self, vol, kind):
        price = bs_price(100, 100, 0.6, 0.03, vol, kind)
        assert implied_vol(price, 100, 100, 0.6, 0.03, kind) == pytest.approx(vol, abs=1e-8)

    def test_round_trip_scan(self):
        # inversion is only well posed where the price itself has signal
        # above the solver tolerance of 1e-10 * spot; deep-OTM tiny-vol
        # quotes price to ~0 for a whole vol interval
        rng = np.random.default_rng(1)
        tested = 0
        while tested < 200:
            x = rng.uniform(1, 500)
            k = x * rng.uniform(0.6, 1.6)
            tau = rng.uniform(0.05, 4)
            rate = rng.uniform(-0.01, 0.08)
            vol = rng.uniform(0.01, 3.0)
            kind = "call" if rng.random() < 0.5 else "put"
            price = bs_price(x, k, tau, rate, vol, kind)
            lower = bs_price(x, k, tau, rate, 0.0, kind)
            if price - lower < 1e-7 * x:
                continue
            assert implied_vol(price, x, k, tau, rate, kind) == pytest.approx(vol, abs=1e-8)
            tested += 1

    def test_below_intrinsic_raises(self):
        intrinsic = 100 - 90 * math.exp(-0.05)
        with pytest.raises(DomainError, match="intrinsic"):
            implied_vol(intrinsic - 0.01, 100, 90, 1.0, 0.05, "call")

    def test_above_upper_bound_raises(self):
        with pytest.raises(DomainError, match="upper"):
            implied_vol(101.0, 100, 90, 1.0, 0.05, "call")

    @pytest.mark.parametrize("price, x, strike, tau", [
        (0.5, -1.0, 1.0, 1.0),  # above the upper bound, the spot -1
        (0.5, 1.0, -1.0, 1.0),  # below the intrinsic bound 1 - (-1)
        (101.0, 100.0, 90.0, 0.0),  # above the upper bound, the spot 100
        (101.0, 100.0, 90.0, -1.0),
    ], ids=["negative-spot", "negative-strike", "zero-maturity", "negative-maturity"])
    def test_bad_arguments_raise_before_the_bounds(self, price, x, strike, tau):
        # DomainError means only that a price has no vol: model_quote quotes it as None.
        with pytest.raises(ValidationError, match="positive spot, strike, and maturity"):
            implied_vol(price, x, strike, tau, 0.0, "call")

    def test_prices_at_the_bounds_clamp_to_the_vol_range(self):
        # a worthless out-of-the-money call at the lower bound, a call worth the spot at the upper
        assert implied_vol(0.0, 100, 150, 1.0, 0.05, "call") == VOL_LO
        assert implied_vol(100.0, 100, 100, 1.0, 0.05, "call") == VOL_HI


def _inversions(n=30_000):
    """Seeded (price, x, strike, tau, rate, kind) tuples for the bit-identity test.

    Drawn from a plain ``random.Random``, not hypothesis, so an edit to
    ``src`` does not re-draw them. Strikes span e^-0.5..e^0.5 or e^-4..e^4
    times the spot, maturities 1e-3..30 log-uniformly. Half of the prices are
    Black-Scholes prices at a vol drawn log-uniformly from 1e-4..8 (past both
    ends of the vol range); the rest sit on a no-arbitrage bound, or 0.5, 2
    or 3 price tolerances inside or outside it. One case in 200 has a
    non-positive maturity or an unknown kind.
    """
    rng = random.Random(28)
    bound_offsets = (-2.0, -0.5, 0.0, 0.5, 3.0)  # in units of tol, positive = outside
    out = []
    for i in range(n):
        kind = ("call", "put")[i % 2]
        x = math.exp(rng.uniform(math.log(1e-2), math.log(1e4)))
        width = rng.choice((0.5, 4.0))  # near the money, or deep in or out of it
        strike = x * math.exp(rng.uniform(-width, width))
        tau = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
        rate = rng.uniform(-0.05, 0.15)
        disc = math.exp(-rate * tau)
        if kind == "call":
            lower, upper = max(x - strike * disc, 0.0), x
        else:
            lower, upper = max(strike * disc - x, 0.0), strike * disc
        tol = PRICE_TOL * x
        draw = rng.randrange(4)
        if draw < 2:
            price = bs_price(x, strike, tau, rate, math.exp(rng.uniform(math.log(1e-4),
                                                                        math.log(8.0))), kind)
        else:
            bound, sign = (lower, -1.0) if draw == 2 else (upper, 1.0)
            price = bound + sign * rng.choice(bound_offsets) * tol
        if i % 200 == 7:
            tau = (0.0, -1.0)[i % 400 // 200]
        elif i % 200 == 107:
            kind = "straddle"
        out.append((price, x, strike, tau, rate, kind))
    return out


def _outcome(inversion, *args):
    try:
        return inversion(*args)
    except Exception as exc:  # any class: the class and the message are compared
        return type(exc).__name__, str(exc)


def _bs_prices(n=6_000):
    """Seeded bs_price arguments: both kinds, vol 0, and every input bs_price rejects.

    One case in 10 has vol = 0; one in 10 a non-positive spot, strike or
    maturity, a negative vol, or an unknown kind.
    """
    rng = random.Random(29)
    out = []
    for i in range(n):
        x = math.exp(rng.uniform(math.log(1e-2), math.log(1e4)))
        strike = x * math.exp(rng.uniform(-4.0, 4.0))
        tau = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
        rate = rng.uniform(-0.05, 0.15)
        vol = 0.0 if i % 10 == 3 else math.exp(rng.uniform(math.log(1e-4), math.log(8.0)))
        kind = rng.choice(("call", "put"))
        if i % 10 == 5:
            bad = i // 10 % 6
            if bad == 0:
                x = -x
            elif bad == 1:
                strike = 0.0
            elif bad == 2:
                tau = -tau
            elif bad == 3:
                vol = -vol
            else:  # an unknown kind, at vol > 0 and at vol = 0
                kind, vol = "straddle", (vol, 0.0)[bad - 4]
        out.append((x, strike, tau, rate, vol, kind))
    return out


class TestBsPriceReference:
    def test_prices_and_errors_equal_the_reference(self):
        # bs_price shares its body with the Newton steps; the reference keeps
        # its own d1 and d2, so this compares two bodies.
        outcomes = Counter()
        for args in _bs_prices():
            got, expected = _outcome(bs_price, *args), _outcome(reference_bs_price, *args)
            assert got == expected, args
            outcomes[got if isinstance(got, tuple) else (args[-1], args[-2] == 0)] += 1
        assert min(outcomes.values()) >= 50, outcomes
        assert sorted(k for k in outcomes if k[0] == "ValidationError") == [
            ("ValidationError", "bs_price needs positive spot, strike, and maturity"),
            ("ValidationError", "kind must be call or put, got 'straddle'"),
            ("ValidationError", "vol must be >= 0"),
        ]
        for kind in ("call", "put"):
            assert outcomes[kind, True] and outcomes[kind, False], outcomes


class TestSharedNewtonStep:
    def test_vols_and_errors_equal_separate_price_and_vega_calls(self):
        # Each Newton step takes its price and vega from one d1; every vol and
        # every error message must stay what separate bs_price / bs_vega calls give.
        outcomes = Counter()
        for args in _inversions():
            got, expected = _outcome(implied_vol, *args), _outcome(implied_vol_calls, *args)
            assert got == expected, args
            outcomes[got[0] if isinstance(got, tuple) else
                     "lo" if got == VOL_LO else "hi" if got == VOL_HI else "vol"] += 1
        # the list reaches every way out of the inversion
        assert min(outcomes[k] for k in ("vol", "lo", "hi", "DomainError",
                                         "ValidationError")) >= 100, outcomes


class TestModelQuote:
    VASICEK = VasicekParams(alpha=0.004, beta=0.09, eta=0.001, r=0.05)

    def test_no_dividend_quotes_on_the_spot(self):
        rate = vasicek_yield(self.VASICEK, 0.7)
        price = bs_price(100, 95, 0.7, rate, 0.3, "call")
        vol = implied_vol(price, 100, 95, 0.7, rate, "call")
        assert model_quote(price, 95, 0.7, "call", self.VASICEK,
                           EquityParams(x=100.0, sigma2=0.3, rho1=0.0)) == (
            rate, vol, bs_vega(100, 95, 0.7, rate, vol))

    def test_dividend_yield_discounts_the_spot(self):
        rate = vasicek_yield(self.VASICEK, 0.7)
        spot = 100 * math.exp(-0.03 * 0.7)
        price = bs_price(spot, 95, 0.7, rate, 0.3, "put")
        equity = EquityParams(x=100.0, sigma2=0.3, rho1=0.0, q=0.03)
        got_rate, vol, vega = model_quote(price, 95, 0.7, "put", self.VASICEK, equity)
        assert got_rate == rate
        assert vol == pytest.approx(0.3, abs=1e-10)
        assert vega == pytest.approx(bs_vega(spot, 95, 0.7, rate, 0.3), rel=1e-9)

    def test_price_outside_the_bounds_has_no_vol(self):
        equity = EquityParams(x=100.0, sigma2=0.3, rho1=0.0)
        assert model_quote(101.0, 95, 0.7, "call", self.VASICEK, equity) == (
            vasicek_yield(self.VASICEK, 0.7), None, 0.0)


def _vegas(n=20_000):
    """Seeded bs_vega arguments, errors included.

    Spots, strikes and maturities are drawn as in ``_bs_prices``, vols
    log-uniformly from 1e-4 to 8. One case in 10 has a rate*tau past the
    range of exp (rate +-1e3 at a maturity of at least 1), where
    strike * exp(-rate * tau) would overflow or underflow; one in 10 a
    non-positive spot, strike, maturity or vol; one in 50 a spot / strike
    ratio that leaves the float range, whose log fails.
    """
    rng = random.Random(30)
    out = []
    for i in range(n):
        x = math.exp(rng.uniform(math.log(1e-2), math.log(1e4)))
        strike = x * math.exp(rng.uniform(-4.0, 4.0))
        tau = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
        rate = rng.uniform(-0.05, 0.15)
        vol = math.exp(rng.uniform(math.log(1e-4), math.log(8.0)))
        if i % 10 == 3:
            rate, tau = rng.choice((-1e3, 1e3)), 1.0 + tau
        elif i % 10 == 5:
            bad = i // 10 % 4
            if bad == 0:
                x = -x
            elif bad == 1:
                strike = 0.0
            elif bad == 2:
                tau = -tau
            else:
                vol = 0.0
        elif i % 50 == 7:
            x, strike = (1e-300, 1e300) if i % 100 == 7 else (1e300, 1e-300)
        out.append((x, strike, tau, rate, vol))
    return out


class TestBsVega:
    def test_vegas_and_errors_equal_the_reference(self):
        # bs_vega takes its vega from the body the Newton steps share; the
        # reference keeps its own d1.
        outcomes = Counter()
        for args in _vegas():
            got, expected = _outcome(bs_vega, *args), _outcome(reference_bs_vega, *args)
            assert got == expected, args
            outcomes[got[0] if isinstance(got, tuple) else abs(args[3]) == 1e3] += 1
        assert outcomes[True] >= 1000 and outcomes[False] >= 1000, outcomes
        assert outcomes["ValidationError"] >= 1000 and outcomes["ValueError"] >= 100, outcomes

    def test_matches_finite_difference(self):
        h = 1e-5
        for k in (80, 100, 125):
            vega = bs_vega(100, k, 0.8, 0.04, 0.35)
            fd = (
                bs_price(100, k, 0.8, 0.04, 0.35 + h, "call")
                - bs_price(100, k, 0.8, 0.04, 0.35 - h, "call")
            ) / (2 * h)
            assert vega == pytest.approx(fd, rel=1e-7)

    def test_atm_zero_rate_closed_form(self):
        x, vol, tau = 100.0, 0.4, 0.9
        expected = x * math.sqrt(tau) * math.exp(-((vol * math.sqrt(tau) / 2) ** 2) / 2) / math.sqrt(2 * math.pi)
        assert bs_vega(x, x, tau, 0.0, vol) == pytest.approx(expected, rel=1e-12)

    def test_deep_otm_negligible(self):
        assert bs_vega(100, 10_000, 0.5, 0.03, 0.2) < 1e-4 * 100

