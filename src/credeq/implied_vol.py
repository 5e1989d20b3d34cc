"""Black-Scholes pricing, vega, implied-volatility inversion, and the quoting rule.

:func:`model_quote` is the one quoting rule: the vega weights of the
calibration objective, ``price`` and ``ivol-surface`` all call it. It quotes
at the fitted Vasicek model's zero yield for the maturity
(:func:`credeq.rates.vasicek_yield`) on the dividend-adjusted spot x*exp(-q*tau).

The Black-Scholes price at vol > 0 has one body, ``_price_vega``, which also
gives the vega of its d1. :func:`bs_price` returns its price and :func:`bs_vega`
its vega; :func:`implied_vol` takes its bracket prices and Newton steps from it,
with log(x/K), sqrt(tau) and K*exp(-r*tau) once per inversion.
"""

from __future__ import annotations

import math

from .errors import DomainError, ValidationError
from .pricing import norm_cdf, norm_pdf
from .rates import EquityParams, VasicekParams, vasicek_yield

__all__ = [
    "bs_price",
    "bs_vega",
    "implied_vol",
    "model_quote",
    "VEGA_FLOOR_FACTOR",
]

VOL_LO = 1e-6
VOL_HI = 5.0
# Price convergence target, relative to spot.
PRICE_TOL = 1e-10
# Vega floor used by the calibration weighting, relative to spot.
VEGA_FLOOR_FACTOR = 1e-4


def _check_inputs(x: float, strike: float, tau: float) -> None:
    """The input check of :func:`bs_price`, which :func:`implied_vol` runs too."""
    if x <= 0 or strike <= 0 or tau <= 0:
        raise ValidationError("bs_price needs positive spot, strike, and maturity")


def bs_price(x: float, strike: float, tau: float, rate: float, vol: float, kind: str) -> float:
    """Black-Scholes price with a flat continuously-compounded rate."""
    _check_inputs(x, strike, tau)
    if vol < 0:
        raise ValidationError("vol must be >= 0")
    disc = math.exp(-rate * tau)
    if vol == 0:
        fwd = x / disc
        if kind == "call":
            return disc * max(fwd - strike, 0.0)
        if kind == "put":
            return disc * max(strike - fwd, 0.0)
    else:
        price, _ = _price_vega(vol, x, strike * disc, math.log(x / strike), tau, math.sqrt(tau),
                               rate, kind == "put")
        if kind in ("call", "put"):
            return price
    raise ValidationError(f"kind must be call or put, got {kind!r}")


def bs_vega(x: float, strike: float, tau: float, rate: float, vol: float) -> float:
    """dPrice/dVol = x * pdf(d1) * sqrt(tau); same for calls and puts."""
    if x <= 0 or strike <= 0 or tau <= 0 or vol <= 0:
        raise ValidationError("bs_vega needs positive inputs")
    # 0.0 for strike * exp(-rate * tau), which the vega never reads and exp can overflow.
    return _price_vega(vol, x, 0.0, math.log(x / strike), tau, math.sqrt(tau), rate, False)[1]


def implied_vol(price: float, x: float, strike: float, tau: float, rate: float, kind: str) -> float:
    """Invert bs_price for the volatility.

    Newton iteration with bisection fallback over [1e-6, 5]; converges to
    |price error| <= 1e-10 * spot. Bad arguments raise :class:`ValidationError`
    first; then prices outside the no-arbitrage bounds raise
    :class:`DomainError` naming the violated bound.
    """
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be call or put, got {kind!r}")
    _check_inputs(x, strike, tau)
    strike_disc = strike * math.exp(-rate * tau)
    lower, upper = ((max(x - strike_disc, 0.0), x) if kind == "call"
                    else (max(strike_disc - x, 0.0), strike_disc))
    tol = PRICE_TOL * x
    if price < lower - tol:
        raise DomainError(f"{kind} price {price} below intrinsic bound {lower} (strike {strike})")
    if price > upper + tol:
        raise DomainError(f"{kind} price {price} above upper bound {upper}")

    lo, hi = VOL_LO, VOL_HI
    # What every trial vol shares, computed once: bs_price takes the same
    # values, so each price below is its price bit for bit.
    shared = (x, strike_disc, math.log(x / strike), tau, math.sqrt(tau), rate, kind == "put")
    p_lo, _ = _price_vega(lo, *shared)
    p_hi, _ = _price_vega(hi, *shared)
    if price <= p_lo:
        return lo
    if price >= p_hi:
        return hi

    vol = 0.5
    for _ in range(100):
        p, vega = _price_vega(vol, *shared)
        diff = p - price
        if abs(diff) <= tol:
            # one polish step: the price tolerance alone leaves ~tol/vega
            # of vol error when vega is small
            if vega > 0 and math.isfinite(diff / vega):
                vol = min(max(vol - diff / vega, VOL_LO), VOL_HI)
            return vol
        if diff > 0:
            hi = min(hi, vol)
        else:
            lo = max(lo, vol)
        if vega > 0:
            step = diff / vega
            candidate = vol - step
            if lo < candidate < hi:
                vol = candidate
                continue
        vol = 0.5 * (lo + hi)  # bisect when Newton leaves the bracket
    # The bracket keeps shrinking, so landing here means tol was too tight
    # for the flat-vega regime; return the bracket midpoint.
    return 0.5 * (lo + hi)


def _price_vega(vol, x, strike_disc, log_moneyness, tau, sqrt_tau, rate, put):
    """(bs_price, bs_vega) at ``vol`` > 0 from one d1, on checked inputs.

    ``strike_disc`` is strike * exp(-rate * tau), ``log_moneyness`` log(x / strike).
    """
    sv = vol * sqrt_tau
    d1 = (log_moneyness + (rate + 0.5 * vol * vol) * tau) / sv
    d2 = d1 - sv
    if put:
        price = strike_disc * norm_cdf(-d2) - x * norm_cdf(-d1)
    else:
        price = x * norm_cdf(d1) - strike_disc * norm_cdf(d2)
    return price, x * norm_pdf(d1) * sqrt_tau


def model_quote(price: float, strike: float, tau: float, kind: str,
                vasicek: VasicekParams, equity: EquityParams):
    """The quote of an option price: (rate, implied vol, vega).

    The rate is the model zero yield at ``tau`` and the spot is
    x*exp(-q*tau), Black-Scholes with a dividend yield. A price outside the
    Black-Scholes bounds has no vol: it quotes as None with vega 0.0. A
    dividend yield that underflows that spot to 0 raises ValidationError.
    """
    rate = vasicek_yield(vasicek, tau)
    x = equity.x * math.exp(-equity.q * tau)
    if x == 0.0:
        raise ValidationError(f"dividend yield q = {equity.q} at maturity tau = {tau} underflows "
                              f"the spot x*exp(-q*tau) of x = {equity.x} to 0")
    try:
        vol = implied_vol(price, x, strike, tau, rate, kind)
    except DomainError:
        return rate, None, 0.0
    return rate, vol, bs_vega(x, strike, tau, rate, vol)
