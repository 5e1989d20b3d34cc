"""Black-Scholes pricing, vega, and implied-volatility inversion.

Used for the vega weights of the calibration objective and for quoting
model/market implied-volatility surfaces. The flat quoting rate for a
maturity is the zero yield interpolated log-linearly in the discount
factor (linear in yield * maturity) from a treasury curve.
"""

from __future__ import annotations

import math

from .errors import DomainError, ValidationError
from .pricing import norm_cdf, norm_pdf

__all__ = [
    "bs_price",
    "bs_vega",
    "implied_vol",
    "zero_rate",
    "VEGA_FLOOR_FACTOR",
]

VOL_LO = 1e-6
VOL_HI = 5.0
# Price convergence target, relative to spot.
PRICE_TOL = 1e-10
# Vega floor used by the calibration weighting, relative to spot.
VEGA_FLOOR_FACTOR = 1e-4


def bs_price(x: float, strike: float, tau: float, rate: float, vol: float, kind: str) -> float:
    """Black-Scholes price with a flat continuously-compounded rate."""
    if x <= 0 or strike <= 0 or tau <= 0:
        raise ValidationError("bs_price needs positive spot, strike, and maturity")
    if vol < 0:
        raise ValidationError("vol must be >= 0")
    disc = math.exp(-rate * tau)
    if vol == 0:
        fwd = x / disc
        if kind == "call":
            return disc * max(fwd - strike, 0.0)
        if kind == "put":
            return disc * max(strike - fwd, 0.0)
        raise ValidationError(f"kind must be call or put, got {kind!r}")
    sv = vol * math.sqrt(tau)
    d1 = (math.log(x / strike) + (rate + 0.5 * vol * vol) * tau) / sv
    d2 = d1 - sv
    if kind == "call":
        return x * norm_cdf(d1) - strike * disc * norm_cdf(d2)
    if kind == "put":
        return strike * disc * norm_cdf(-d2) - x * norm_cdf(-d1)
    raise ValidationError(f"kind must be call or put, got {kind!r}")


def bs_vega(x: float, strike: float, tau: float, rate: float, vol: float) -> float:
    """dPrice/dVol = x * pdf(d1) * sqrt(tau); same for calls and puts."""
    if x <= 0 or strike <= 0 or tau <= 0 or vol <= 0:
        raise ValidationError("bs_vega needs positive inputs")
    sv = vol * math.sqrt(tau)
    d1 = (math.log(x / strike) + (rate + 0.5 * vol * vol) * tau) / sv
    return x * norm_pdf(d1) * math.sqrt(tau)


def implied_vol(price: float, x: float, strike: float, tau: float, rate: float, kind: str) -> float:
    """Invert bs_price for the volatility.

    Newton iteration with bisection fallback over [1e-6, 5]; converges to
    |price error| <= 1e-10 * spot. Prices outside the no-arbitrage bounds
    raise :class:`DomainError` naming the violated bound.
    """
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be call or put, got {kind!r}")
    disc = math.exp(-rate * tau)
    if kind == "call":
        lower = max(x - strike * disc, 0.0)
        upper = x
    else:
        lower = max(strike * disc - x, 0.0)
        upper = strike * disc
    tol = PRICE_TOL * x
    if price < lower - tol:
        raise DomainError(
            f"{kind} price {price} below intrinsic bound {lower} (strike {strike})"
        )
    if price > upper + tol:
        raise DomainError(f"{kind} price {price} above upper bound {upper}")

    lo, hi = VOL_LO, VOL_HI
    p_lo = bs_price(x, strike, tau, rate, lo, kind)
    p_hi = bs_price(x, strike, tau, rate, hi, kind)
    if price <= p_lo:
        return lo
    if price >= p_hi:
        return hi

    vol = 0.5
    for _ in range(100):
        p = bs_price(x, strike, tau, rate, vol, kind)
        diff = p - price
        if abs(diff) <= tol:
            # one polish step: the price tolerance alone leaves ~tol/vega
            # of vol error when vega is small
            vega = bs_vega(x, strike, tau, rate, vol)
            if vega > 0 and math.isfinite(diff / vega):
                vol = min(max(vol - diff / vega, VOL_LO), VOL_HI)
            return vol
        if diff > 0:
            hi = min(hi, vol)
        else:
            lo = max(lo, vol)
        vega = bs_vega(x, strike, tau, rate, vol)
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


def zero_rate(curve, maturity: float) -> float:
    """Treasury zero yield at a maturity, log-linear in the discount factor.

    Linear interpolation of y*s in s between curve points, flat yield
    extrapolation beyond the ends.
    """
    if maturity <= 0:
        raise ValidationError("maturity must be > 0")
    pts = curve.points
    if maturity <= pts[0][0]:
        return pts[0][1]
    if maturity >= pts[-1][0]:
        return pts[-1][1]
    for (s0, y0), (s1, y1) in zip(pts[:-1], pts[1:]):
        if s0 <= maturity <= s1:
            w = (maturity - s0) / (s1 - s0)
            ys = (1 - w) * y0 * s0 + w * y1 * s1
            return ys / maturity
    raise DomainError("maturity not bracketed by curve")  # unreachable
