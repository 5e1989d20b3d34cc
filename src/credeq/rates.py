"""Vasicek short-rate analytics and historical estimators.

The short rate follows the mean-reverting diffusion

    dr_t = (alpha - beta * r_t) dt + eta dW_t,

under which the riskless zero-coupon bond has the affine closed form

    B(t, t+s) = exp(a(s) - b(s) * r_t),
    b(s) = (1 - exp(-beta*s)) / beta,
    a(s) = (eta^2/(2 beta^2) - alpha/beta) * s
         + (eta^2/beta^3 - alpha/beta^2) * (exp(-beta*s) - 1)
         - eta^2/(4 beta^3) * (exp(-2 beta*s) - 1).

This module also provides the integrals of b and b^2 that enter the
log-price variance of the equity leg, a least-squares yield-curve fit for
{alpha, beta, eta}, and the historical estimators for the effective equity
volatility and the rate/equity correlation.

All evaluations switch to 6-term Taylor expansions when beta*s < 1e-6 to
avoid catastrophic cancellation in the beta -> 0 limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import CalibrationError, ValidationError

__all__ = [
    "VasicekParams",
    "EquityParams",
    "factor_b",
    "factor_a",
    "factor_a_deta",
    "int_b",
    "int_b_squared",
    "riskless_bond",
    "vasicek_yield",
    "fit_vasicek",
    "curve_rmse",
    "estimate_sigma2",
    "estimate_rho1",
]

# Below this value of beta*s the closed forms lose too many digits to
# cancellation and the series branch takes over.
SERIES_CUTOFF = 1e-6

FIT_BOUNDS = {"alpha": (-0.5, 0.5), "beta": (1e-4, 5.0), "eta": (0.0, 1.0)}


@dataclass(frozen=True)
class VasicekParams:
    """Short-rate model state: drift level, reversion speed, volatility, spot rate."""

    alpha: float
    beta: float
    eta: float
    r: float

    def __post_init__(self):
        for name in ("alpha", "beta", "eta", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"VasicekParams.{name} must be finite")
        if self.beta <= 0:
            raise ValidationError(f"beta must be > 0, got {self.beta}")
        if self.eta < 0:
            raise ValidationError(f"eta must be >= 0, got {self.eta}")


@dataclass(frozen=True)
class EquityParams:
    """Equity state: spot, effective volatilities, rate correlation, dividend yield.

    ``rho1`` is the effective rate/equity correlation; only the product
    eta * rho1 * sigma2 ever enters the pricing formulas, so ``sigma1``
    (defaulting to ``sigma2``) matters only through that combination.
    """

    x: float
    sigma2: float
    rho1: float
    sigma1: float | None = None
    q: float = 0.0

    def __post_init__(self):
        if self.sigma1 is None:
            object.__setattr__(self, "sigma1", self.sigma2)
        if not (self.x > 0 and math.isfinite(self.x)):
            raise ValidationError(f"spot must be positive, got {self.x}")
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")
        if self.sigma1 <= 0:
            raise ValidationError(f"sigma1 must be positive, got {self.sigma1}")
        if not abs(self.rho1) < 1:
            raise ValidationError(f"|rho1| must be < 1, got {self.rho1}")
        if self.q < 0:
            raise ValidationError(f"dividend yield must be >= 0, got {self.q}")


def factor_b(beta: float, s: float) -> float:
    """b(s) = (1 - exp(-beta*s)) / beta, with a series branch for beta*s -> 0."""
    if beta <= 0:
        raise ValidationError("beta must be > 0")
    if s < 0:
        raise ValidationError("s must be >= 0")
    u = beta * s
    if u < SERIES_CUTOFF:
        return s * (1 - u / 2 + u**2 / 6 - u**3 / 24 + u**4 / 120 - u**5 / 720)
    return -math.expm1(-u) / beta


def int_b(beta: float, s: float) -> float:
    """Integral of b over [0, s]: (s - b(s)) / beta."""
    u = beta * s
    if u < SERIES_CUTOFF:
        return s * s * (1 / 2 - u / 6 + u**2 / 24 - u**3 / 120 + u**4 / 720 - u**5 / 5040)
    return (s + math.expm1(-u) / beta) / beta


def int_b_squared(beta: float, s: float) -> float:
    """Integral of b^2 over [0, s]."""
    u = beta * s
    if u < SERIES_CUTOFF:
        return s**3 * (1 / 3 - u / 4 + 7 * u**2 / 60 - u**3 / 24)
    b = factor_b(beta, s)
    return (int_b(beta, s) - b * b / 2) / beta


def _eta_bracket(beta: float, s: float) -> float:
    """G(s) = s/(2) * beta ... the eta^2/beta^3-weighted part of a(s).

    G = u/2 + (exp(-u) - 1) - (exp(-2u) - 1)/4 with u = beta*s, so that the
    eta-dependent part of a(s) equals (eta^2 / beta^3) * G.
    """
    u = beta * s
    if u < SERIES_CUTOFF:
        return u**3 / 6 - u**4 / 8 + 7 * u**5 / 120 - u**6 / 48
    return u / 2 + math.expm1(-u) - math.expm1(-2 * u) / 4


def factor_a(p: VasicekParams, s: float) -> float:
    """a(s) in the exponent of the riskless bond; a(0) = 0."""
    if s < 0:
        raise ValidationError("s must be >= 0")
    alpha, beta, eta = p.alpha, p.beta, p.eta
    # alpha part is -(alpha/beta^2) * (u + expm1(-u)); reuse int_b to keep the
    # series branch in one place: integral of b = (s - b)/beta.
    alpha_part = -alpha * int_b(beta, s)
    eta_part = eta * eta / beta**3 * _eta_bracket(beta, s)
    return alpha_part + eta_part


def factor_a_deta(p: VasicekParams, s: float) -> float:
    """d a(s) / d eta = 2*eta/beta^3 * G(s)."""
    return 2 * p.eta / p.beta**3 * _eta_bracket(p.beta, s)


def riskless_bond(p: VasicekParams, s: float) -> float:
    """Riskless zero-coupon bond price exp(a(s) - b(s)*r); equals 1 at s=0."""
    return math.exp(factor_a(p, s) - factor_b(p.beta, s) * p.r)


def vasicek_yield(p: VasicekParams, s: float) -> float:
    """Continuously compounded zero yield -(a(s) - b(s)*r)/s; y(0) := r."""
    if s < 0:
        raise ValidationError("s must be >= 0")
    if s == 0:
        return p.r
    return -(factor_a(p, s) - factor_b(p.beta, s) * p.r) / s


# ---------------------------------------------------------------------------
# Yield-curve fit
# ---------------------------------------------------------------------------


def curve_rmse(p: VasicekParams, curve) -> float:
    """Root-mean-square yield error of the model against a treasury curve."""
    errs = [vasicek_yield(p, s) - y for s, y in curve.points]
    return math.sqrt(sum(e * e for e in errs) / len(errs))


def _curve_sse(theta, maturities, yields, r):
    alpha, beta, eta = theta
    p = VasicekParams(alpha=alpha, beta=beta, eta=eta, r=r)
    sse = 0.0
    for s, y in zip(maturities, yields):
        e = vasicek_yield(p, s) - y
        sse += e * e
    return sse


def fit_vasicek(curve, r_proxy: float | None = None) -> VasicekParams:
    """Least-squares fit of {alpha, beta, eta} to a treasury yield curve.

    The objective is the sum of squared yield errors with uniform weights.
    ``r_proxy`` is the short-rate proxy; by default the shortest-maturity
    yield of the curve. Bounded derivative-free local searches (Nelder-Mead)
    are started from 8 seeds and the best result is polished with a restart.

    Raises
    ------
    CalibrationError
        When no start converges; carries the best iterate and its residual.
    """
    maturities = [s for s, _ in curve.points]
    yields = [y for _, y in curve.points]
    r = yields[0] if r_proxy is None else r_proxy

    ybar = sum(yields) / len(yields)
    bounds = [FIT_BOUNDS["alpha"], FIT_BOUNDS["beta"], FIT_BOUNDS["eta"]]
    seeds = [
        (min(max(b0 * ybar, -0.49), 0.49), b0, e0)
        for b0 in (0.05, 0.15, 0.5, 1.5)
        for e0 in (0.001, 0.02)
    ]

    best = None
    any_success = False
    for seed in seeds:
        res = minimize(
            _curve_sse,
            x0=np.asarray(seed),
            args=(maturities, yields, r),
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-12, "fatol": 1e-18, "maxiter": 4000, "maxfev": 8000},
        )
        any_success = any_success or res.success
        if best is None or res.fun < best.fun:
            best = res
    # Polish: restart the simplex at the incumbent, which resets its scale.
    res = minimize(
        _curve_sse,
        x0=best.x,
        args=(maturities, yields, r),
        method="Nelder-Mead",
        bounds=bounds,
        options={"xatol": 1e-14, "fatol": 1e-20, "maxiter": 4000, "maxfev": 8000},
    )
    if res.fun <= best.fun:
        best = res
        any_success = any_success or res.success

    alpha, beta, eta = best.x
    params = VasicekParams(alpha=float(alpha), beta=float(beta), eta=float(eta), r=r)
    if not any_success and not math.isfinite(best.fun):
        raise CalibrationError(
            "yield-curve fit did not converge", best=params, residual=float(best.fun)
        )
    return params


# ---------------------------------------------------------------------------
# Historical estimators
# ---------------------------------------------------------------------------

TRADING_DAYS = 252


def estimate_sigma2(history) -> float:
    """Annualized standard deviation of daily log returns (sqrt(252) scaling)."""
    values = np.asarray([v for _, v in history.points], dtype=float)
    if values.size < 30:
        raise ValidationError(
            f"need at least 30 observations to estimate volatility, got {values.size}"
        )
    rets = np.diff(np.log(values))
    return float(np.std(rets, ddof=1)) * math.sqrt(TRADING_DAYS)


RHO_CLAMP = 0.999


def estimate_rho1(stock, spot_rate) -> float:
    """Sample correlation of stock log-returns against spot-rate differences.

    The two histories are aligned on their common dates; at least 30
    overlapping dates are required. The estimate is clamped to
    [-0.999, 0.999] so downstream formulas never see |rho| = 1.
    """
    stock_by_date = dict(stock.points)
    rate_by_date = dict(spot_rate.points)
    common = sorted(set(stock_by_date) & set(rate_by_date))
    if len(common) == 0:
        raise ValidationError("stock and spot-rate histories share no dates")
    if len(common) < 30:
        raise ValidationError(
            f"need at least 30 overlapping dates, got {len(common)}"
        )
    s = np.asarray([stock_by_date[d] for d in common], dtype=float)
    r = np.asarray([rate_by_date[d] for d in common], dtype=float)
    rets = np.diff(np.log(s))
    drates = np.diff(r)
    sd_r, sd_d = np.std(rets), np.std(drates)
    if sd_r == 0 or sd_d == 0:
        raise ValidationError("a constant series has no defined correlation")
    rho = float(np.corrcoef(rets, drates)[0, 1])
    return max(-RHO_CLAMP, min(RHO_CLAMP, rho))

