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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# NumPy is imported inside the functions that use arrays, so that the float
# path (one price, one CDS curve) never loads it.
from .errors import NumericalError, ValidationError

__all__ = [
    "VasicekParams",
    "EquityParams",
    "riskless_bond",
    "vasicek_factors",
    "vasicek_yield",
    "fit_vasicek",
    "at_bound",
    "curve_rmse",
    "estimate_sigma2",
    "estimate_rho1",
]

# Below this value of u = beta*s the closed forms of H and G lose digits to
# cancellation and the Taylor series of H takes over (see _h_g).
SERIES_CUTOFF = 0.5

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

    ``rho1`` is the effective rate/equity correlation; the pricing formulas
    read it only in the product eta * rho1 * sigma2. ``sigma2`` is the only
    volatility any formula reads: ``sigma1`` (defaulting to ``sigma2``) is
    validated and round-trips through fit JSON, but no formula reads it.
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
        if not (self.sigma1 > 0 and math.isfinite(self.sigma1)):
            raise ValidationError(f"sigma1 must be positive, got {self.sigma1}")
        if not abs(self.rho1) < 1:
            raise ValidationError(f"|rho1| must be < 1, got {self.rho1}")
        if not (self.q >= 0 and math.isfinite(self.q)):
            raise ValidationError(f"dividend yield must be finite and >= 0, got {self.q}")


def _h_g(u: float):
    """H(u) = u + expm1(-u) and G(u) = u/2 + expm1(-u) - expm1(-2u)/4, for u = beta*s >= 0.

    The closed forms cancel from O(u) down to H ~ u^2/2 and G ~ u^3/6, so
    below ``SERIES_CUTOFF`` the Taylor series of H takes over, as
    H = u^2 m, m = 1/2 - u q, q = sum_{k>=3} (-u)^(k-3)/k!, cut where its
    first omitted term is below 1e-17 of it. G follows from the same q
    without cancellation: G = H/2 - expm1(-u)^2/4 = u^3/4 (2 (m - q) - u m^2).
    Below the cutoff both lose under 6e-16; from it up the closed forms
    lose under 3.1e-15 of G and 3.3e-16 of H.
    """
    if u < SERIES_CUTOFF:
        q = 1/6 - u * (1/24 - u * (1/120 - u * (1/720 - u * (1/5040 - u * (1/40320 - u * (
            1/362880 - u * (1/3628800 - u * (1/39916800 - u * (1/479001600 - u * (
                1/6227020800 - u * (1/87178291200 - u / 1307674368000)))))))))))
        m = 1/2 - u * q
        return u * u * m, u * u * u / 4 * (2 * (m - q) - u * m * m)
    e1 = math.expm1(-u)
    return u + e1, u / 2 + e1 - math.expm1(-2 * u) / 4


def vasicek_factors(beta: float, s: float, alpha: float = 0.0, eta: float = 0.0):
    """(b, int b, a, G/beta^3) at maturity s, from one evaluation of H and G at u = beta*s.

    b = -expm1(-u)/beta, int b = H/beta^2 and a = -alpha int b + eta^2 G/beta^3;
    int b^2 = 2 G/beta^3 and da/deta = 2 eta G/beta^3 follow. A power of beta
    or eta out of float range raises NumericalError naming it.
    """
    if beta <= 0 or s < 0:
        raise ValidationError(f"need beta > 0 and s >= 0, got beta = {beta}, s = {s}")
    u = beta * s
    h, g = _h_g(u)
    try:
        ib, g3 = h / beta**2, g / beta**3
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"beta = {beta} puts the Vasicek factors out of float range") from None
    try:
        eta2 = eta**2
    except OverflowError:
        raise NumericalError(f"eta = {eta} puts the Vasicek factors out of float range") from None
    return -math.expm1(-u) / beta, ib, eta2 * g3 - alpha * ib, g3


def _riskless(p: VasicekParams, b: float, a: float) -> float:
    """The riskless bond exp(a - b*r) from its factors; NumericalError out of float range."""
    try:
        return math.exp(a - b * p.r)
    except OverflowError:
        raise NumericalError(f"the riskless bond exp({a - b * p.r:.6g}) is out of float range "
                             f"at alpha = {p.alpha}, eta = {p.eta}, r = {p.r}") from None


def riskless_bond(p: VasicekParams, s: float) -> float:
    """Riskless zero-coupon bond price exp(a(s) - b(s)*r); equals 1 at s=0."""
    b, _, a, _ = vasicek_factors(p.beta, s, p.alpha, p.eta)
    return _riskless(p, b, a)


def vasicek_yield(p: VasicekParams, s: float) -> float:
    """Continuously compounded zero yield -(a(s) - b(s)*r)/s; y(0) := r."""
    if s == 0:
        return p.r
    b, _, a, _ = vasicek_factors(p.beta, s, p.alpha, p.eta)
    return -(a - b * p.r) / s


# ---------------------------------------------------------------------------
# Yield-curve fit
# ---------------------------------------------------------------------------


def curve_rmse(p: VasicekParams, curve) -> float:
    """Root-mean-square yield error of the model against a treasury curve."""
    errs = [vasicek_yield(p, s) - y for s, y in curve.points]
    return math.sqrt(sum(e * e for e in errs) / len(errs))


# For fixed beta the zero yield is affine in (alpha, eta^2):
#     y(s) = alpha * int_b/s - eta^2 * G/(beta^3 s) + b*r/s,
# so the fit is a separable least-squares problem: a 2-variable box-bounded
# linear fit at each beta, and a 1-D search over beta (variable projection).
BETA_GRID_POINTS = 300
POLISHED_MINIMA = 3
_BOUND_RTOL = 1e-10
_ETA2_BOUNDS = (FIT_BOUNDS["eta"][0] ** 2, FIT_BOUNDS["eta"][1] ** 2)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _yield_basis(betas, maturities, r):
    """(dy/dalpha, dy/d(eta^2), r term) of the zero yields.

    One row per beta, one column per maturity; an r term out of float range is inf.
    """
    import numpy as np

    b, ib, _, g3 = np.moveaxis(np.asarray(
        [[vasicek_factors(beta, s) for s in maturities] for beta in betas], dtype=float), -1, 0)
    s = np.asarray(maturities, dtype=float)
    with np.errstate(over="ignore"):
        return ib / s, -g3 / s, b * r / s


def _box_fit(c_alpha, c_eta2, target):
    """Least squares of target ~ alpha*c_alpha + eta2*c_eta2 on the box of FIT_BOUNDS.

    The arguments hold one problem per row (columns: maturities). The
    problem is convex, so the interior solution is taken when it is
    feasible; otherwise the minimum lies on an edge, and the best of the four
    edges' clamped 1-D solutions is taken (the first on ties). Returns
    (alpha, eta2, sse), one entry per row.
    """
    import numpy as np

    lo_a, hi_a = FIT_BOUNDS["alpha"]
    lo_e, hi_e = _ETA2_BOUNDS

    def dot(u, v):
        return (u * v).sum(-1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Interior: modified Gram-Schmidt QR of the two columns, with the
        # right-hand side orthogonalized along (backward stable).
        r11 = np.sqrt(dot(c_alpha, c_alpha))
        q1 = c_alpha / r11[:, None]
        r12 = dot(q1, c_eta2)
        w = c_eta2 - r12[:, None] * q1
        z1 = dot(q1, target)
        eta2 = dot(w, target - z1[:, None] * q1) / dot(w, w)
        alpha = (z1 - r12 * eta2) / r11
        feasible = (alpha >= lo_a) & (alpha <= hi_a) & (eta2 >= lo_e) & (eta2 <= hi_e)

        # Edges: eta2 at either end with alpha clamped, alpha at either end
        # with eta2 clamped.
        ends_e = np.broadcast_to(np.array([[lo_e], [hi_e]]), (2, len(r11)))
        ends_a = np.broadcast_to(np.array([[lo_a], [hi_a]]), (2, len(r11)))
        cross = dot(c_alpha, c_eta2)
        a_on_e = np.minimum(np.maximum(
            (dot(c_alpha, target) - ends_e * cross) / (r11 * r11), lo_a), hi_a)
        e_on_a = np.minimum(np.maximum(
            (dot(c_eta2, target) - ends_a * cross) / dot(c_eta2, c_eta2), lo_e), hi_e)

        cand = np.stack((np.concatenate((alpha[None], a_on_e, ends_a)),
                         np.concatenate((eta2[None], ends_e, e_on_a))))
        resid = target - cand[0][..., None] * c_alpha - cand[1][..., None] * c_eta2
        sse = dot(resid, resid)
        edge = 1 + np.argmin(np.where(np.isnan(sse[1:]), np.inf, sse[1:]), axis=0)
        pick = np.where(feasible, 0, edge)
        rows = np.arange(len(pick))
        return cand[0][pick, rows], cand[1][pick, rows], sse[pick, rows]


def _brent_min(f, a, fa, b, fb, x, fx, xtol):
    """Brent's minimization of f on [a, b] (golden section + parabolic steps).

    Starts from x in [a, b] with f(a) = fa, f(b) = fb and f(x) = fx <= both,
    so its first step can be parabolic. Returns the best abscissa evaluated
    and its value. ``xtol`` is relative to |x|.
    """
    w, fw, v, fv = a, fa, b, fb
    d = e = b - a
    for _ in range(100):
        m = 0.5 * (a + b)
        tol = xtol * abs(x) + 1e-300
        if abs(x - m) <= 2 * tol - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol:
            # Parabola through (v, fv), (w, fw), (x, fx).
            p_r = (x - w) * (fx - fv)
            q_r = (x - v) * (fx - fw)
            p = (x - v) * q_r - (x - w) * p_r
            q = 2 * (q_r - p_r)
            if q > 0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                u = x + d
                if u - a < 2 * tol or b - u < 2 * tol:
                    d = tol if x < m else -tol
                golden = False
        if golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def fit_vasicek(curve, r_proxy: float | None = None) -> VasicekParams:
    """Least-squares fit of {alpha, beta, eta} to a treasury yield curve.

    The objective is the sum of squared yield errors with uniform weights,
    over the box ``FIT_BOUNDS``. ``r_proxy`` is the short-rate proxy; by
    default the shortest-maturity yield of the curve.

    The fit is by variable projection. For fixed beta the yields are affine
    in (alpha, eta^2), so each beta has a closed-form box-bounded 2-variable
    least-squares solution, and beta is found by a 1-D search over that
    projected objective: a log-spaced grid of ``BETA_GRID_POINTS`` over
    ``FIT_BOUNDS["beta"]``, then a Brent polish within one grid step of each
    of the ``POLISHED_MINIMA`` lowest local minima of the grid profile. (The
    profile can hold a broad shallow basin beside a deep one narrower than
    a grid step, whose grid samples then lie above the shallow one's.) The
    best point evaluated wins; on a tie, the lowest grid minimum. A
    parameter that ends on an end of its bound equals it exactly (see
    :func:`at_bound`); beta leaves a bound for a point just inside it only
    when that lowers the SSE by more than its rounding.

    Raises
    ------
    NumericalError
        When the sum of squared yield errors at the result is not finite.
    """
    import numpy as np

    maturities = [s for s, _ in curve.points]
    yields = np.asarray([y for _, y in curve.points], dtype=float)
    r = float(yields[0]) if r_proxy is None else r_proxy
    if not math.isfinite(r):
        raise ValidationError(f"short-rate proxy must be finite, got {r}")

    def project(betas):
        c_alpha, c_eta2, base = _yield_basis(betas, maturities, r)
        alpha, eta2, sse = _box_fit(c_alpha, c_eta2, yields - base)
        return alpha, eta2, np.where(np.isnan(sse), np.inf, sse)

    lo, hi = FIT_BOUNDS["beta"]
    grid = np.geomspace(lo, hi, BETA_GRID_POINTS).tolist()  # Python floats: faster scalar math
    grid[0], grid[-1] = lo, hi
    sses = project(grid)[2]
    padded = np.concatenate(([np.inf], sses, [np.inf]))
    minima = np.flatnonzero((sses <= padded[:-2]) & (sses <= padded[2:]))
    minima = minima[np.argsort(sses[minima], kind="stable")][:POLISHED_MINIMA]

    def sse_at(b):
        return float(project([b])[2][0])

    # Each minimum is polished to full precision before they are ranked: a
    # deep minimum on a kink of the profile (a box bound that becomes active
    # there) can rank below a shallow one until both are polished.
    best, beta = sses[minima[0]], grid[minima[0]]
    for k in minima:
        lo_k, hi_k = max(k - 1, 0), min(k + 1, len(grid) - 1)
        ends = (grid[lo_k], float(sses[lo_k]), grid[hi_k], float(sses[hi_k]))
        polished, value = _brent_min(sse_at, *ends, grid[k], float(sses[k]), xtol=1e-13)
        # Near a bound the SSE's rounding can put a spurious minimum just
        # inside it; a minimum on a bound stays there unless the polish
        # gains more than that rounding.
        if grid[k] in (lo, hi) and value > sses[k] * (1 - _BOUND_RTOL):
            continue
        if value < best:
            best, beta = value, polished
    (alpha,), (eta2,), _ = project([beta])

    if math.isfinite(alpha) and math.isfinite(eta2):
        params = VasicekParams(alpha=float(alpha), beta=float(beta), eta=math.sqrt(eta2), r=r)
        sse = sum(e * e for e in (vasicek_yield(params, s) - y for s, y in curve.points))
        if math.isfinite(sse):
            return params
    raise NumericalError("yield-curve fit is not finite")


def at_bound(params: VasicekParams) -> list[str]:
    """Names of the fitted parameters that lie on an end of ``FIT_BOUNDS``."""
    return [name for name, ends in FIT_BOUNDS.items() if getattr(params, name) in ends]


# ---------------------------------------------------------------------------
# Historical estimators
# ---------------------------------------------------------------------------

TRADING_DAYS = 252


def _log_returns(points):
    """Log returns of (date, stock value) points; ValidationError names a value <= 0 by date."""
    import numpy as np

    for d, v in points:
        if v <= 0:
            raise ValidationError(f"stock value at {d} must be positive for a log return, got {v}")
    return np.diff(np.log([v for _, v in points]))


def estimate_sigma2(history) -> float:
    """Annualized standard deviation of daily log returns (sqrt(252) scaling)."""
    import numpy as np

    if (n := len(history.points)) < 30:
        raise ValidationError(f"need at least 30 observations to estimate volatility, got {n}")
    rets = _log_returns(history.points)
    return float(np.std(rets, ddof=1)) * math.sqrt(TRADING_DAYS)


RHO_CLAMP = 0.999


def estimate_rho1(stock, spot_rate) -> float:
    """Sample correlation of stock log-returns against spot-rate differences.

    The two histories are aligned on their common dates; at least 30
    overlapping dates are required. The estimate is clamped to
    [-0.999, 0.999] so downstream formulas never see |rho| = 1; a series
    whose deviations leave the float range raises NumericalError.
    """
    import numpy as np

    stock_by_date = dict(stock.points)
    rate_by_date = dict(spot_rate.points)
    common = sorted(set(stock_by_date) & set(rate_by_date))
    if len(common) == 0:
        raise ValidationError("stock and spot-rate histories share no dates")
    if len(common) < 30:
        raise ValidationError(
            f"need at least 30 overlapping dates, got {len(common)}"
        )
    r = np.asarray([rate_by_date[d] for d in common], dtype=float)
    rets = _log_returns([(d, stock_by_date[d]) for d in common])
    # Values out of float range give inf or nan deviations and a meaningless rho.
    with np.errstate(over="ignore", invalid="ignore"):
        drates = np.diff(r)
        sd_r, sd_d = np.std(rets), np.std(drates)
        if sd_r == 0 or sd_d == 0:
            raise ValidationError("a constant series has no defined correlation")
        rho = float(np.corrcoef(rets, drates)[0, 1])
    if not all(map(math.isfinite, (sd_r, sd_d, rho))):
        raise NumericalError(f"correlation is not finite: return sd {sd_r}, rate-change sd {sd_d}")
    return max(-RHO_CLAMP, min(RHO_CLAMP, rho))

