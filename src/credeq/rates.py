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
avoid catastrophic cancellation in the beta -> 0 limit; the eta^2 part of
a(s), which cancels down to O((beta*s)^3), takes a longer series up to
beta*s = 0.5 when beta < 0.05 (see ``_eta_bracket``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# NumPy is imported inside the functions that use arrays, so that the float
# path (one price, one CDS curve) never loads it.
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
    "at_bound",
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


# Taylor coefficients of G(u) = sum_{k>=3} (-1)^k (1 - 2^(k-2)) u^k / k!, from
# u^3 on; for u < 0.5 the first omitted term is below 1e-17 of G.
_G_SERIES = tuple((-1) ** k * (1 - 2 ** (k - 2)) / math.factorial(k) for k in range(20, 2, -1))
_G_SERIES_CUTOFF = 0.5
_G_SERIES_BETA = 0.05


def _eta_bracket(beta: float, s: float) -> float:
    """G(u) = u/2 + (exp(-u) - 1) - (exp(-2u) - 1)/4 with u = beta*s.

    The eta-dependent part of a(s) equals (eta^2 / beta^3) * G; G ~ u^3/6
    as u -> 0.

    The closed form cancels from O(u) down to O(u^3). Its rounding, about
    1e-16 * u, reaches the zero yield through eta^2 / (beta^3 s) as about
    1e-16 * eta^2 / beta^2, whatever s. Below beta = 0.05 that can exceed
    1e-13 (eta <= 1), so there G takes the series up to u = 0.5, beyond
    which the closed form loses under 3e-15 of G; at any beta the series
    also covers u < SERIES_CUTOFF.
    """
    u = beta * s
    if u < SERIES_CUTOFF or (u < _G_SERIES_CUTOFF and beta < _G_SERIES_BETA):
        acc = 0.0
        for c in _G_SERIES:
            acc = acc * u + c
        return acc * u**3
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

    One row per beta, one column per maturity.
    """
    import numpy as np

    rows = []
    for beta in betas:
        beta3 = beta**3
        rows.append([(int_b(beta, s) / s, -_eta_bracket(beta, s) / (beta3 * s),
                      factor_b(beta, s) * r / s) for s in maturities])
    cols = np.moveaxis(np.asarray(rows, dtype=float), -1, 0)
    return cols[0], cols[1], cols[2]


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
    CalibrationError
        When the sum of squared yield errors at the result is not finite;
        carries the result and that sum when the result is a valid
        parameter set.
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

    # The lowest grid minimum is polished to xtol; the others only closely
    # enough to rank them, and the one that beats it is then polished on.
    best, beta, refine = sses[minima[0]], grid[minima[0]], None
    for k in minima:
        lo_k, hi_k = max(k - 1, 0), min(k + 1, len(grid) - 1)
        ends = (grid[lo_k], float(sses[lo_k]), grid[hi_k], float(sses[hi_k]))
        xtol = 1e-13 if k == minima[0] else 1e-6
        polished, value = _brent_min(sse_at, *ends, grid[k], float(sses[k]), xtol=xtol)
        # Near a bound the SSE's rounding can put a spurious minimum just
        # inside it; a minimum on a bound stays there unless the polish
        # gains more than that rounding.
        if grid[k] in (lo, hi) and value > sses[k] * (1 - _BOUND_RTOL):
            continue
        if value < best:
            best, beta, refine = value, polished, (ends if k != minima[0] else None)
    if refine is not None:
        beta, best = _brent_min(sse_at, *refine, beta, best, xtol=1e-13)
    (alpha,), (eta2,), _ = project([beta])

    if not (math.isfinite(alpha) and math.isfinite(eta2)):
        raise CalibrationError("yield-curve fit is not finite", residual=float(best))
    params = VasicekParams(alpha=float(alpha), beta=float(beta), eta=math.sqrt(eta2), r=r)
    sse = sum(e * e for e in (vasicek_yield(params, s) - y for s, y in curve.points))
    if not math.isfinite(sse):
        raise CalibrationError("yield-curve fit is not finite", best=params, residual=sse)
    return params


def at_bound(params: VasicekParams) -> list[str]:
    """Names of the fitted parameters that lie on an end of ``FIT_BOUNDS``."""
    return [name for name, ends in FIT_BOUNDS.items() if getattr(params, name) in ends]


# ---------------------------------------------------------------------------
# Historical estimators
# ---------------------------------------------------------------------------

TRADING_DAYS = 252


def estimate_sigma2(history) -> float:
    """Annualized standard deviation of daily log returns (sqrt(252) scaling)."""
    import numpy as np

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
    s = np.asarray([stock_by_date[d] for d in common], dtype=float)
    r = np.asarray([rate_by_date[d] for d in common], dtype=float)
    rets = np.diff(np.log(s))
    drates = np.diff(r)
    sd_r, sd_d = np.std(rets), np.std(drates)
    if sd_r == 0 or sd_d == 0:
        raise ValidationError("a constant series has no defined correlation")
    rho = float(np.corrcoef(rets, drates)[0, 1])
    return max(-RHO_CLAMP, min(RHO_CLAMP, rho))

