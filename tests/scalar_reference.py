"""Reference implementations the fast paths are tested against.

* Per-grid-point scalar loops: the calibration steps written one grid point
  and one quote at a time, over the scalar Greeks (``conftest.greeks``) and
  ``price_p0`` and ``np.linalg.lstsq``. The batched fits in
  :mod:`credeq.calibration` must pick the same grid point and agree with
  them to rounding.
* A multi-start bounded Nelder-Mead fit of the Vasicek curve over all three
  parameters. The variable-projection ``fit_vasicek`` must reach an SSE no
  larger than it.
"""

import math

import numpy as np
from scipy.optimize import minimize

from credeq import calibration
from credeq.calibration import _quote_weights
from credeq.corrections import VARIANTS, price_p0
from credeq.errors import NumericalError
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import FIT_BOUNDS, EquityParams, VasicekParams, vasicek_yield

from conftest import greeks

# The bond formulas never look at the equity block; any valid one will do.
UNIT_EQUITY = EquityParams(x=1.0, sigma2=0.2, rho1=0.0)


def bond_design(bonds, vasicek, l_lambda):
    """Model prices and the (g3, g8) columns at a fixed l*lambda product."""
    credit = CreditParams(l=1.0, lam=l_lambda)
    p0 = np.empty(len(bonds))
    cols = np.empty((len(bonds), 2))
    for i, q in enumerate(bonds):
        pin = PricingInputs(vasicek, UNIT_EQUITY, credit, q.maturity)
        g = greeks(pin, "bond")
        p0[i] = price_p0(pin, "bond")
        cols[i] = g[2], g[7]
    return p0, cols


def option_rows(options, vasicek, equity, lam, columns):
    """P0, known-Greek pair (g3, g8), and the Greeks at ``columns`` for every quote."""
    n = len(options)
    p0 = np.empty(n)
    known = np.empty((n, 2))
    cols = np.empty((n, len(columns)))
    credit = CreditParams(l=1.0, lam=lam)
    for i, q in enumerate(options):
        pin = PricingInputs(vasicek, equity, credit, q.maturity, q.strike)
        gt = greeks(pin, q.kind)
        if not all(math.isfinite(t) for t in gt):
            raise NumericalError(f"non-finite greeks for quote {q}")
        p0[i] = price_p0(pin, q.kind)
        known[i] = gt[2], gt[7]
        cols[i] = [gt[j] for j in columns]
    return p0, known, cols


def fit_bonds_loop(bonds, vasicek):
    """(grid index, l*lambda, (l*V3, l*W2), residual) of the first minimum."""
    prices = np.asarray([q.price for q in bonds])
    best = None
    grid = np.linspace(0.0, calibration.DEFAULT_M1, calibration.DEFAULT_BOND_GRID)
    for i, l_lambda in enumerate(grid):
        p0, cols = bond_design(bonds, vasicek, float(l_lambda))
        rhs = prices - p0
        theta, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        resid = float(np.sum((rhs - cols @ theta) ** 2))
        if best is None or resid < best[3]:
            best = (i, float(l_lambda), theta, resid)
    return best


def option_residuals(options, weights, bond_fit, vasicek, equity, l, variant="seven_param"):
    """(theta, weighted residual) of the option step's least squares at one l."""
    columns = VARIANTS[variant].columns
    prices = np.asarray([q.price for q in options])
    p0, known, cols = option_rows(options, vasicek, equity, bond_fit.l_lambda / l, columns)
    rhs = prices - p0 - bond_fit.l_v3 / l * known[:, 0] - bond_fit.l_w2 / l * known[:, 1]
    wcols, wrhs = cols * weights[:, None], rhs * weights
    theta, *_ = np.linalg.lstsq(wcols, wrhs, rcond=None)
    return theta, float(np.sum((wrhs - wcols @ theta) ** 2))


def fit_options_loop(options, bond_fit, vasicek, equity, variant="seven_param"):
    """(grid index, l, theta, weighted residual) of the first minimum."""
    weights = _quote_weights(options, vasicek, equity)
    best = None
    grid = np.linspace(calibration.DEFAULT_L_MIN, 1.0, calibration.DEFAULT_L_GRID)
    for i, l in enumerate(grid):
        theta, resid = option_residuals(options, weights, bond_fit, vasicek, equity, l, variant)
        if best is None or resid < best[3]:
            best = (i, float(l), theta, resid)
    return best


def curve_sse(params, curve):
    """Sum of squared yield errors of the model against a treasury curve."""
    return sum((vasicek_yield(params, s) - y) ** 2 for s, y in curve.points)


def fit_vasicek_nelder_mead(curve, r_proxy=None):
    """Bounded Nelder-Mead over (alpha, beta, eta) from 8 seeds, then a polishing restart."""
    yields = [y for _, y in curve.points]
    r = yields[0] if r_proxy is None else r_proxy

    def sse(theta):
        alpha, beta, eta = theta
        return curve_sse(VasicekParams(alpha=alpha, beta=beta, eta=eta, r=r), curve)

    ybar = sum(yields) / len(yields)
    bounds = [FIT_BOUNDS["alpha"], FIT_BOUNDS["beta"], FIT_BOUNDS["eta"]]
    seeds = [
        (min(max(b0 * ybar, -0.49), 0.49), b0, e0)
        for b0 in (0.05, 0.15, 0.5, 1.5)
        for e0 in (0.001, 0.02)
    ]
    best = None
    for seed in seeds:
        res = minimize(sse, x0=np.asarray(seed), method="Nelder-Mead", bounds=bounds,
                       options={"xatol": 1e-12, "fatol": 1e-18, "maxiter": 4000, "maxfev": 8000})
        if best is None or res.fun < best.fun:
            best = res
    # Polish: restart the simplex at the incumbent, which resets its scale.
    res = minimize(sse, x0=best.x, method="Nelder-Mead", bounds=bounds,
                   options={"xatol": 1e-14, "fatol": 1e-20, "maxiter": 4000, "maxfev": 8000})
    if res.fun <= best.fun:
        best = res
    alpha, beta, eta = best.x
    return VasicekParams(alpha=float(alpha), beta=float(beta), eta=float(eta), r=r)
