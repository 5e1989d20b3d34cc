"""Per-grid-point scalar loops: the reference for the batched calibration.

These are the calibration steps written one grid point and one quote at a
time, over the public scalar ``greeks`` and ``price_p0`` and
``np.linalg.lstsq``. The batched fits in :mod:`credeq.calibration` must
pick the same grid point and agree with them to rounding.
"""

import math

import numpy as np

from credeq.calibration import _VARIANT_COLUMNS, _quote_weights
from credeq.corrections import greeks, price_p0
from credeq.errors import NumericalError
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import EquityParams

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
        cols[i] = g.g3, g.g8
    return p0, cols


def option_rows(options, vasicek, equity, lam, columns):
    """P0, known-Greek pair (g3, g8), and linear columns for every quote."""
    n = len(options)
    p0 = np.empty(n)
    known = np.empty((n, 2))
    cols = np.empty((n, len(columns)))
    credit = CreditParams(l=1.0, lam=lam)
    for i, q in enumerate(options):
        pin = PricingInputs(vasicek, equity, credit, q.maturity, q.strike)
        gt = greeks(pin, q.kind).as_tuple()
        if not all(math.isfinite(t) for t in gt):
            raise NumericalError(f"non-finite greeks for quote {q}")
        p0[i] = price_p0(pin, q.kind)
        known[i] = gt[2], gt[7]
        cols[i] = [gt[j] for _, j in columns]
    return p0, known, cols


def fit_bonds_loop(bonds, vasicek, m1=1.0, n_grid=201):
    """(grid index, l*lambda, (l*V3, l*W2), residual) of the first minimum."""
    prices = np.asarray([q.price for q in bonds])
    best = None
    for i, l_lambda in enumerate(np.linspace(0.0, m1, n_grid)):
        p0, cols = bond_design(bonds, vasicek, float(l_lambda))
        rhs = prices - p0
        theta, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        resid = float(np.sum((rhs - cols @ theta) ** 2))
        if best is None or resid < best[3]:
            best = (i, float(l_lambda), theta, resid)
    return best


def option_residuals(options, weights, bond_fit, vasicek, equity, l, variant="seven_param"):
    """(theta, weighted residual) of the option step's least squares at one l."""
    columns = _VARIANT_COLUMNS[variant]
    prices = np.asarray([q.price for q in options])
    p0, known, cols = option_rows(options, vasicek, equity, bond_fit.l_lambda / l, columns)
    rhs = prices - p0 - bond_fit.l_v3 / l * known[:, 0] - bond_fit.l_w2 / l * known[:, 1]
    wcols, wrhs = cols * weights[:, None], rhs * weights
    theta, *_ = np.linalg.lstsq(wcols, wrhs, rcond=None)
    return theta, float(np.sum((wrhs - wcols @ theta) ** 2))


def fit_options_loop(options, bond_fit, vasicek, equity, l_min=0.05, n_l_grid=96,
                     variant="seven_param"):
    """(grid index, l, theta, weighted residual) of the first minimum."""
    weights = _quote_weights(options, vasicek, equity)
    best = None
    for i, l in enumerate(np.linspace(l_min, 1.0, n_l_grid)):
        theta, resid = option_residuals(options, weights, bond_fit, vasicek, equity, l, variant)
        if best is None or resid < best[3]:
            best = (i, float(l), theta, resid)
    return best
