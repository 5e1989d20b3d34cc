"""Independent oracles the pricing kernel and its Greeks are tested against.

* The leading-order closed forms ``call_p0``, ``put_p0`` and
  ``defaultable_bond_p0``, with their own integrated variance
  (``variance_v``), survival bond and d1/d2. They share no algebra with the
  kernel in :mod:`credeq.corrections`, whose P0 the library's
  ``credeq.pricing`` wrappers return; only the Vasicek factors come from
  :mod:`credeq.rates`.
* ``generic_p0``: adaptive quadrature (scipy ``quad``) of the pricing
  integral for any payoff, sharing only the log-price mean (``mean_m``)
  and variance with the closed-form calls and puts here.
* ``greeks_fd``: the eight Greeks from Richardson-extrapolated central
  differences of those closed forms, independent of the analytic
  derivative algebra in :mod:`credeq.corrections`.
* ``best_on_grid_svd``: the calibration's grid search without the QR
  screen, solving every grid point by batched SVD.
* ``cds_spread_reduce``: one schedule's CDS spread with its own annuity,
  summed left to right, the order the library's running sum adds in; each
  bond is a separate ``price_full``.
* ``bs_price``: the Black-Scholes price with its own d1 and d2, sharing no
  body with :mod:`credeq.implied_vol`, whose ``bs_price`` and Newton steps
  run one.
* ``bs_vega``: the Black-Scholes vega with its own d1, the body the
  library's ``bs_vega`` had before it took its vega from the shared one.
* ``implied_vol_calls``: the implied-vol inversion with a separate
  ``bs_price`` and ``bs_vega`` call (the ones here) on every Newton step.
"""

import math
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
from scipy.integrate import quad

from credeq.errors import DomainError, NumericalError, ValidationError
from credeq.corrections import price_full
from credeq.implied_vol import PRICE_TOL, VOL_HI, VOL_LO
from credeq.pricing import CreditParams, PricingInputs, norm_cdf, norm_pdf
from credeq.rates import VasicekParams, riskless_bond, vasicek_factors


def variance_v(inputs: PricingInputs) -> float:
    """Integrated log-price variance of the forward under the forward measure.

    Equals the quadrature of sigma2^2 + (eta*b(s))^2 + 2*rho1*sigma2*eta*b(s)
    over [0, tau]; zero at tau=0. Only the product eta*rho1*sigma2 enters.
    int b^2 = 2 G/beta^3. A square out of float range raises NumericalError
    naming its parameter.
    """
    va, eq, tau = inputs.vasicek, inputs.equity, inputs.tau
    _, big_a, _, g3 = vasicek_factors(va.beta, tau)
    try:
        sigma2_sq, eta_sq = eq.sigma2**2, va.eta**2
    except OverflowError:  # the larger of the two (both >= 0) overflows
        name, value = ("sigma2", eq.sigma2) if eq.sigma2 > va.eta else ("eta", va.eta)
        raise NumericalError(f"{name} = {value} puts the variance out of float range") from None
    v = sigma2_sq * tau + eta_sq * (2 * g3) + 2 * va.eta * eq.rho1 * eq.sigma2 * big_a
    if v < 0:
        raise DomainError(
            f"negative integrated variance {v}; rho1/eta combination inadmissible"
        )
    return v


def defaultable_bond_p0(inputs: PricingInputs) -> float:
    """exp(-l*lambda*tau) times the riskless bond; recovers it when l*lambda=0."""
    c = inputs.credit
    return math.exp(-c.l * c.lam * inputs.tau) * riskless_bond(inputs.vasicek, inputs.tau)


def _log_survival_bond(inputs: PricingInputs) -> float:
    """log Bc(l=1): stays representable when the discount itself underflows."""
    va, tau = inputs.vasicek, inputs.tau
    b, _, a, _ = vasicek_factors(va.beta, tau, va.alpha, va.eta)
    return -inputs.credit.lam * tau + a - b * va.r


def _survival_bond(inputs: PricingInputs) -> float:
    """Bc(l=1): the defaultable discount with full intensity; NumericalError out of float range."""
    log_bond = _log_survival_bond(inputs)
    try:
        return math.exp(log_bond)
    except OverflowError:
        va = inputs.vasicek
        raise NumericalError(f"the survival bond exp({log_bond:.6g}) is out of float range at "
                             f"lam = {inputs.credit.lam}, alpha = {va.alpha}, eta = {va.eta}, "
                             f"r = {va.r}") from None


def _d12(inputs: PricingInputs):
    v = variance_v(inputs)
    if v <= 0:
        raise DomainError(f"variance must be positive for option pricing, got {v}")
    sv = math.sqrt(v)
    eq = inputs.equity
    log_ratio = math.log(eq.x / inputs.strike) - eq.q * inputs.tau - _log_survival_bond(inputs)
    return (log_ratio + 0.5 * v) / sv, (log_ratio - 0.5 * v) / sv


def call_p0(inputs: PricingInputs) -> float:
    """Call on the defaultable stock: x N(d1) - K Bc(1) N(d2)."""
    if inputs.strike is None:
        raise ValidationError("call_p0 requires a strike")
    if inputs.tau <= 0:
        raise ValidationError("call_p0 requires tau > 0")
    d1, d2 = _d12(inputs)
    return inputs.x_eff * norm_cdf(d1) - inputs.strike * _survival_bond(inputs) * norm_cdf(d2)


def put_p0(inputs: PricingInputs) -> float:
    """Put on the defaultable stock, including the pay-K-on-default claim."""
    if inputs.strike is None:
        raise ValidationError("put_p0 requires a strike")
    if inputs.tau <= 0:
        raise ValidationError("put_p0 requires tau > 0")
    x_eff, strike = inputs.x_eff, inputs.strike
    d1, d2 = _d12(inputs)
    riskless = riskless_bond(inputs.vasicek, inputs.tau)
    return (
        -x_eff
        + x_eff * norm_cdf(d1)
        - strike * _survival_bond(inputs) * norm_cdf(d2)
        + strike * riskless
    )


# Integration half-width in standard deviations.
QUAD_Z_RANGE = 12.0


def mean_m(inputs: PricingInputs) -> float:
    """Mean of terminal log price under the forward measure."""
    va, tau = inputs.vasicek, inputs.tau
    b, _, a, _ = vasicek_factors(va.beta, tau, va.alpha, va.eta)
    return (
        math.log(inputs.x_eff)
        + inputs.credit.lam * tau
        - a
        + b * va.r
        - 0.5 * variance_v(inputs)
    )


def generic_p0(inputs: PricingInputs, payoff) -> float:
    """Quadrature evaluation of Bc(l) * E[h(exp(U))], U ~ N(m, v).

    ``payoff`` maps a terminal price to a value; measurable with at most
    polynomial growth. At tau=0 this degenerates to h(x_eff).

    Adaptive Gauss-Kronrod resolves kinked and piecewise payoffs (calls,
    digitals) to ~1e-10 relative accuracy.
    """
    if inputs.tau == 0:
        return float(payoff(inputs.x_eff))
    m = mean_m(inputs)
    v = variance_v(inputs)
    sv = math.sqrt(v)

    def integrand(z):
        val = float(payoff(math.exp(m + sv * z)))
        if not math.isfinite(val):
            raise NumericalError(f"payoff non-finite at price {math.exp(m + sv * z)}")
        return val * norm_pdf(z)

    integral, _ = quad(
        integrand, -QUAD_Z_RANGE, QUAD_Z_RANGE, epsabs=1e-13, epsrel=1e-11, limit=500
    )
    return defaultable_bond_p0(inputs) * integral


# Richardson-extrapolated central differences over the closed-form P0.
# Step sizes grow with derivative order: roundoff in a k-th order stencil
# scales like eps / h^k, so h = 1e-4 is reserved for first derivatives and
# nested/higher stencils use wider steps (the closed forms vary on O(1)
# parameter scales, so the Richardson truncation stays ~h^4).
FD_STEP_FIRST = 1e-4
FD_STEP_SECOND = 2e-3
FD_STEP_PARAM = 5e-3
FD_STEP_THIRD = 6e-3


def _richardson_d1(f, x0: float, h: float) -> float:
    def central(step):
        return (f(x0 + step) - f(x0 - step)) / (2 * step)

    if h <= 0 or x0 + h == x0:
        raise NumericalError("finite-difference step underflowed")
    return (4 * central(h / 2) - central(h)) / 3


def _richardson_d2(f, x0: float, h: float) -> float:
    def central(step):
        return (f(x0 + step) - 2 * f(x0) + f(x0 - step)) / (step * step)

    if h <= 0 or x0 + h == x0:
        raise NumericalError("finite-difference step underflowed")
    return (4 * central(h / 2) - central(h)) / 3


def _reprice(inputs: PricingInputs, kind: str, *, x=None, alpha=None, eta=None, r=None):
    va, eq = inputs.vasicek, inputs.equity
    va2 = VasicekParams(
        alpha=va.alpha if alpha is None else alpha,
        beta=va.beta,
        eta=va.eta if eta is None else eta,
        r=va.r if r is None else r,
    )
    eq2 = eq if x is None else replace(eq, x=x)
    pin = PricingInputs(va2, eq2, inputs.credit, inputs.tau, inputs.strike)
    # The closed forms above, so the oracle shares no algebra with the kernel.
    forms = {"call": call_p0, "put": put_p0, "bond": defaultable_bond_p0}
    if kind not in forms:
        raise ValidationError(f"unknown instrument kind {kind!r}")
    return forms[kind](pin)


def greeks_fd(inputs: PricingInputs, kind: str) -> tuple:
    """Greeks (g1, ..., g8) from Richardson central differences of the closed forms.

    Independent of the analytic derivative algebra; the oracle for the
    kernel's Greeks (``credeq.corrections._evaluate``).
    """
    tau = inputs.tau
    va = inputs.vasicek
    x0 = inputs.equity.x
    hx = FD_STEP_FIRST * x0
    ha = FD_STEP_PARAM
    hr = FD_STEP_PARAM
    # eta must stay nonnegative across the stencil
    he = min(FD_STEP_SECOND, 0.9 * va.eta)
    if kind != "bond" and he <= 0:
        raise NumericalError("finite differences in eta require eta > 0")

    def p_of_x(x):
        return _reprice(inputs, kind, x=x)

    if kind == "bond":
        bond = defaultable_bond_p0(inputs)
        d_alpha = _richardson_d1(lambda a: _reprice(inputs, kind, alpha=a), va.alpha, ha)
        d_r = _richardson_d1(lambda r: _reprice(inputs, kind, r=r), va.r, hr)
        g3 = d_alpha
        g8 = (-d_alpha + 0.5 * tau * tau * bond + tau * d_r) / va.beta
        return (0.0, 0.0, g3, 0.0, 0.0, 0.0, 0.0, g8)

    p0 = _reprice(inputs, kind)
    dx = _richardson_d1(p_of_x, x0, hx)
    dxx = _richardson_d2(p_of_x, x0, FD_STEP_SECOND * x0)
    gamma2 = x0 * x0 * dxx

    # Third x-derivative via a wider 5-point stencil (noise ~ eps/h^3).
    h3 = FD_STEP_THIRD * x0

    def d3(step):
        return (
            p_of_x(x0 + 2 * step)
            - 2 * p_of_x(x0 + step)
            + 2 * p_of_x(x0 - step)
            - p_of_x(x0 - 2 * step)
        ) / (2 * step**3)

    dxxx = (4 * d3(h3 / 2) - d3(h3)) / 3

    def dx_at(**kw):
        return _richardson_d1(lambda x: _reprice(inputs, kind, x=x, **kw), x0, hx)

    def dxx_at(**kw):
        return _richardson_d2(
            lambda x: _reprice(inputs, kind, x=x, **kw), x0, FD_STEP_SECOND * x0
        )

    d_alpha = _richardson_d1(lambda a: _reprice(inputs, kind, alpha=a), va.alpha, ha)
    d_r = _richardson_d1(lambda r: _reprice(inputs, kind, r=r), va.r, hr)
    dx_dalpha = _richardson_d1(lambda a: dx_at(alpha=a), va.alpha, ha)
    dx_deta = _richardson_d1(lambda e: dx_at(eta=e), va.eta, he)
    dx_dr = _richardson_d1(lambda r: dx_at(r=r), va.r, hr)
    dxx_dalpha = _richardson_d1(lambda a: dxx_at(alpha=a), va.alpha, ha)

    g1 = -tau * gamma2
    g2 = -tau * x0 * (2 * x0 * dxx + x0 * x0 * dxxx)
    g3 = x0 * dx_dalpha - d_alpha
    g4 = x0 * x0 * dxx_dalpha
    g5 = x0 * dx_deta
    g6 = x0 * dx_dalpha
    g7 = 0.5 * tau * tau * gamma2
    g8 = (
        g6 - d_alpha + 0.5 * tau * tau * (gamma2 - x0 * dx + p0) - tau * (x0 * dx_dr - d_r)
    ) / va.beta
    return (g1, g2, g3, g4, g5, g6, g7, g8)


def best_on_grid_svd(design, rhs, rank_message: str):
    """``calibration._best_on_grid`` as it was before its QR screen: every grid point solved.

    Row g of the (G x M x N) ``design`` and the (G x M) ``rhs`` is grid point
    g's system; all are solved by batched SVD with the rank rule of
    ``np.linalg.lstsq``, and NumericalError is raised when any system has
    rank below N. Returns the winner's index, solution, residual sum of
    squares and condition number; ties go to the first grid point.
    """
    u, sing, vt = np.linalg.svd(design, full_matrices=False)
    keep = sing > np.finfo(float).eps * max(design.shape[-2:]) * sing[:, :1]
    if not keep.all():
        raise NumericalError(rank_message)
    theta = np.einsum("gji,gj->gi", vt, np.einsum("gmj,gm->gj", u, rhs) / sing)
    resid = np.sum((rhs - np.einsum("gmn,gn->gm", design, theta)) ** 2, axis=-1)
    i = int(np.argmin(resid))
    return i, theta[i], float(resid[i]), float(sing[i, 0] / sing[i, -1])


def cds_spread_reduce(fit, schedule) -> float:
    """``cds.cds_spread`` as it was before it shared ``cds_term_structure``'s running sum.

    The annuity is the schedule's own full-loss bonds added left to right by
    ``reduce``, from 0; ``sum()`` would not do, as it compensates from
    CPython 3.12 on.
    """
    def bond(credit, tau):
        pin = PricingInputs(fit.vasicek, fit.equity, credit, tau)
        return price_full(pin, fit.coeffs, "bond", fit.variant)

    full_loss = CreditParams(l=1.0, lam=fit.credit.lam)
    annuity = reduce(add, (bond(full_loss, t) for t in schedule.payment_times), 0)
    t_mat = schedule.maturity
    protection = riskless_bond(fit.vasicek, t_mat) - bond(fit.credit, t_mat)
    if annuity <= 0:
        raise NumericalError(f"degenerate premium annuity {annuity} for schedule up to {t_mat}")
    return protection / annuity / schedule.delta


def bs_price(x: float, strike: float, tau: float, rate: float, vol: float, kind: str) -> float:
    """Black-Scholes price with a flat continuously-compounded rate, with its own d1 and d2.

    The library's checks and messages, in its order, and its expressions.
    """
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
    """dPrice/dVol = x * pdf(d1) * sqrt(tau), with its own d1; the library's check and message."""
    if x <= 0 or strike <= 0 or tau <= 0 or vol <= 0:
        raise ValidationError("bs_vega needs positive inputs")
    sv = vol * math.sqrt(tau)
    d1 = (math.log(x / strike) + (rate + 0.5 * vol * vol) * tau) / sv
    return x * norm_pdf(d1) * math.sqrt(tau)


def implied_vol_calls(price, x, strike, tau, rate, kind) -> float:
    """``implied_vol`` as it was before its Newton steps shared one d1.

    Every trial vol prices with ``bs_price`` and takes its vega from
    ``bs_vega``; the checks, the bounds, the bracket and the iteration are the library's.
    """
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be call or put, got {kind!r}")
    if x <= 0 or strike <= 0 or tau <= 0:
        raise ValidationError("bs_price needs positive spot, strike, and maturity")
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
        vol = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)
