"""Leading-order closed-form prices for bonds, calls, puts, and generic payoffs.

Pricing kernel: E[exp(-int (r_s + l*lambda) ds) h(X_T)] with a Vasicek rate
and effective (averaged) intensity lambda and volatility sigma2. Under the
forward measure the terminal log price is Gaussian, which gives

    P0 = Bc(l) * int h(exp(u)) N(u; m, v) du,
    Bc(l)  = exp(-l*lambda*tau + a(tau) - b(tau)*r),
    v      = sigma2^2*tau + eta^2*int b^2 + 2*eta*rho1*sigma2*int b,
    m      = log(x_eff) + lambda*tau - a(tau) + b(tau)*r - v/2,

with x_eff = x*exp(-q*tau). Calls and puts specialize the integral to the
Black-Scholes-like forms

    C0   = x_eff N(d1) - K Bc(1) N(d2),
    Put0 = -x_eff + x_eff N(d1) - K Bc(1) N(d2) + K Bc(0),
    d1,2 = [log(x_eff / (K Bc(1))) +- v/2] / sqrt(v),

where log(x_eff / K) is taken as log(x / K) - q*tau, so that near the money
at tiny tau it does not carry the rounding of x_eff.

The pre-default drift carries the full intensity (dS = (r + lambda) S dt),
so m always adds lambda*tau regardless of l; l enters only the discount
prefactor. The put's extra K*(Bc(0) - Bc(1)) terms are the claim paying K
at maturity when default has occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# NumPy is imported inside the functions that use arrays, so that the float
# path (one price, one CDS curve) never loads it.
from .errors import DomainError, NumericalError, ValidationError
from .rates import (
    EquityParams,
    VasicekParams,
    factor_a,
    factor_b,
    int_b,
    int_b_squared,
    riskless_bond,
)

__all__ = [
    "CreditParams",
    "PricingInputs",
    "variance_v",
    "mean_m",
    "defaultable_bond_p0",
    "call_p0",
    "put_p0",
    "generic_p0",
    "norm_cdf",
    "norm_pdf",
]

DEFAULT_QUAD_NODES = 128

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / SQRT2)


def norm_pdf(z: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * z * z)


@dataclass(frozen=True)
class CreditParams:
    """Loss rate l in [0, 1] and effective default intensity per year."""

    l: float
    lam: float

    def __post_init__(self):
        if not (0 <= self.l <= 1):
            raise ValidationError(f"loss rate must be in [0, 1], got {self.l}")
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValidationError(f"intensity must be >= 0 and finite, got {self.lam}")


@dataclass(frozen=True)
class PricingInputs:
    """Everything a single price evaluation needs.

    ``strike`` is only consulted by the option forms.
    """

    vasicek: VasicekParams
    equity: EquityParams
    credit: CreditParams
    tau: float
    strike: float | None = None

    def __post_init__(self):
        if not (self.tau >= 0 and math.isfinite(self.tau)):
            raise ValidationError(f"tau must be >= 0, got {self.tau}")
        if self.strike is not None and not (self.strike > 0):
            raise ValidationError(f"strike must be > 0, got {self.strike}")

    @property
    def x_eff(self) -> float:
        """Spot adjusted for continuous dividends over the horizon."""
        return self.equity.x * math.exp(-self.equity.q * self.tau)


def variance_v(inputs: PricingInputs) -> float:
    """Integrated log-price variance of the forward under the forward measure.

    Equals the quadrature of sigma2^2 + (eta*b(s))^2 + 2*rho1*sigma2*eta*b(s)
    over [0, tau]; zero at tau=0. Only the product eta*rho1*sigma2 enters.
    """
    eq, va, tau = inputs.equity, inputs.vasicek, inputs.tau
    v = (
        eq.sigma2**2 * tau
        + va.eta**2 * int_b_squared(va.beta, tau)
        + 2 * va.eta * eq.rho1 * eq.sigma2 * int_b(va.beta, tau)
    )
    if v < 0:
        raise DomainError(
            f"negative integrated variance {v}; rho1/eta combination inadmissible"
        )
    return v


def mean_m(inputs: PricingInputs) -> float:
    """Mean of terminal log price under the forward measure."""
    va, tau = inputs.vasicek, inputs.tau
    return (
        math.log(inputs.x_eff)
        + inputs.credit.lam * tau
        - factor_a(va, tau)
        + factor_b(va.beta, tau) * va.r
        - 0.5 * variance_v(inputs)
    )


def defaultable_bond_p0(inputs: PricingInputs) -> float:
    """exp(-l*lambda*tau) times the riskless bond; recovers it when l*lambda=0."""
    c = inputs.credit
    return math.exp(-c.l * c.lam * inputs.tau) * riskless_bond(inputs.vasicek, inputs.tau)


def _log_survival_bond(inputs: PricingInputs) -> float:
    """log Bc(l=1): stays representable when the discount itself underflows."""
    va, tau = inputs.vasicek, inputs.tau
    return -inputs.credit.lam * tau + factor_a(va, tau) - factor_b(va.beta, tau) * va.r


def _survival_bond(inputs: PricingInputs) -> float:
    """Bc(l=1): the defaultable discount with full intensity."""
    return math.exp(_log_survival_bond(inputs))


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


@lru_cache(maxsize=8)
def _hermite_nodes(n: int):
    from scipy.special import roots_hermite

    return roots_hermite(n)


# Integration half-width in standard deviations for the adaptive method.
QUAD_Z_RANGE = 12.0


def generic_p0(
    inputs: PricingInputs,
    payoff,
    method: str = "adaptive",
    n_nodes: int = DEFAULT_QUAD_NODES,
) -> float:
    """Quadrature evaluation of Bc(l) * E[h(exp(U))], U ~ N(m, v).

    ``payoff`` maps a terminal price (scalar or ndarray) to a value;
    measurable with at most polynomial growth. At tau=0 this degenerates
    to h(x_eff).

    ``method="adaptive"`` (default) integrates the Gaussian integral with
    adaptive Gauss-Kronrod, which resolves kinked and piecewise payoffs
    (calls, digitals) to ~1e-10 relative accuracy. ``method="hermite"``
    uses fixed Gauss-Hermite nodes (``n_nodes``), which is faster and
    spectrally accurate for smooth payoffs but only ~1e-3 accurate at a
    kink, so it is opt-in.
    """
    if inputs.tau == 0:
        return float(payoff(inputs.x_eff))
    m = mean_m(inputs)
    v = variance_v(inputs)
    if method == "hermite":
        import numpy as np

        t, w = _hermite_nodes(n_nodes)
        u = m + math.sqrt(2.0 * v) * t
        vals = np.asarray(payoff(np.exp(u)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericalError("payoff produced non-finite values on the quadrature grid")
        integral = float(np.dot(w, vals)) / math.sqrt(math.pi)
    elif method == "adaptive":
        from scipy.integrate import quad

        sv = math.sqrt(v)

        def integrand(z):
            val = float(payoff(math.exp(m + sv * z)))
            if not math.isfinite(val):
                raise NumericalError(f"payoff non-finite at price {math.exp(m + sv * z)}")
            return val * norm_pdf(z)

        integral, _ = quad(
            integrand, -QUAD_Z_RANGE, QUAD_Z_RANGE, epsabs=1e-13, epsrel=1e-11, limit=500
        )
    else:
        raise ValidationError(f"unknown quadrature method {method!r}")
    return defaultable_bond_p0(inputs) * integral
