"""Leading-order closed-form prices for bonds, calls, and puts.

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

from .errors import DomainError, NumericalError, ValidationError
from .rates import EquityParams, VasicekParams, riskless_bond, vasicek_factors

__all__ = [
    "CreditParams",
    "PricingInputs",
    "variance_v",
    "defaultable_bond_p0",
    "call_p0",
    "put_p0",
    "norm_cdf",
    "norm_pdf",
]

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


def _variance(va: VasicekParams, eq: EquityParams, tau: float, big_a: float, g3: float):
    """(v, dv/deta) from the factors int b = ``big_a`` and G/beta^3 = ``g3``.

    int b^2 = 2*g3; dv/deta is taken at fixed rho1*sigma2 coupling. A square
    out of float range raises NumericalError naming its parameter.
    """
    try:
        sigma2_sq, eta_sq = eq.sigma2**2, va.eta**2
    except OverflowError:  # the larger of the two (both >= 0) overflows
        name, value = ("sigma2", eq.sigma2) if eq.sigma2 > va.eta else ("eta", va.eta)
        raise NumericalError(f"{name} = {value} puts the variance out of float range") from None
    ibb = 2 * g3
    v = sigma2_sq * tau + eta_sq * ibb + 2 * va.eta * eq.rho1 * eq.sigma2 * big_a
    return v, 2 * va.eta * ibb + 2 * eq.rho1 * eq.sigma2 * big_a


def variance_v(inputs: PricingInputs) -> float:
    """Integrated log-price variance of the forward under the forward measure.

    Equals the quadrature of sigma2^2 + (eta*b(s))^2 + 2*rho1*sigma2*eta*b(s)
    over [0, tau]; zero at tau=0. Only the product eta*rho1*sigma2 enters.
    """
    _, big_a, _, g3 = vasicek_factors(inputs.vasicek.beta, inputs.tau)
    v = _variance(inputs.vasicek, inputs.equity, inputs.tau, big_a, g3)[0]
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
