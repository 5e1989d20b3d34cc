"""Pricing inputs and the leading-order prices of bonds, calls, and puts.

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

The kernel in :mod:`credeq.corrections` computes these formulas, together
with the eight Greeks; ``call_p0``, ``put_p0`` and ``defaultable_bond_p0``
are its P0 for one instrument. An independent derivation of them lives with
the test oracles (``tests/reference_oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .rates import EquityParams, VasicekParams

__all__ = [
    "CreditParams",
    "PricingInputs",
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
        if self.strike is not None and not (self.strike > 0 and math.isfinite(self.strike)):
            raise ValidationError(f"strike must be finite and > 0, got {self.strike}")

    @property
    def x_eff(self) -> float:
        """Spot adjusted for continuous dividends over the horizon."""
        return self.equity.x * math.exp(-self.equity.q * self.tau)


def defaultable_bond_p0(inputs: PricingInputs) -> float:
    """exp(-l*lambda*tau) times the riskless bond; recovers it when l*lambda=0."""
    from .corrections import price_p0

    return price_p0(inputs, "bond")


def call_p0(inputs: PricingInputs) -> float:
    """Call on the defaultable stock: x N(d1) - K Bc(1) N(d2)."""
    from .corrections import price_p0

    return price_p0(inputs, "call")


def put_p0(inputs: PricingInputs) -> float:
    """Put on the defaultable stock, including the pay-K-on-default claim."""
    from .corrections import price_p0

    return price_p0(inputs, "put")
