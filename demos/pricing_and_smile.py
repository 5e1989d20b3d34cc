"""Closed-form pricing walk-through: bonds, options, and the vol smile.

Prices a defaultable bond curve, call/put pairs, and inverts the model
prices into a Black-Scholes implied-volatility surface to show the skew
the default intensity induces. Run: python demos/pricing_and_smile.py
"""

import numpy as np

from credeq.corrections import CorrectionParams, price_full
from credeq.implied_vol import model_quote
from credeq.pricing import CreditParams, PricingInputs, call_p0, defaultable_bond_p0, put_p0
from credeq.rates import EquityParams, VasicekParams, riskless_bond

va = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
eq = EquityParams(x=8.04, sigma2=0.2576, rho1=-0.0327)
credit = CreditParams(l=0.3, lam=0.05)

print("=" * 64)
print("1. Bond curve: riskless vs defaultable (loss 30%, intensity 5%)")
print("=" * 64)
print(f"{'T':>4} {'riskless':>10} {'defaultable':>12} {'spread(bps)':>12}")
for tau in (1, 2, 5, 10):
    riskless = riskless_bond(va, tau)
    risky = defaultable_bond_p0(PricingInputs(va, eq, credit, tau))
    spread = -np.log(risky / riskless) / tau * 1e4
    print(f"{tau:>4} {riskless:>10.5f} {risky:>12.5f} {spread:>12.1f}")

print()
print("=" * 64)
print("2. Option pairs and parity (options always carry full loss)")
print("=" * 64)
opt_credit = CreditParams(l=1.0, lam=0.05)
print(f"{'K':>6} {'call':>8} {'put':>8} {'C-P':>8} {'x-K*B':>8}")
for m in (0.8, 1.0, 1.2):
    strike = round(m * eq.x, 2)
    pin = PricingInputs(va, eq, opt_credit, 1.0, strike)
    c, p = call_p0(pin), put_p0(pin)
    print(f"{strike:>6.2f} {c:>8.4f} {p:>8.4f} {c - p:>8.4f} "
          f"{eq.x - strike * riskless_bond(va, 1.0):>8.4f}")

print()
print("=" * 64)
print("3. Implied-volatility skew from default risk alone")
print("=" * 64)
zero = CorrectionParams()
moneyness = (0.7, 0.85, 1.0, 1.15)
print(f"{'tau':>5} " + " ".join(f"{m:>8.2f}" for m in moneyness))
for tau in (0.25, 0.5, 1.0, 2.0):
    row = []
    for m in moneyness:
        strike = m * eq.x
        pin = PricingInputs(va, eq, opt_credit, tau, strike)
        _, iv, _ = model_quote(price_full(pin, zero, "call"), strike, tau, "call", va, eq)
        row.append(f"{iv:>8.4f}")
    print(f"{tau:>5} " + " ".join(row))
print("\nLow strikes quote well above the 0.2576 historical vol: the")
print("down-and-out-at-default stock makes crash protection expensive.")
