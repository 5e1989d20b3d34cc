"""Monte-Carlo validation of the closed forms.

With constant volatility and intensity every correction vanishes and the
leading-order formulas are exact, so a simulation of the short rate and
the stock (the factors these payoffs read) must agree within its own
standard error. The call and the put read one 400,000-path simulation to
0.5 y (``simulate_terminals``, then ``mc_estimate`` per payoff); the bond
runs its own to 2 y. Each takes one exact step to its horizon.
Run: python demos/mc_validation.py (about 0.4 seconds on a 2-core machine).
"""

from credeq.oracle_mc import FactorSpec, McConfig, mc_estimate, mc_price, simulate_terminals
from credeq.pricing import CreditParams, PricingInputs, call_p0, defaultable_bond_p0, put_p0
from credeq.rates import EquityParams, VasicekParams

va = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
eq = EquityParams(x=8.04, sigma2=0.2576, rho1=-0.25)
credit = CreditParams(l=0.4, lam=0.08)

spec = FactorSpec.constant(sigma=eq.sigma2, lam=credit.lam, rho1=eq.rho1)
cfg = McConfig(n_paths=400_000, seed=7, factor_spec=spec)

pin_opt = PricingInputs(va, eq, credit, 0.5, 8.04)
pin_bond = PricingInputs(va, eq, credit, 2.0)
opt_sim = simulate_terminals(cfg, pin_opt, [pin_opt.tau])

print(f"{'instrument':>10} {'simulated':>12} {'std err':>10} {'closed form':>12} {'z':>6}")
for name, (est, se), closed in (
    ("call", mc_estimate("call", opt_sim, pin_opt), call_p0(pin_opt)),
    ("put", mc_estimate("put", opt_sim, pin_opt), put_p0(pin_opt)),
    ("bond", mc_price(cfg, "bond", pin_bond), defaultable_bond_p0(pin_bond)),
):
    print(f"{name:>10} {est:>12.6f} {se:>10.2e} {closed:>12.6f} {(est - closed) / se:>+6.2f}")
print("\n|z| stays within ~2: the pricing kernel, drift, and discounting all line up.")
