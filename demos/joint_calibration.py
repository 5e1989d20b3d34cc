"""Two-step calibration on synthetic quotes, end to end.

Generates a bond curve and an option surface from a known parameter set,
then runs the bond grid search + the vega-weighted option fit and prints
the recovered parameters next to the truth. Run:
python demos/joint_calibration.py
"""

from credeq.calibration import fit_bonds, fit_options
from credeq.corrections import CorrectionParams, price_full
from credeq.market_data import BondQuote, OptionQuote
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import EquityParams, VasicekParams

va = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
eq = EquityParams(x=8.04, sigma2=0.2576, rho1=-0.0327)

truth_l, truth_lam = 0.30, 0.05
truth = CorrectionParams(v1=0.02, v2=-0.001, v3=0.0009, v4=0.002,
                         v5=-0.03, v6=0.012, w1=-0.015, w2=-0.0001)

maturities = [0.60278, 1.0222, 1.1861, 1.3139, 1.4083, 1.5944, 2.3889,
              2.6028, 3.0194, 3.2694, 3.3972, 3.6472, 4.1722, 4.3806, 6.3139]
bond_credit = CreditParams(l=truth_l, lam=truth_lam)
bonds = [
    BondQuote(s, price_full(PricingInputs(va, eq, bond_credit, s), truth, "bond"))
    for s in maturities
]

opt_credit = CreditParams(l=1.0, lam=truth_lam)
options = []
for tau in (0.1, 0.25, 0.5, 1.0):
    for m in (0.8, 0.9, 1.0, 1.1, 1.2):
        kind = "put" if m >= 1.0 else "call"
        strike = m * eq.x
        price = price_full(PricingInputs(va, eq, opt_credit, tau, strike), truth, kind)
        options.append(OptionQuote(tau, strike, kind, price, volume=100))

print(f"synthetic inputs: {len(bonds)} bonds, {len(options)} options\n")

bond_fit = fit_bonds(bonds, va)
print("step 1 (bond grid + linear least squares)")
print(f"  l*lambda = {bond_fit.l_lambda:.6f}   (truth {truth_l * truth_lam:.6f})")
print(f"  l*V3     = {bond_fit.l_v3:.8f} (truth {truth_l * truth.v3:.8f})")
print(f"  l*W2     = {bond_fit.l_w2:.8f} (truth {truth_l * truth.w2:.8f})")
print(f"  residual = {bond_fit.residual:.3e}, condition = {bond_fit.condition_number:.1f}\n")

fit = fit_options(options, bond_fit, va, eq)
print("step 2 (loss-rate grid + vega-weighted least squares)")
print(f"  l      = {fit.l:.4f}  (truth {truth_l})")
print(f"  lambda = {fit.lam:.6f} (truth {truth_lam})")
for name in ("v1", "v2", "v3", "v4", "v5", "v6", "w1", "w2"):
    got, want = getattr(fit.coeffs, name), getattr(truth, name)
    print(f"  {name}   = {got:>12.8f} (truth {want:>12.8f}, err {abs(got - want):.2e})")
print(f"  weighted residual = {fit.weighted_residual:.3e}")
print(f"  design condition  = {fit.condition_number:.2e}")
