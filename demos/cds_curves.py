"""CDS spread term structures a calibrated model can produce.

Three calibrated parameter sets with different loss rates and intensities
give visibly different curve shapes; no CDS quotes enter any of them.
Run: python demos/cds_curves.py
"""

from credeq.calibration import ModelFit
from credeq.cds import cds_term_structure
from credeq.corrections import CorrectionParams
from credeq.pricing import CreditParams
from credeq.rates import EquityParams, VasicekParams

eq = EquityParams(x=8.0, sigma2=0.3, rho1=0.0)

sets = {
    "partial loss, high intensity": ModelFit(
        VasicekParams(alpha=0.0037, beta=0.0872, eta=0.0001, r=0.0516),
        eq,
        CreditParams(l=0.283, lam=0.0459),
        CorrectionParams(v3=0.0425, w2=0.0036),
    ),
    "full loss, low intensity": ModelFit(
        VasicekParams(alpha=0.0045, beta=0.0983, eta=0.0002, r=0.0516),
        eq,
        CreditParams(l=1.0, lam=0.012),
        CorrectionParams(v3=0.0185, w2=0.0025),
    ),
    "full loss, mid intensity": ModelFit(
        VasicekParams(alpha=0.0039, beta=0.0817, eta=0.0012, r=0.0496),
        eq,
        CreditParams(l=1.0, lam=0.017),
        CorrectionParams(v3=0.0067, w2=0.0005),
    ),
}

maturities = list(range(1, 11))
print("annual-premium CDS spreads in bps by maturity")
print(f"{'maturity':>9} " + " ".join(f"{t:>7}" for t in maturities))
for label, fit in sets.items():
    curve = cds_term_structure(fit, maturities)
    print(f"{label:>30}: " + " ".join(f"{s * 1e4:7.1f}" for _, s in curve))

print("\nThe partial-loss set keeps rising over 1-10y; the full-loss sets")
print("hump and then roll over as cumulative default eats the annuity leg.")
