"""Shared fixture parameter sets, synthetic quote builders and the hypothesis profile."""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from credeq.corrections import CorrectionParams, _evaluate, price_full
from credeq.market_data import BondQuote, OptionQuote
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import EquityParams, VasicekParams

# Every property test runs the same examples on every run, with no deadline.
settings.register_profile("credeq", derandomize=True, deadline=None)
settings.load_profile("credeq")


def greeks(inputs, kind):
    """The kernel's closed-form Greeks (g1, ..., g8) of a call, put or bond."""
    return _evaluate(inputs, kind)[2]


def log_uniform(lo, hi):
    """Floats in [lo, hi], log-uniform: small values are drawn as often as large ones."""
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))


# Calibrated single-name example: low rate vol, short-dated equity surface.
SURFACE_VASICEK = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
SURFACE_EQUITY = EquityParams(x=8.04, sigma2=0.2576, rho1=-0.0327)
SURFACE_LAMBDA = 0.027
SURFACE_COEFFS = CorrectionParams(
    v1=0.9960, v2=-0.0014, v3=0.0009, v4=0.0104,
    v5=-0.6514, v6=0.3340, w1=-0.1837, w2=-0.0001,
)

# Historical-estimation example values.
HIST_VASICEK = VasicekParams(alpha=0.0037, beta=0.0872, eta=0.0001, r=0.0516)
HIST_SIGMA2 = 0.3827
HIST_RHO1 = -0.0327

# Index-option example: large spot, dividend yield, livelier rate vol.
INDEX_VASICEK = VasicekParams(alpha=0.0078, beta=0.1173, eta=0.0241, r=0.0476)
INDEX_EQUITY = EquityParams(x=1507.67, sigma2=0.1124, rho1=0.020454, q=0.0190422)

# Three calibrated bond/CDS parameter sets with distinct curve shapes.
CDS_SET_A = dict(
    vasicek=VasicekParams(alpha=0.0037, beta=0.0872, eta=0.0001, r=0.0516),
    credit=CreditParams(l=0.283, lam=0.0459),
    coeffs=CorrectionParams(v3=0.0425, w2=0.0036),
)
CDS_SET_B = dict(
    vasicek=VasicekParams(alpha=0.0045, beta=0.0983, eta=0.0002, r=0.0516),
    credit=CreditParams(l=1.0, lam=0.012),
    coeffs=CorrectionParams(v3=0.0185, w2=0.0025),
)
CDS_SET_C = dict(
    vasicek=VasicekParams(alpha=0.0039, beta=0.0817, eta=0.0012, r=0.0496),
    credit=CreditParams(l=1.0, lam=0.017),
    coeffs=CorrectionParams(v3=0.0067, w2=0.0005),
)

# A real corporate curve's maturity pattern (irregular, clustered short end).
BOND_MATURITIES = (
    0.60278, 1.0222, 1.1861, 1.3139, 1.4083, 1.5944, 2.3889, 2.6028,
    3.0194, 3.2694, 3.3972, 3.6472, 4.1722, 4.3806, 6.3139,
)

# Round-trip truth for the synthetic calibration fixtures. The products
# l*lam = 0.015 and l = 0.30 sit exactly on the default search grids.
TRUE_LOSS = 0.30
TRUE_LAMBDA = 0.05


def make_bond_quotes(vasicek, credit, coeffs, maturities=BOND_MATURITIES):
    quotes = []
    for s in maturities:
        pin = PricingInputs(vasicek, SURFACE_EQUITY, credit, s)
        quotes.append(BondQuote(maturity=s, price=price_full(pin, coeffs, "bond")))
    return quotes


def make_option_quotes(vasicek, equity, lam, coeffs, grid, skip_nonpositive=False):
    """Quotes priced by the corrected model; grid entries are (tau, moneyness, kind)."""
    credit = CreditParams(l=1.0, lam=lam)
    quotes = []
    for tau, m, kind in grid:
        strike = m * equity.x
        pin = PricingInputs(vasicek, equity, credit, tau, strike)
        price = price_full(pin, coeffs, kind)
        if skip_nonpositive and price <= 1e-6:
            continue
        quotes.append(
            OptionQuote(maturity=tau, strike=strike, kind=kind, price=price, volume=100)
        )
    return quotes


# Short maturities: the example coefficient vector produces corrections
# comparable to P0, and only short-dated quotes keep every price positive.
ROUNDTRIP_GRID = tuple(
    (tau, m, kind)
    for tau in (0.04, 0.06, 0.08, 0.10, 0.15, 0.20, 0.30)
    for m, kind in (
        (0.6, "call"), (0.8, "call"), (1.0, "call"),
        (1.0, "put"), (1.2, "put"), (1.4, "put"),
    )
)


@pytest.fixture
def roundtrip_fixture():
    """Synthetic bonds + options generated by the engine itself."""
    credit = CreditParams(l=TRUE_LOSS, lam=TRUE_LAMBDA)
    bonds = make_bond_quotes(SURFACE_VASICEK, credit, SURFACE_COEFFS)
    options = make_option_quotes(
        SURFACE_VASICEK,
        SURFACE_EQUITY,
        TRUE_LAMBDA,
        SURFACE_COEFFS,
        ROUNDTRIP_GRID,
        skip_nonpositive=True,
    )
    return bonds, options
