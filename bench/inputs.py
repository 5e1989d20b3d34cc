"""Seeded inputs for every workload, built with credeq's public pricing API.

The same seed gives the same inputs. Quotes are priced by the corrected
model at a seeded truth, so a calibration should recover that truth up to
the search grids; truths are drawn off the grids on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from credeq import calibration as cal
from credeq import cds
from credeq import corrections as cor
from credeq import market_data as md
from credeq import pricing as pr
from credeq import rates

WORKLOAD_STREAMS = {"cli-day": 1, "calib-days": 2, "price-quotes": 3, "mc-oracle": 4}

BASE_VASICEK = rates.VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
BASE_EQUITY = rates.EquityParams(x=8.04, sigma2=0.2576, rho1=-0.0327)
BASE_COEFFS = cor.CorrectionParams(
    v1=0.9960, v2=-0.0014, v3=0.0009, v4=0.0104,
    v5=-0.6514, v6=0.3340, w1=-0.1837, w2=-0.0001,
)
COEFF_NAMES = ("v1", "v2", "v3", "v4", "v5", "v6", "w1", "w2")

# The on-grid control day: l = 0.30 and l*lambda = 0.015 sit exactly on the
# default search grids, so the fit must recover the truth to the acceptance
# tolerances (1e-10 on the bond products, 1e-8 on the coefficients).
CONTROL_LOSS = 0.30
CONTROL_LAMBDA = 0.05
CONTROL_BOND_MATURITIES = (
    0.60278, 1.0222, 1.1861, 1.3139, 1.4083, 1.5944, 2.3889, 2.6028,
    3.0194, 3.2694, 3.3972, 3.6472, 4.1722, 4.3806, 6.3139,
)
OPTION_MATURITIES = (0.04, 0.06, 0.08, 0.10, 0.15, 0.20, 0.30)
OPTION_STRIKES = (
    (0.6, "call"), (0.8, "call"), (1.0, "call"),
    (1.0, "put"), (1.2, "put"), (1.4, "put"),
)
# Quotes priced at or below this are dropped, as a desk drops dead quotes.
MIN_OPTION_PRICE = 1e-6

TREASURY_MATURITIES = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0)
CDS_MATURITIES = tuple(float(t) for t in range(1, 11))


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_STREAMS[workload]])


@dataclass(frozen=True)
class Day:
    """One issuer-day: the truth that priced the quotes, and the quotes."""

    vasicek: rates.VasicekParams
    equity: rates.EquityParams
    credit: pr.CreditParams
    coeffs: cor.CorrectionParams
    bonds: list
    options: list
    truth_cds5y: float
    control: bool = False


def bond_quotes(vasicek, equity, credit, coeffs, maturities):
    out = []
    for s in maturities:
        pin = pr.PricingInputs(vasicek, equity, credit, s)
        out.append(md.BondQuote(maturity=s, price=cor.price_full(pin, coeffs, "bond")))
    return out


def option_quotes(vasicek, equity, lam, coeffs, maturities, volumes):
    """Quotes on maturities x OPTION_STRIKES; non-positive prices are dropped."""
    credit = pr.CreditParams(l=1.0, lam=lam)
    out = []
    for k, (tau, (m, kind)) in enumerate(
        (tau, mk) for tau in maturities for mk in OPTION_STRIKES
    ):
        strike = m * equity.x
        pin = pr.PricingInputs(vasicek, equity, credit, tau, strike)
        price = cor.price_full(pin, coeffs, kind)
        if price <= MIN_OPTION_PRICE:
            continue
        out.append(md.OptionQuote(maturity=tau, strike=strike, kind=kind, price=price,
                                  volume=int(volumes[k % len(volumes)])))
    return out


def truth_spread(vasicek, equity, credit, coeffs, maturity=5.0) -> float:
    fit = cal.ModelFit(vasicek, equity, credit, coeffs)
    return cds.cds_spread(fit, cds.annual_schedule(maturity))


def control_day() -> Day:
    credit = pr.CreditParams(l=CONTROL_LOSS, lam=CONTROL_LAMBDA)
    bonds = bond_quotes(BASE_VASICEK, BASE_EQUITY, credit, BASE_COEFFS, CONTROL_BOND_MATURITIES)
    options = option_quotes(BASE_VASICEK, BASE_EQUITY, CONTROL_LAMBDA, BASE_COEFFS,
                            OPTION_MATURITIES, (100,))
    return Day(BASE_VASICEK, BASE_EQUITY, credit, BASE_COEFFS, bonds, options,
               truth_spread(BASE_VASICEK, BASE_EQUITY, credit, BASE_COEFFS), control=True)


class TruthWalk:
    """Mean-reverting walk of (l, lambda, V1..V6, W1, W2) off the grids.

    Each day l moves by several l-grid steps and lambda by about 10%, so the
    truth's place inside a grid cell changes from day to day. The pull back
    to the base values makes a 100-day history cover the same range of
    truths, and so the same quote counts, at every seed.
    """

    PULL = 0.5  # share of the distance to the base kept from one day to the next

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.l = 0.4
        self.log_lam = math.log(0.05)
        self.scale = np.ones(len(COEFF_NAMES))
        r = rng.uniform(0.03, 0.06)
        self.vasicek = rates.VasicekParams(
            alpha=BASE_VASICEK.alpha, beta=BASE_VASICEK.beta, eta=BASE_VASICEK.eta, r=r
        )
        self.equity = rates.EquityParams(
            x=rng.uniform(6.0, 12.0), sigma2=rng.uniform(0.22, 0.30), rho1=BASE_EQUITY.rho1
        )

    def step(self):
        rng, k = self.rng, self.PULL
        self.l = float(np.clip(0.4 + k * (self.l - 0.4) + rng.normal(0.0, 0.06), 0.15, 0.65))
        self.log_lam = math.log(0.05) + k * (self.log_lam - math.log(0.05)) + rng.normal(0.0, 0.15)
        self.scale = np.clip(1 + k * (self.scale - 1) + rng.normal(0.0, 0.06, self.scale.size),
                             0.8, 1.2)
        coeffs = cor.CorrectionParams(**{
            name: getattr(BASE_COEFFS, name) * float(s)
            for name, s in zip(COEFF_NAMES, self.scale)
        })
        return pr.CreditParams(l=self.l, lam=math.exp(self.log_lam)), coeffs


def history(rng: np.random.Generator, n_days: int) -> list[Day]:
    """n_days issuer-days of 15-25 bonds and options on 7 maturities."""
    walk = TruthWalk(rng)
    days = []
    for _ in range(n_days):
        credit, coeffs = walk.step()
        n_bonds = int(rng.integers(15, 26))
        maturities = np.sort(rng.choice(np.arange(50, 701), size=n_bonds, replace=False)) / 100.0
        bonds = bond_quotes(walk.vasicek, walk.equity, credit, coeffs, maturities.tolist())
        taus = [round(t * rng.uniform(0.9, 1.1), 5) for t in OPTION_MATURITIES]
        options = option_quotes(walk.vasicek, walk.equity, credit.lam, coeffs, taus,
                                rng.integers(1, 500, size=len(taus) * len(OPTION_STRIKES)))
        days.append(Day(walk.vasicek, walk.equity, credit, coeffs, bonds, options,
                        truth_spread(walk.vasicek, walk.equity, credit, coeffs)))
    return days


# ---------------------------------------------------------------------------
# cli-day files
# ---------------------------------------------------------------------------

# The options file carries quotes that filter_options drops: zero volume,
# and maturities shorter than its 9-day default.
SHORT_MATURITY = 5 / 365
N_ZERO_VOLUME = 3


def write_day_files(day: Day, directory, rng: np.random.Generator) -> tuple[dict, int]:
    """The CSV and JSON files one CLI day reads: their paths, and the option rows."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}" for name in
             ("treasury.csv", "bonds.csv", "options.csv", "equity.json")}
    curve = md.TreasuryCurve(tuple(
        (s, rates.vasicek_yield(day.vasicek, s)) for s in TREASURY_MATURITIES
    ))
    md.save_treasury_csv(paths["treasury.csv"], curve)
    md.save_bonds_csv(paths["bonds.csv"], day.bonds)
    dropped = [
        md.OptionQuote(q.maturity, q.strike, q.kind, q.price, 0)
        for q in (day.options[int(i)] for i in
                  rng.choice(len(day.options), size=N_ZERO_VOLUME, replace=False))
    ]
    short = option_quotes(day.vasicek, day.equity, day.credit.lam, day.coeffs,
                          (SHORT_MATURITY,), (100,))[:2]
    rows = list(day.options) + dropped + short
    md.save_options_csv(paths["options.csv"], rows)
    eq = day.equity
    paths["equity.json"].write_text(
        '{"equity": {"x": %r, "sigma2": %r, "rho1": %r, "q": %r}}\n'
        % (eq.x, eq.sigma2, eq.rho1, eq.q), encoding="utf-8")
    return paths, len(rows)


# ---------------------------------------------------------------------------
# price-quotes book
# ---------------------------------------------------------------------------

# Request kinds repeat in this fixed pattern, so every seed sends the same mix.
# It is the CLI daily run's (ROADMAP aim 1, the cli-day workload): ten CDS
# spreads from `cds-curve 1..10` and ten option prices with implied vols from
# `ivol-surface` (3 x 3) and `price`, so half CDS and half options. No command
# of that day prices a standalone bond; every CDS spread prices bonds inside.
# The options alternate calls and puts, which take the same path.
REQUEST_PATTERN = ("call", "cds", "put", "cds")
N_MODELS = 3


def quote_models(rng: np.random.Generator) -> list:
    """Calibrated-shape models: corrections a few percent of the price."""
    models = []
    for _ in range(N_MODELS):
        vasicek = rates.VasicekParams(
            alpha=rng.uniform(0.003, 0.008), beta=rng.uniform(0.08, 0.15),
            eta=rng.uniform(0.005, 0.02), r=rng.uniform(0.02, 0.06),
        )
        equity = rates.EquityParams(
            x=rng.uniform(20.0, 120.0), sigma2=rng.uniform(0.2, 0.4), rho1=rng.uniform(-0.3, 0.1)
        )
        credit = pr.CreditParams(l=rng.uniform(0.3, 0.7), lam=rng.uniform(0.01, 0.05))
        s = rng.uniform(0.02, 0.1)
        b = BASE_COEFFS
        coeffs = cor.CorrectionParams(
            v1=b.v1 * s * 0.01, v2=b.v2 * s, v3=b.v3 * s, v4=b.v4 * s,
            v5=b.v5 * s * 0.01, v6=b.v6 * s * 0.01, w1=b.w1 * s * 0.01, w2=b.w2 * s,
        )
        models.append(cal.ModelFit(vasicek, equity, credit, coeffs))
    return models


@dataclass(frozen=True)
class Request:
    model: int
    kind: str
    tau: float
    strike: float | None = None


def quote_book(rng: np.random.Generator, n_requests: int) -> tuple[list, list[Request]]:
    models = quote_models(rng)
    book = []
    for i in range(n_requests):
        kind = REQUEST_PATTERN[i % len(REQUEST_PATTERN)]
        m = int(rng.integers(len(models)))
        if kind in ("call", "put"):
            x = models[m].equity.x
            book.append(Request(m, kind, float(rng.uniform(0.1, 2.0)),
                                float(x * rng.uniform(0.8, 1.25))))
        else:
            book.append(Request(m, kind, float(rng.integers(1, 11))))
    return models, book
