"""price-quotes: single-instrument requests, one at a time, under several models.

Each operation answers one request from a seeded book: a call or put
(``price_full`` then ``implied_vol`` at the model zero yield, as the CLI's
``price`` does) or a CDS spread (``cds_spread``), half and half as in the
CLI daily run (see ``inputs.REQUEST_PATTERN``).
"""

from __future__ import annotations

import importlib
import math

from credeq import cds
from credeq import corrections as cor
from credeq import pricing as pr
from credeq import rates

import inputs
from base import Workload as Base
from base import timing_lines

# The package re-exports the function implied_vol under the module's name.
ivm = importlib.import_module("credeq.implied_vol")

N_REQUESTS = 5000
VOL_ROUND_TRIP_TOL = 1e-8
PARITY_RTOL = 1e-12


class Workload(Base):
    trace_ops = 1000

    def __init__(self, seed: int, out_dir):
        self.models, self.book = inputs.quote_book(inputs.rng_for("price-quotes", seed), N_REQUESTS)

    def op(self, i: int, tracer=None):
        req = self.book[i % len(self.book)]
        model = self.models[req.model]
        if req.kind == "cds":
            return cds.cds_spread(model, cds.annual_schedule(req.tau))
        pin = pr.PricingInputs(model.vasicek, model.equity, model.credit, req.tau, req.strike)
        price = cor.price_full(pin, model.coeffs, req.kind, model.variant)
        rate = rates.vasicek_yield(model.vasicek, req.tau)
        return price, rate, ivm.implied_vol(price, model.equity.x, req.strike, req.tau, rate,
                                            req.kind)

    def check(self, i: int, result) -> list:
        req = self.book[i % len(self.book)]
        if req.kind == "cds":
            return [(math.isfinite(result) and result >= 0, f"request {i}: cds spread {result!r}")]
        price, rate, vol = result
        model = self.models[req.model]
        pin = pr.PricingInputs(model.vasicek, model.equity, model.credit, req.tau, req.strike)
        x = model.equity.x
        back = ivm.implied_vol(ivm.bs_price(x, req.strike, req.tau, rate, vol, req.kind),
                               x, req.strike, req.tau, rate, req.kind)
        parity = (pr.call_p0(pin) - pr.put_p0(pin)
                  - (pin.x_eff - req.strike * rates.riskless_bond(pin.vasicek, pin.tau)))
        return [(abs(back - vol) <= VOL_ROUND_TRIP_TOL
                 and abs(parity) <= PARITY_RTOL * x,
                 f"request {i}: vol round trip {back - vol:.3g}, parity {parity:.3g}")]

    def report(self, times, finish_s):
        return timing_lines("quote", times, "us", 1e6) + [
            f"quotes_per_s  {len(times) / sum(times):.6g} 1/s",
        ]
