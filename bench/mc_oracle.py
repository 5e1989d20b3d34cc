"""mc-oracle: the Monte-Carlo oracle at a fixed path count against closed forms.

One operation prices the instrument set once and checks it. Under constant
factors every correction vanishes, so each estimate must lie within 3
standard errors of its leading-order closed form (acceptance criterion 4):
a call and a put with the same tau and K, the defaultable bond at the
gate's 2-year horizon, and a 5-year annual CDS spread. A multiscale call
must come out finite with a positive standard error.

The 0.5-year bond is priced and reported as ``oracle_mc.z.bond_short`` but
never counted as a failure: on average it sits below its closed form (a
time-discretization bias that the 2-year gate horizon does not show).

The path seed is the workload seed; every operation of a run repeats the
same simulation, so their estimates must agree bit for bit.
"""

from __future__ import annotations

import math

from credeq import calibration as cal
from credeq import cds
from credeq import corrections as cor
from credeq import oracle_mc as mc
from credeq import pricing as pr
from credeq import rates

from base import Workload as Base
from base import array_kernel, timing_lines

N_PATHS = 20_000
STEPS_PER_YEAR = 252
Z_LIMIT = 3.0

VASICEK = rates.VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
EQUITY = rates.EquityParams(x=8.04, sigma2=0.2576, rho1=-0.25)
CREDIT = pr.CreditParams(l=0.4, lam=0.08)
OPTION_TAU = 0.5
BOND_TAU = 2.0
SHORT_BOND_TAU = 0.5
CDS_MATURITY = 5.0
MULTISCALE = dict(lam=0.06, eps=0.09, dlt=0.09)

GATED = ("call", "put", "bond", "cds")


def path_steps(n_paths: int, horizons, steps_per_year: int) -> int:
    """Path-steps of one simulation: paths x steps of the refined time grid."""
    steps, prev = 0, 0.0
    for h in sorted(horizons):
        steps += max(1, round((h - prev) * steps_per_year))
        prev = h
    return n_paths * steps


class Workload(Base):
    trace_ops = 1
    reference = staticmethod(array_kernel)
    ref_batch = 20

    def __init__(self, seed: int, out_dir):
        spec = mc.FactorSpec.constant(sigma=EQUITY.sigma2, lam=CREDIT.lam, rho1=EQUITY.rho1)
        self.cfg = mc.McConfig(n_paths=N_PATHS, n_steps_per_year=STEPS_PER_YEAR, seed=seed,
                               factor_spec=spec)
        ms_spec = mc.FactorSpec.multiscale(**MULTISCALE)
        sigma1, sigma2, lam, rho_eff = mc.effective_params(ms_spec)
        self.ms_cfg = mc.McConfig(n_paths=N_PATHS, n_steps_per_year=STEPS_PER_YEAR, seed=seed,
                                  factor_spec=ms_spec)
        self.ms_pin = pr.PricingInputs(
            VASICEK, rates.EquityParams(x=1.0, sigma2=sigma2, rho1=rho_eff, sigma1=sigma1),
            pr.CreditParams(l=1.0, lam=lam), OPTION_TAU, 1.0)
        self.first = None
        self.path_steps = (
            2 * path_steps(N_PATHS, [OPTION_TAU], STEPS_PER_YEAR)
            + path_steps(N_PATHS, [BOND_TAU], STEPS_PER_YEAR)
            + path_steps(N_PATHS, [SHORT_BOND_TAU], STEPS_PER_YEAR)
            + path_steps(N_PATHS, cds.annual_schedule(CDS_MATURITY).payment_times, STEPS_PER_YEAR)
            + path_steps(N_PATHS, [OPTION_TAU], STEPS_PER_YEAR)
        )
        self.z: dict[str, float] = {}

    def op(self, i: int, tracer=None):
        """{instrument: (estimate, standard error, closed form)}."""
        cfg = self.cfg
        opt = pr.PricingInputs(VASICEK, EQUITY, CREDIT, OPTION_TAU, EQUITY.x)
        bond = pr.PricingInputs(VASICEK, EQUITY, CREDIT, BOND_TAU)
        short = pr.PricingInputs(VASICEK, EQUITY, CREDIT, SHORT_BOND_TAU)
        swap = pr.PricingInputs(VASICEK, EQUITY, CREDIT, CDS_MATURITY)
        schedule = cds.annual_schedule(CDS_MATURITY)
        fit = cal.ModelFit(VASICEK, EQUITY, CREDIT, cor.CorrectionParams())
        return {
            "call": mc.mc_price(cfg, "call", opt) + (pr.call_p0(opt),),
            "put": mc.mc_price(cfg, "put", opt) + (pr.put_p0(opt),),
            "bond": mc.mc_price(cfg, "bond", bond) + (pr.defaultable_bond_p0(bond),),
            "cds": mc.mc_price(cfg, "cds", swap, schedule) + (cds.cds_spread(fit, schedule),),
            "bond_short": mc.mc_price(cfg, "bond", short) + (pr.defaultable_bond_p0(short),),
            "multiscale_call": mc.mc_price(self.ms_cfg, "call", self.ms_pin) + (None,),
        }

    def check(self, i: int, result) -> list:
        if self.first is None:
            self.first = result
        self.z = {name: (est - closed) / se for name, (est, se, closed) in result.items()
                  if name != "multiscale_call"}
        checks = [(abs(self.z[name]) < Z_LIMIT,
                   f"{name}: {result[name][0]!r} is {self.z[name]:.2f} SE from {result[name][2]!r}")
                  for name in GATED]
        est, se, _ = result["multiscale_call"]
        checks.append((math.isfinite(est) and se > 0, f"multiscale call {est!r} +- {se!r}"))
        checks.append((result == self.first, f"check {i} differs from check 0 at the same seed"))
        return checks

    def report(self, times, finish_s):
        lines = timing_lines("oracle_check", times, "s", 1.0)
        lines.append(f"oracle_mc.path_steps_per_s  {self.path_steps / min(times):.6g} 1/s  "
                     "(whole check, fastest)")
        lines += [f"oracle_mc.z.{name}  {z:+.4f}" for name, z in self.z.items()]
        return lines

    def layer_metrics(self, analysis, n_ops, values):
        simulate_s = analysis.inclusive("oracle_mc.simulate_terminals")
        values["oracle_mc.path_steps_per_s"] = n_ops * self.path_steps / simulate_s
        for name in ("call", "put", "bond", "cds", "bond_short"):
            values[f"oracle_mc.z.{name}"] = abs(self.z[name])
        return [f"oracle_mc.z.{name}  {z:+.4f}  (signed)" for name, z in self.z.items()]
