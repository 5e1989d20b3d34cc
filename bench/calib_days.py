"""calib-days: the daily inverse problem, in process, over a seeded history.

Each operation calibrates one issuer-day: ``fit_bonds``, ``fit_options``
(seven_param) and the 1..10 year CDS curve. The history cycles when a run
outlasts it; after the loop one ``cds_series`` covers every fitted day.
Day 0 is the on-grid control day; the others are off the grids.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

from credeq import calibration as cal
from credeq import cds
from credeq import corrections as cor
from credeq import pricing as pr
from credeq import rates
from credeq.errors import DomainError

import inputs
from base import Workload as Base
from base import timing_lines

# The package re-exports the function implied_vol under the module's name.
ivm = importlib.import_module("credeq.implied_vol")

N_DAYS = 100
CDS5Y_INDEX = inputs.CDS_MATURITIES.index(5.0)
PRODUCT_TOL = 1e-10
COEFF_TOL = 1e-8
# Grid spacings of the default searches: 1/200 for l*lambda, 0.01 for l.
L_LAMBDA_STEP = 1.0 / 200
L_STEP = (1.0 - cal.DEFAULT_L_MIN) / (cal.DEFAULT_L_GRID - 1)
# Repricing reproduces a reported residual to rounding: the root of the
# sum of squares may differ by this share of the quotes' price norm.
RESIDUAL_RTOL = 1e-12


def quote_weights(options, vasicek, equity):
    """Vega weights as the calibration defines them; True marks a floor fallback."""
    floor = ivm.VEGA_FLOOR_FACTOR * equity.x
    out = []
    for q in options:
        rate = rates.vasicek_yield(vasicek, q.maturity)
        try:
            vol = ivm.implied_vol(q.price, equity.x, q.strike, q.maturity, rate, q.kind)
            vega = ivm.bs_vega(equity.x, q.strike, q.maturity, rate, vol)
        except DomainError:
            vega = 0.0
        out.append((1.0 / max(vega, floor), vega < floor))
    return out


def residual_matches(reported: float, squares: float, prices) -> bool:
    norm = math.sqrt(sum(p * p for p in prices))
    return abs(math.sqrt(squares) - math.sqrt(reported)) <= RESIDUAL_RTOL * norm


def grid_points(analysis, values, n_bonds: int, n_options: int) -> None:
    """Grid points each step evaluates: P0 evaluations per quote under the fit."""
    values["calibration.bond_grid_points"] = analysis.count_under(
        "corrections.price_p0", "calibration.fit_bonds") / n_bonds
    values["calibration.l_grid_points"] = analysis.count_under(
        "corrections.price_p0", "calibration.fit_options") / n_options


def calibrate_day(day):
    bond_fit = cal.fit_bonds(day.bonds, day.vasicek)
    option_fit = cal.fit_options(day.options, bond_fit, day.vasicek, day.equity)
    fit = cal.ModelFit(day.vasicek, day.equity,
                       pr.CreditParams(l=option_fit.l, lam=option_fit.lam), option_fit.coeffs)
    return bond_fit, option_fit, fit, cds.cds_term_structure(fit, inputs.CDS_MATURITIES)


def check_day(day, result, weights) -> list[str]:
    """Problems with one calibrated day; empty when it is correct."""
    bond_fit, option_fit, fit, curve = result
    problems = []
    credit = pr.CreditParams(l=1.0, lam=bond_fit.l_lambda)
    coeffs = cor.CorrectionParams(v3=bond_fit.l_v3, w2=bond_fit.l_w2)
    squares = sum(
        (q.price - cor.price_full(pr.PricingInputs(day.vasicek, day.equity, credit, q.maturity),
                                  coeffs, "bond")) ** 2
        for q in day.bonds
    )
    if not residual_matches(bond_fit.residual, squares, [q.price for q in day.bonds]):
        problems.append(f"bond residual {bond_fit.residual!r} vs repriced {squares!r}")

    credit = pr.CreditParams(l=1.0, lam=option_fit.lam)
    squares = sum(
        (w * (q.price - cor.price_full(
            pr.PricingInputs(day.vasicek, day.equity, credit, q.maturity, q.strike),
            option_fit.coeffs, q.kind))) ** 2
        for q, (w, _) in zip(day.options, weights)
    )
    if not residual_matches(option_fit.weighted_residual, squares,
                            [w * q.price for q, (w, _) in zip(day.options, weights)]):
        problems.append(
            f"weighted residual {option_fit.weighted_residual!r} vs repriced {squares!r}")

    if not all(math.isfinite(s) for _, s in curve):
        problems.append("non-finite CDS spread")

    if day.control:
        l_true = day.credit.l
        truth = day.coeffs
        for label, err, tol in (
            ("l*V3", bond_fit.l_v3 - l_true * truth.v3, PRODUCT_TOL),
            ("l*W2", bond_fit.l_w2 - l_true * truth.w2, PRODUCT_TOL),
            ("l*lambda", bond_fit.l_lambda - l_true * day.credit.lam, L_LAMBDA_STEP),
            ("l", option_fit.l - l_true, L_STEP),
        ) + tuple(
            (name, getattr(option_fit.coeffs, name) - getattr(truth, name), COEFF_TOL)
            for name in ("v1", "v2", "v4", "v5", "v6", "w1")
        ):
            if not abs(err) <= tol:
                problems.append(f"control day {label} off by {err:.3g} (tolerance {tol:g})")
    return problems


class Workload(Base):
    trace_ops = 5

    def __init__(self, seed: int, out_dir):
        self.days = [inputs.control_day()] + inputs.history(inputs.rng_for("calib-days", seed),
                                                            N_DAYS - 1)
        self._weights: dict[int, list] = {}
        self.errors: dict[int, tuple[float, float, float]] = {}
        self.fitted: list = []  # (op, fit, 5y spread) for the closing cds_series

    def op(self, i: int, tracer=None):
        return calibrate_day(self.days[i % len(self.days)])

    def weights(self, k: int):
        if k not in self._weights:
            day = self.days[k]
            self._weights[k] = quote_weights(day.options, day.vasicek, day.equity)
        return self._weights[k]

    def check(self, i: int, result) -> list:
        k = i % len(self.days)
        day = self.days[k]
        bond_fit, option_fit, _, curve = result
        if not day.control:
            self.errors[k] = (
                abs(curve[CDS5Y_INDEX][1] - day.truth_cds5y) * 1e4,
                abs(option_fit.l - day.credit.l),
                abs(bond_fit.l_lambda - day.credit.l * day.credit.lam),
            )
        problems = check_day(day, result, self.weights(k))
        self.fitted.append((i, result[2], curve[CDS5Y_INDEX][1]))
        return [(not problems, f"day {i}: {'; '.join(problems)}")]

    def finish(self):
        t0 = perf_counter()
        series = cds.cds_series([(i, fit) for i, fit, _ in self.fitted], 5.0)
        elapsed = perf_counter() - t0
        ok = [s for _, s in series] == [s5 for _, _, s5 in self.fitted]
        return elapsed, [(ok, "cds_series differs from the daily 5y spreads")]

    def max_errors(self, days) -> tuple[float, float, float]:
        errs = [self.errors[k] for k in days if k in self.errors]
        return tuple(max(col) for col in zip(*errs)) if errs else (0.0, 0.0, 0.0)

    def report(self, times, finish_s):
        cds5y, l_err, ll_err = self.max_errors(range(len(self.days)))
        return timing_lines("calib_day", times, "ms", 1e3) + [
            f"days_per_s  {len(times) / (sum(times) + finish_s):.6g} 1/s",
            f"cds.series_ms  {finish_s * 1e3:.6g} ms  ({len(self.fitted)} days)",
            f"cds5y_err_bp  {cds5y:.6g} bp  (largest over {len(self.errors)} off-grid days)",
            f"calibration.l_abs_err  {l_err:.6g}  calibration.l_lambda_abs_err  {ll_err:.6g}",
        ]

    def layer_metrics(self, analysis, n_ops, values):
        traced = range(self.trace_ops)
        passes = n_ops // self.trace_ops
        grid_points(analysis, values,
                    n_bonds=passes * sum(len(self.days[k].bonds) for k in traced),
                    n_options=passes * sum(len(self.days[k].options) for k in traced))
        values["calibration.vega_floor_quotes"] = sum(
            sum(floored for _, floored in self.weights(k)) for k in traced) / self.trace_ops
        (values["calibration.cds5y_err_bp"], values["calibration.l_abs_err"],
         values["calibration.l_lambda_abs_err"]) = self.max_errors(traced)
        return []

