"""cli-day: one issuer's day through the command-line interface.

Each operation runs five CLI processes strictly one after another, as the
console script ``credeq`` would: ``fit-rates``, ``calibrate --variant
seven``, ``cds-curve 1..10``, ``ivol-surface`` on a small grid, and
``price``. Every output is parsed and compared with the same computation
done in this process. Days come from a seeded pool of off-grid truths.
"""

from __future__ import annotations

import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from credeq import calibration as cal
from credeq import cds
from credeq import corrections as cor
from credeq import market_data as md
from credeq import pricing as pr
from credeq import rates
from credeq.errors import DomainError

import inputs
import spans
from calib_days import grid_points, quote_weights
from base import Workload as Base
from base import ROOT, child_env, process_kernel, timing_lines

# The package re-exports the function implied_vol under the module's name.
ivm = importlib.import_module("credeq.implied_vol")

BENCH_DIR = Path(__file__).resolve().parent
N_DAY_POOL = 8
COMMANDS = ("fit-rates", "calibrate", "cds-curve", "ivol-surface", "price")
CLI_ENTRY = "import sys; from credeq.cli import main; sys.exit(main())"
PRICE_TAU = 0.25
GRID_TAUS = (0.1, 0.25, 0.5)
GRID_MONEYNESS = (0.9, 1.0, 1.1)
CHILD_TIMEOUT_S = 150


class Workload(Base):
    runs_children = True
    trace_ops = 1
    reference = staticmethod(process_kernel)
    ref_batch = 2

    def __init__(self, seed: int, out_dir: Path):
        self.env = child_env()
        rng = inputs.rng_for("cli-day", seed)
        self.days = inputs.history(rng, N_DAY_POOL)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.dirs = [out_dir / f"day{k}" for k in range(N_DAY_POOL)]
        written = [inputs.write_day_files(day, d, rng) for day, d in zip(self.days, self.dirs)]
        self.files = [paths for paths, _ in written]
        self.option_rows = [rows for _, rows in written]
        self.errors: dict[int, tuple[float, float, float]] = {}
        self.command_walls = {name: [] for name in COMMANDS}
        self.vega_floor: dict[int, int] = {}

    def argvs(self, k: int) -> list[list[str]]:
        day, files, d = self.days[k], self.files[k], self.dirs[k]
        x = day.equity.x
        grid = (",".join(repr(t) for t in GRID_TAUS) + "x"
                + ",".join(repr(m * x) for m in GRID_MONEYNESS))
        return [
            ["fit-rates", "--treasury", str(files["treasury.csv"]),
             "--r-proxy", repr(day.vasicek.r), "--out", str(d / "rates.json")],
            ["calibrate", "--bonds", str(files["bonds.csv"]),
             "--options", str(files["options.csv"]),
             "--params", str(d / "rates.json"), "--params", str(files["equity.json"]),
             "--variant", "seven", "--out", str(d / "fit.json")],
            ["cds-curve", "--fit", str(d / "fit.json"), "--maturities", "1..10"],
            ["ivol-surface", "--fit", str(d / "fit.json"), "--grid", grid],
            ["price", "--fit", str(d / "fit.json"), "--kind", "call", "--strike", repr(x),
             "--maturity", repr(PRICE_TAU)],
        ]

    def op(self, i: int, tracer=None):
        k = i % N_DAY_POOL
        out = []
        for name, argv in zip(COMMANDS, self.argvs(k)):
            if tracer is None:
                cmd, span_file = [sys.executable, "-c", CLI_ENTRY, *argv], None
            else:
                span_file = self.dirs[k] / f"{name}.spans.npz"
                cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(span_file), "--", *argv]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            out.append((name, proc, perf_counter() - t0, span_file))
            self.pause()
        return out

    def op_seconds(self, result, measured):
        """The day's wall time: its five commands, without the pauses between them."""
        return sum(wall for _, _, wall, _ in result)

    def adopt(self, tracer, result, op_sid, i):
        for _, _, _, span_file in result:
            if span_file is not None and span_file.exists():
                child_spans, names = spans.load(span_file)
                tracer.merge(child_spans, names, op_sid, i)
                span_file.unlink()

    def check(self, i: int, result) -> list:
        k = i % N_DAY_POOL
        checks = []
        for name, proc, wall, span_file in result:
            if span_file is None:
                self.command_walls[name].append(wall)
            if proc.returncode != 0:
                checks.append((False, f"day {i} {name}: exit {proc.returncode}: "
                                      f"{proc.stderr.strip()[-200:]}"))
                continue
            try:
                problem = getattr(self, "_check_" + name.replace("-", "_"))(k, proc.stdout)
            except (ValueError, KeyError, TypeError) as exc:  # unparsable output
                problem = f"output does not parse: {exc!r}"
            checks.append((problem is None, f"day {i} {name}: {problem}"))
        for f in ("rates.json", "fit.json"):
            (self.dirs[k] / f).unlink(missing_ok=True)
        return checks

    # -- in-process twins of each command ---------------------------------

    def _check_fit_rates(self, k, stdout):
        got = json.loads((self.dirs[k] / "rates.json").read_text(encoding="utf-8"))
        curve = md.load_treasury_csv(self.files[k]["treasury.csv"])
        params = rates.fit_vasicek(curve, self.days[k].vasicek.r)
        want = {"alpha": params.alpha, "beta": params.beta, "eta": params.eta, "r": params.r}
        if got["vasicek"] != want or got["residual_rmse"] != rates.curve_rmse(params, curve):
            return f"rates {got} differ from in-process {want}"
        return None

    def _fit_report(self, k):
        return json.loads((self.dirs[k] / "fit.json").read_text(encoding="utf-8"))

    def _check_calibrate(self, k, stdout):
        got = self._fit_report(k)
        files, day = self.files[k], self.days[k]
        vasicek = rates.VasicekParams(
            **json.loads((self.dirs[k] / "rates.json").read_text(encoding="utf-8"))["vasicek"])
        equity = rates.EquityParams(**json.loads(files["equity.json"].read_text())["equity"])
        options = md.filter_options(md.load_options_csv(files["options.csv"]))
        if len(options) != len(day.options):
            return f"filter kept {len(options)} options, expected {len(day.options)}"
        bond_fit = cal.fit_bonds(md.load_bonds_csv(files["bonds.csv"]), vasicek)
        option_fit = cal.fit_options(options, bond_fit, vasicek, equity)
        self.vega_floor[k] = sum(floored for _, floored in quote_weights(options, vasicek, equity))
        want = json.loads(cal.report_json(cal.build_report(
            bond_fit, option_fit, vasicek, equity, "seven_param", {}, {})))
        for block in ("parameters", "bond_fit", "option_fit"):
            if got[block] != want[block]:
                return f"{block} {got[block]} differs from in-process {want[block]}"
        self.errors[k] = (
            0.0,
            abs(option_fit.l - day.credit.l),
            abs(bond_fit.l_lambda - day.credit.l * day.credit.lam),
        )
        return None

    def _check_cds_curve(self, k, stdout):
        fit = cal.ModelFit.from_dict(self._fit_report(k))
        curve = cds.cds_term_structure(fit, inputs.CDS_MATURITIES)
        want = "\n".join(["maturity_years,spread_bps"]
                         + [f"{t},{s * 1e4}" for t, s in curve])
        if stdout.strip() != want:
            return "curve differs from in-process cds_term_structure"
        bp5 = float(stdout.strip().splitlines()[1 + inputs.CDS_MATURITIES.index(5.0)].split(",")[1])
        self.errors[k] = (abs(bp5 - self.days[k].truth_cds5y * 1e4),) + self.errors[k][1:]
        return None

    def _check_ivol_surface(self, k, stdout):
        fit = cal.ModelFit.from_dict(self._fit_report(k))
        rows = ["maturity_years,strike,implied_vol"]
        x = self.days[k].equity.x
        for tau in GRID_TAUS:
            rate = rates.vasicek_yield(fit.vasicek, tau)
            for strike in (m * x for m in GRID_MONEYNESS):
                pin = pr.PricingInputs(fit.vasicek, fit.equity, fit.credit, tau, strike)
                price = cor.price_full(pin, fit.coeffs, "call", fit.variant)
                try:
                    vol = ivm.implied_vol(price, fit.equity.x, strike, tau, rate, "call")
                    rows.append(f"{tau},{strike},{vol}")
                except DomainError:
                    rows.append(f"{tau},{strike},NA")
        if stdout.strip() != "\n".join(rows):
            return "surface differs from in-process implied_vol"
        return None

    def _check_price(self, k, stdout):
        got = json.loads(stdout)
        fit = cal.ModelFit.from_dict(self._fit_report(k))
        strike = self.days[k].equity.x
        pin = pr.PricingInputs(fit.vasicek, fit.equity, fit.credit, PRICE_TAU, strike)
        price = cor.price_full(pin, fit.coeffs, "call", fit.variant)
        rate = rates.vasicek_yield(fit.vasicek, PRICE_TAU)
        try:
            vol = ivm.implied_vol(price, fit.equity.x, strike, PRICE_TAU, rate, "call")
        except DomainError:
            vol = None
        want = {"kind": "call", "maturity": PRICE_TAU, "price": price,
                "p0": cor.price_p0(pin, "call"), "strike": strike, "quote_rate": rate,
                "implied_vol": vol}
        if got != want:
            return f"price {got} differs from in-process {want}"
        return None

    # -- reports -----------------------------------------------------------

    def max_errors(self):
        errs = list(self.errors.values())
        return tuple(max(col) for col in zip(*errs)) if errs else (0.0, 0.0, 0.0)

    def report(self, times, finish_s):
        cds5y, l_err, ll_err = self.max_errors()
        lines = timing_lines("day_wall", times, "s", 1.0)
        lines.append(f"days_per_s  {len(times) / sum(times):.6g} 1/s")
        lines += [f"cli.{name}_s  {statistics.median(w):.6g} s  (median of {len(w)})"
                  for name, w in self.command_walls.items()]
        lines.append(f"cds5y_err_bp  {cds5y:.6g} bp  (largest over {len(self.errors)} days, "
                     "fitted through the CLI against the seeded truth)")
        lines.append(f"calibration.l_abs_err  {l_err:.6g}  "
                     f"calibration.l_lambda_abs_err  {ll_err:.6g}")
        return lines

    def layer_metrics(self, analysis, n_ops, values):
        day = self.days[0]
        values["market_data.quotes_loaded"] = (len(inputs.TREASURY_MATURITIES) + len(day.bonds)
                                               + self.option_rows[0])
        grid_points(analysis, values, n_bonds=n_ops * len(day.bonds),
                    n_options=n_ops * len(day.options))
        values["calibration.vega_floor_quotes"] = self.vega_floor[0]
        (values["calibration.cds5y_err_bp"], values["calibration.l_abs_err"],
         values["calibration.l_lambda_abs_err"]) = self.max_errors()
        lines = [f"cli.{name}_s  {statistics.median(w):.6g} s  (untraced wall, median of {len(w)})"
                 for name, w in self.command_walls.items()]
        for name in COMMANDS:
            span = "cli.cmd_" + name.replace("-", "_")
            calls = analysis.count(span)
            if calls:
                lines.append(f"{span}_ms  {analysis.inclusive(span) / calls * 1e3:.6g} ms  "
                             "(in-process part of the traced command)")
        return lines

