"""Command-line front end: ingestion -> estimation -> calibration -> outputs.

Subcommands mirror the daily workflow: ``fit-rates`` and ``estimate-equity``
produce parameter JSON, ``calibrate`` runs the two-step bond+option fit and
emits a report, ``price``/``ivol-surface``/``cds-curve``/``cds-series``
consume a fit JSON without re-reading raw quotes, and ``oracle`` runs the
Monte-Carlo validator. Exit codes: 0 success, else the code
:mod:`credeq.errors` gives the error's class; each error prints one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import calibration as cal
from . import market_data as md
from .calibration import (
    ZERO_BOND_FIT,
    ModelFit,
    build_report,
    fit_bonds,
    fit_options,
    quotes_digest,
    read_block,
    report_json,
)
from .cds import MAX_PAYMENTS, annual_schedule, cds_series, cds_term_structure
from .corrections import VARIANTS, price_full, price_p0
from .errors import CredeqError, DomainError, NumericalError, ValidationError
from .implied_vol import model_quote
from .pricing import PricingInputs
from .rates import (
    EquityParams,
    VasicekParams,
    at_bound,
    curve_rmse,
    estimate_rho1,
    estimate_sigma2,
    fit_vasicek,
)

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        sys.stdout.write(payload + "\n")


def _load_json(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8-sig")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer, or deep nesting
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _load_fit(path: str) -> ModelFit:
    return ModelFit.from_dict(_load_json(path))


def cmd_fit_rates(args) -> None:
    curve = md.load_treasury_csv(args.treasury)
    params = fit_vasicek(curve, args.r_proxy)
    out = {"vasicek": asdict(params), "residual_rmse": curve_rmse(params, curve),
           "at_bound": at_bound(params)}
    _emit(args, json.dumps(out, indent=2))


def cmd_estimate_equity(args) -> None:
    stock = md.load_history_csv(args.stock)
    rates_hist = md.load_history_csv(args.spot_rate)
    sigma2 = estimate_sigma2(stock)
    rho1 = estimate_rho1(stock, rates_hist)
    spot = args.spot if args.spot is not None else stock.points[-1][1]
    eq = EquityParams(x=spot, sigma2=sigma2, rho1=rho1, q=args.dividend_yield)
    _emit(args, json.dumps({"equity": asdict(eq)}, indent=2))


_VARIANT_FLAG = {row.flag: row for row in VARIANTS.values()}


def cmd_calibrate(args) -> None:
    params: dict = {}
    for path in args.params:
        params.update(_load_json(path))
    vasicek = read_block(params, "vasicek", VasicekParams)
    equity = read_block(params, "equity", EquityParams)
    row = _VARIANT_FLAG[args.variant]

    options = md.load_options_csv(args.options)
    options = md.filter_options(options)
    digests = {"options": quotes_digest(options)}
    config = {"variant": row.name, "min_maturity": md.DEFAULT_MIN_MATURITY,
              "min_volume": md.DEFAULT_MIN_VOLUME}

    bond_fit = ZERO_BOND_FIT
    if row.bond_step:
        if not args.bonds:
            raise ValidationError(f"--bonds is required with --variant {args.variant}")
        bonds = md.load_bonds_csv(args.bonds)
        digests["bonds"] = quotes_digest(bonds)
        bond_fit = fit_bonds(bonds, vasicek)
        config.update({"m1": cal.DEFAULT_M1, "bond_grid": cal.DEFAULT_BOND_GRID,
                       "l_min": cal.DEFAULT_L_MIN, "l_grid": cal.DEFAULT_L_GRID})
    option_fit = fit_options(options, bond_fit, vasicek, equity, variant=row.name)
    report = build_report(bond_fit, option_fit, vasicek, equity, row.name, digests, config)
    _emit(args, report_json(report))


def cmd_price(args) -> None:
    fit = _load_fit(args.fit)
    if args.kind == "bond":
        pin = PricingInputs(fit.vasicek, fit.equity, fit.credit, args.maturity)
    else:
        if args.strike is None:
            raise ValidationError("--strike is required for options")
        pin = PricingInputs(fit.vasicek, fit.equity, fit.credit, args.maturity, args.strike)
    price = price_full(pin, fit.coeffs, args.kind, fit.variant)
    out = {"kind": args.kind, "maturity": args.maturity, "price": price,
           "p0": price_p0(pin, args.kind)}
    if args.kind != "bond":
        out["strike"] = args.strike
        out["quote_rate"], out["implied_vol"], _ = model_quote(
            price, args.strike, args.maturity, args.kind, fit.vasicek, fit.equity)
    _emit(args, json.dumps(out, indent=2))


def _parse_maturities(text: str):
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split("..", 1))
            if hi - lo >= MAX_PAYMENTS:  # before the list is built
                raise ValidationError(f"--maturities {text!r} has {hi - lo + 1} points; "
                                      f"a range has at most {MAX_PAYMENTS}")
            maturities = [float(t) for t in range(lo, hi + 1)]
        else:
            maturities = [float(t) for t in text.split(",") if t]
    except ValueError:
        raise ValidationError(
            f"bad --maturities {text!r}; expected 'LO..HI' (integers) or 'T1,T2,...'"
        ) from None
    if not maturities:
        raise ValidationError(f"no maturities in --maturities {text!r}")
    return maturities


_FREQ = {"annual": 1.0, "semiannual": 0.5, "quarterly": 0.25}


def cmd_cds_curve(args) -> None:
    fit = _load_fit(args.fit)
    delta = _FREQ[args.freq]
    maturities = _parse_maturities(args.maturities)
    rows = ["maturity_years,spread_bps"]
    for t, spread in cds_term_structure(fit, maturities, delta):
        rows.append(f"{t},{spread * 1e4}")
    _emit(args, "\n".join(rows))


def cmd_cds_series(args) -> None:
    fits_dir = Path(args.fits_dir)
    if not fits_dir.is_dir():
        raise ValidationError(f"{fits_dir} is not a directory")
    files = sorted(fits_dir.glob("*.json"))
    if not files:
        raise ValidationError(f"no fit files in {fits_dir}")
    dated = []
    for path in files:
        try:
            dated.append((path.stem, _load_fit(str(path))))
        except (CredeqError, OSError, UnicodeDecodeError):
            dated.append((path.stem, None))  # an unreadable file is a gap too
    rows = ["date,maturity_years,spread_bps"]
    for date, spread in cds_series(dated, args.maturity, _FREQ[args.freq]):
        rows.append(f"{date},{args.maturity},{'NA' if spread is None else spread * 1e4}")
    _emit(args, "\n".join(rows))


def _parse_grid(text: str):
    try:
        taus, strikes = text.split("x", 1)
        maturities = [float(t) for t in taus.split(",") if t]
        strike_list = [float(k) for k in strikes.split(",") if k]
    except ValueError:
        raise ValidationError(
            f"bad --grid {text!r}; expected 'T1,T2,...xK1,K2,...'"
        ) from None
    if not maturities or not strike_list:
        raise ValidationError("grid needs at least one maturity and one strike")
    return maturities, strike_list


def cmd_ivol_surface(args) -> None:
    fit = _load_fit(args.fit)
    maturities, strikes = _parse_grid(args.grid)
    rows = ["maturity_years,strike,implied_vol"]
    for tau in maturities:
        for strike in strikes:
            pin = PricingInputs(fit.vasicek, fit.equity, fit.credit, tau, strike)
            price = price_full(pin, fit.coeffs, args.kind, fit.variant)
            _, iv, _ = model_quote(price, strike, tau, args.kind, fit.vasicek, fit.equity)
            rows.append(f"{tau},{strike},{'NA' if iv is None else iv}")
    _emit(args, "\n".join(rows))


def cmd_oracle(args) -> None:
    # Imported here: no other command runs the oracle, and it loads NumPy.
    from .oracle_mc import CHUNK_BASE_PATHS, FactorSpec, McConfig, grid_steps, mc_price

    if args.dlt is not None and args.eps is None:
        raise ValidationError("--dlt scales the multiscale slow factor; it needs --eps")
    fit = _load_fit(args.fit)
    if args.eps is not None:
        dlt = 0.0 if args.dlt is None else args.dlt
        spec = FactorSpec.multiscale(lam=fit.credit.lam, eps=args.eps, dlt=dlt)
    else:
        spec = FactorSpec.constant(
            sigma=fit.equity.sigma2, lam=fit.credit.lam, rho1=fit.equity.rho1
        )
    cfg = McConfig(
        n_paths=args.paths,
        n_steps_per_year=args.steps_per_year,
        seed=args.seed,
        factor_spec=spec,
    )
    schedule = None
    if args.instrument == "cds":
        schedule = annual_schedule(args.maturity, _FREQ[args.freq])
    pin = PricingInputs(fit.vasicek, fit.equity, fit.credit, args.maturity, args.strike)
    start = time.perf_counter()
    est, se = mc_price(cfg, args.instrument, pin, schedule)
    elapsed = time.perf_counter() - start
    n_steps = grid_steps(cfg, schedule.payment_times if schedule else [args.maturity])
    _emit(args, json.dumps({"instrument": args.instrument, "estimate": est,
                            "std_error": se, "n_paths": args.paths, "n_steps": n_steps,
                            "elapsed_s": elapsed,
                            "path_steps_per_s": args.paths * n_steps / elapsed,
                            "n_chunks": math.ceil(args.paths / 2 / CHUNK_BASE_PATHS)}, indent=2))


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValidationError: exit 2 with one JSON line, like any other."""

    def __init__(self, *args, **kwargs):  # subparsers share the class
        super().__init__(*args, **kwargs)
        # -5e-05, repr of a small rate, is a value too: argparse's pattern has no exponent.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="credeq",
        description="Defaultable bond / equity option / CDS pricing and calibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-rates", help="fit short-rate parameters to a treasury curve")
    p.add_argument("--treasury", required=True)
    p.add_argument("--r-proxy", type=float, default=None,
                   help="short-rate proxy (default: shortest-maturity yield)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit_rates)

    p = sub.add_parser("estimate-equity", help="estimate equity vol/correlation from history")
    p.add_argument("--stock", required=True)
    p.add_argument("--spot-rate", required=True)
    p.add_argument("--spot", type=float, default=None, help="spot override (default: last close)")
    p.add_argument("--dividend-yield", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate_equity)

    p = sub.add_parser("calibrate", help="two-step bond+option calibration")
    p.add_argument("--bonds")
    p.add_argument("--options", required=True)
    p.add_argument("--params", action="append", required=True,
                   help="parameter JSON (repeatable; later files override)")
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAG), default="seven")
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("price", help="price one instrument from a fit JSON")
    p.add_argument("--fit", required=True)
    p.add_argument("--kind", choices=("call", "put", "bond"), required=True)
    p.add_argument("--strike", type=float)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("cds-curve", help="model CDS spread term structure")
    p.add_argument("--fit", required=True)
    p.add_argument("--maturities", default="1..10", help="e.g. 1..10 or 1,3,5")
    p.add_argument("--freq", choices=sorted(_FREQ), default="annual")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cds_curve)

    p = sub.add_parser("cds-series", help="spread time series from a directory of fits")
    p.add_argument("--fits-dir", required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--freq", choices=sorted(_FREQ), default="annual")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cds_series)

    p = sub.add_parser("ivol-surface", help="model implied-vol surface on a grid")
    p.add_argument("--fit", required=True)
    p.add_argument("--grid", required=True, help="'T1,T2,...xK1,K2,...'")
    p.add_argument("--kind", choices=("call", "put"), default="call")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ivol_surface)

    p = sub.add_parser("oracle", help="Monte-Carlo validation estimate")
    p.add_argument("--fit", required=True)
    p.add_argument("--instrument", choices=("call", "put", "bond", "cds"), required=True)
    p.add_argument("--strike", type=float)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps-per-year", type=int, default=252,
                   help="multiscale time steps a year; constant factors step once per horizon")
    p.add_argument("--eps", type=float, default=None,
                   help="activate multiscale factors with this eps")
    p.add_argument("--dlt", type=float, help="multiscale slow-factor scale (needs --eps; default 0)")
    p.add_argument("--freq", choices=sorted(_FREQ), default="annual")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (ValidationError, DomainError, OSError, UnicodeDecodeError) as exc:
        # OSError: a missing or unreadable path, or a directory; UnicodeDecodeError: not UTF-8.
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return VALIDATION_EXIT
    except (NumericalError, OverflowError) as exc:
        # OverflowError: a float overflow outside the closed forms, which name
        # the overflowing parameter in a NumericalError themselves.
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return NUMERICAL_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
