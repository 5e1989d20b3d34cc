"""Two-step daily calibration to corporate bonds and equity options.

Step 1 (bonds): for each candidate product l*lambda on a uniform grid over
[0, M1], the two remaining bond coefficients {l*V3, l*W2} solve a linear
least-squares system in the bond-curve Greeks; the grid point minimizing
the summed squared price errors wins. l*lambda enters the bond only as
exp(-l*lambda*tau), so the whole grid is one (grid x bonds x 2) broadcast
of the kernel in :mod:`credeq.corrections`.

Step 2 (options): for each candidate loss rate l on a uniform grid over
[l_min, 1], the bond products are converted to per-unit coefficients
(lambda = l_lambda/l, V3 = l_V3/l, W2 = l_W2/l) and the remaining
coefficients solve a vega-weighted linear least squares against option
price residuals. The grid-l minimizing the weighted objective wins.
lambda enters only through log Bc(1), so the whole grid is one
(grid x quotes x 8) tensor.

Each step is one batched pass: the Vasicek factors are computed once per
distinct maturity, and the linear systems of every grid point are solved
together by batched SVD (never normal equations; the Greek columns are
highly collinear), with the rank rule of ``np.linalg.lstsq``. Each fit
reports the design-matrix condition number at its argmin. Ties on a grid
break toward the smaller grid value, and a non-finite P0 or Greek raises
NumericalError. The l grid starts at l_min > 0 because lambda =
(l*lambda)/l blows up as l -> 0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

# NumPy is imported inside the functions that use arrays, so that the float
# path (one price, one CDS curve) never loads it.
from .corrections import CorrectionParams, evaluate_bonds, evaluate_options
from .errors import CalibrationError, DomainError, NumericalError, ValidationError
from .implied_vol import VEGA_FLOOR_FACTOR, bs_vega, implied_vol
from .pricing import CreditParams
from .rates import EquityParams, VasicekParams, vasicek_yield

__all__ = [
    "BondFit",
    "OptionFit",
    "ModelFit",
    "fit_bonds",
    "fit_options",
    "calibrate_index",
    "quotes_digest",
    "build_report",
]

DEFAULT_M1 = 1.0
DEFAULT_BOND_GRID = 201
DEFAULT_L_MIN = 0.05
DEFAULT_L_GRID = 96

# Linear unknowns per variant, as (coefficient name, greek index) pairs.
_VARIANT_COLUMNS = {
    "seven_param": (("v1", 0), ("v2", 1), ("v4", 3), ("v5", 4), ("v6", 5), ("w1", 6)),
    "three_param": (("v1", 0), ("w1", 6)),
    "index": (("v1", 0), ("v2", 1), ("v4", 3), ("v5", 4), ("v6", 5)),
}


@dataclass(frozen=True)
class BondFit:
    """Step-1 products and diagnostics."""

    l_lambda: float
    l_v3: float
    l_w2: float
    residual: float
    condition_number: float

    def __post_init__(self):
        if self.residual < 0:
            raise ValidationError("residual must be >= 0")


@dataclass(frozen=True)
class OptionFit:
    """Step-2 separated parameters and diagnostics."""

    l: float
    lam: float
    coeffs: CorrectionParams
    weighted_residual: float
    condition_number: float


@dataclass(frozen=True)
class ModelFit:
    """A fully calibrated model: everything pricing and CDS output need."""

    vasicek: VasicekParams
    equity: EquityParams
    credit: CreditParams
    coeffs: CorrectionParams
    variant: str = "seven_param"

    def to_dict(self) -> dict:
        return {
            "vasicek": asdict(self.vasicek),
            "equity": asdict(self.equity),
            "credit": asdict(self.credit),
            "corrections": asdict(self.coeffs),
            "variant": self.variant,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelFit":
        src = d.get("parameters", d)  # accept a full report or its parameter block
        try:
            return cls(
                vasicek=VasicekParams(**src["vasicek"]),
                equity=EquityParams(**src["equity"]),
                credit=CreditParams(**src["credit"]),
                coeffs=CorrectionParams(**src["corrections"]),
                variant=src.get("variant", "seven_param"),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed fit parameters: {exc}") from None


def _least_squares(design, rhs, rank_message: str):
    """Least squares for each leading index of a (G x M x N) design, by batched SVD.

    Never forms normal equations. Keeps the rank rule of ``np.linalg.lstsq``
    (singular values at or below eps*max(M, N) times the largest count as
    zero) and raises :class:`CalibrationError` when any system has rank
    below N. Returns the solutions (G x N), the residual sums of squares
    (G,) and the singular values (G x N).
    """
    import numpy as np

    u, sing, vt = np.linalg.svd(design, full_matrices=False)
    keep = sing > np.finfo(float).eps * max(design.shape[-2:]) * sing[:, :1]
    if not keep.all():
        raise CalibrationError(rank_message, best=None)
    theta = np.einsum("gji,gj->gi", vt, np.einsum("gmj,gm->gj", u, rhs) / sing)
    resid = rhs - np.einsum("gmn,gn->gm", design, theta)
    return theta, np.sum(resid**2, axis=-1), sing


def _condition_number(sing) -> float:
    return float(sing[0] / sing[-1]) if sing[-1] > 0 else math.inf


def _check_finite(p0, cols, quotes, what: str) -> None:
    """Raise NumericalError naming the first quote with a non-finite P0 or Greek."""
    import numpy as np

    bad = ~(np.isfinite(p0).all(axis=0) & np.isfinite(cols).all(axis=(0, 2)))
    if bad.any():
        raise NumericalError(f"non-finite {what} greeks for quote {quotes[int(np.argmax(bad))]}")


def fit_bonds(
    bonds,
    vasicek: VasicekParams,
    m1: float = DEFAULT_M1,
    n_grid: int = DEFAULT_BOND_GRID,
) -> BondFit:
    """Fit {l*lambda, l*V3, l*W2} to a corporate bond curve.

    Parameters
    ----------
    bonds : list of BondQuote
        At least 3 quotes (three unknowns).
    vasicek : VasicekParams
        Riskless curve parameters fitted beforehand.
    m1, n_grid : float, int
        The l*lambda grid is ``n_grid`` uniform points on [0, m1].
    """
    import numpy as np

    if len(bonds) < 3:
        raise ValidationError(f"need at least 3 bond quotes, got {len(bonds)}")
    prices = np.asarray([q.price for q in bonds])
    grid = np.linspace(0.0, m1, n_grid)
    p0, cols = evaluate_bonds(vasicek, grid, [q.maturity for q in bonds])
    _check_finite(p0, cols, bonds, "bond")
    theta, resid, sing = _least_squares(
        cols, prices - p0, "bond design matrix is rank deficient (distinct maturities required)"
    )
    i = int(np.argmin(resid))  # first minimum: ties go to the smaller l*lambda
    return BondFit(
        l_lambda=float(grid[i]),
        l_v3=float(theta[i, 0]),
        l_w2=float(theta[i, 1]),
        residual=float(resid[i]),
        condition_number=_condition_number(sing[i]),
    )


def _quote_weights(options, vasicek: VasicekParams, equity: EquityParams):
    """1 / max(market BS vega, floor) per quote.

    The market vega is evaluated at the quote's own implied volatility,
    quoted against the model zero yield at its maturity. Quotes whose
    price cannot be inverted (outside BS bounds) fall back to the floor.
    """
    import numpy as np

    x = equity.x
    floor = VEGA_FLOOR_FACTOR * x
    rates = {s: vasicek_yield(vasicek, s) for s in {q.maturity for q in options}}
    weights = np.empty(len(options))
    for i, q in enumerate(options):
        rate = rates[q.maturity]
        try:
            iv = implied_vol(q.price, x, q.strike, q.maturity, rate, q.kind)
            vega = bs_vega(x, q.strike, q.maturity, rate, iv)
        except DomainError:
            vega = 0.0
        weights[i] = 1.0 / max(vega, floor)
    return weights


def _option_grid(options, vasicek, equity, lam):
    """P0 (G x Q) and g1..g8 (G x Q x 8) of every quote at every intensity in ``lam``."""
    p0, g = evaluate_options(
        vasicek,
        equity,
        lam,
        [q.maturity for q in options],
        [q.strike for q in options],
        [q.kind == "put" for q in options],
    )
    _check_finite(p0, g, options, "option")
    return p0, g


def _weighted_fit(weights, rhs, g, columns, rank_message):
    """Vega-weighted least squares of ``rhs`` (G x Q) on the variant's Greek columns."""
    wcols = g[..., [j for _, j in columns]] * weights[:, None]
    return _least_squares(wcols, rhs * weights, rank_message)


def fit_options(
    options,
    bond_fit: BondFit,
    vasicek: VasicekParams,
    equity: EquityParams,
    l_min: float = DEFAULT_L_MIN,
    n_l_grid: int = DEFAULT_L_GRID,
    variant: str = "seven_param",
) -> OptionFit:
    """Fit the loss rate and the option-side coefficients to option quotes.

    Grid over l; per l the bond products fix {lambda, V3, W2} and the
    variant's linear coefficients solve a vega-weighted least squares on
    price residuals. Requires one more quote than there are unknowns.
    """
    import numpy as np

    if variant not in ("seven_param", "three_param"):
        raise ValidationError(f"unsupported calibration variant {variant!r}")
    columns = _VARIANT_COLUMNS[variant]
    n_unknowns = len(columns) + 1  # + the l grid dimension
    if len(options) < n_unknowns:
        raise ValidationError(
            f"{variant} fit needs at least {n_unknowns} option quotes, got {len(options)}"
        )
    prices = np.asarray([q.price for q in options])
    weights = _quote_weights(options, vasicek, equity)

    grid = np.linspace(l_min, 1.0, n_l_grid)
    lam = bond_fit.l_lambda / grid
    v3 = bond_fit.l_v3 / grid
    w2 = bond_fit.l_w2 / grid
    p0, g = _option_grid(options, vasicek, equity, lam)
    rhs = prices - p0 - v3[:, None] * g[..., 2] - w2[:, None] * g[..., 7]
    theta, resid, sing = _weighted_fit(
        weights, rhs, g, columns,
        "option design matrix is rank deficient; spread strikes/maturities",
    )
    i = int(np.argmin(resid))  # first minimum: ties go to the smaller l
    fitted = {name: float(t) for (name, _), t in zip(columns, theta[i])}
    coeffs = CorrectionParams(v3=float(v3[i]), w2=float(w2[i]), **fitted)
    return OptionFit(
        l=float(grid[i]),
        lam=float(lam[i]),
        coeffs=coeffs,
        weighted_residual=float(resid[i]),
        condition_number=_condition_number(sing[i]),
    )


def calibrate_index(options, vasicek: VasicekParams, equity: EquityParams) -> OptionFit:
    """Single weighted least squares for index options (no default risk).

    lambda is pinned to zero, there is no l grid, and only the five
    fast-scale coefficients {v1, v2, v4, v5, v6} are fitted.
    """
    import numpy as np

    columns = _VARIANT_COLUMNS["index"]
    if len(options) < 5:
        raise ValidationError(f"index fit needs at least 5 quotes, got {len(options)}")
    prices = np.asarray([q.price for q in options])
    weights = _quote_weights(options, vasicek, equity)
    p0, g = _option_grid(options, vasicek, equity, np.zeros(1))
    theta, resid, sing = _weighted_fit(
        weights, prices - p0, g, columns, "index design matrix is rank deficient"
    )
    fitted = {name: float(t) for (name, _), t in zip(columns, theta[0])}
    return OptionFit(
        l=1.0,
        lam=0.0,
        coeffs=CorrectionParams(**fitted),
        weighted_residual=float(resid[0]),
        condition_number=_condition_number(sing[0]),
    )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def quotes_digest(quotes) -> str:
    """Order-sensitive sha256 over the quote values."""
    h = hashlib.sha256()
    for q in quotes:
        h.update(repr(sorted(asdict(q).items())).encode())
    return h.hexdigest()


def build_report(
    bond_fit: BondFit,
    option_fit: OptionFit,
    vasicek: VasicekParams,
    equity: EquityParams,
    variant: str,
    digests: dict,
    config: dict,
) -> dict:
    """One JSON-shaped calibration record per day."""
    fit = ModelFit(
        vasicek=vasicek,
        equity=equity,
        credit=CreditParams(l=option_fit.l, lam=option_fit.lam),
        coeffs=option_fit.coeffs,
        variant=variant,
    )
    return {
        "inputs_digest": digests,
        "parameters": fit.to_dict(),
        "bond_fit": {
            "l_lambda": bond_fit.l_lambda,
            "l_v3": bond_fit.l_v3,
            "l_w2": bond_fit.l_w2,
            "residual": bond_fit.residual,
            "condition_number": bond_fit.condition_number,
        },
        "option_fit": {
            "weighted_residual": option_fit.weighted_residual,
            "condition_number": option_fit.condition_number,
        },
        "config": config,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
