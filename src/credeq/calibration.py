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
(grid x quotes x 8) tensor. One function, :func:`fit_options`, runs this
step for every row of ``VARIANTS``. The ``index`` variant has no bond step:
it takes ``ZERO_BOND_FIT`` and its grid is the single point l = 1.

Both steps pick their grid point with one helper, :func:`_best_on_grid`.
The Vasicek factors are computed once per distinct maturity, and the
linear systems of every grid point are solved together by batched SVD
(never normal equations; the Greek columns are highly collinear), with
the rank rule of ``np.linalg.lstsq``. Each fit reports the design-matrix
condition number at its argmin. Ties on a grid break toward the smaller
grid value, and a non-finite P0 or Greek raises NumericalError. The l grid
starts at l_min > 0 because lambda = (l*lambda)/l blows up as l -> 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

# NumPy is imported inside the functions that use arrays, so that the float
# path (one price, one CDS curve) never loads it.
from .corrections import CorrectionParams, evaluate_bonds, evaluate_options, get_variant
from .errors import (CalibrationError, ConfigurationError, DomainError, NumericalError,
                     ValidationError)
from .implied_vol import VEGA_FLOOR_FACTOR, bs_vega, implied_vol
from .pricing import CreditParams
from .rates import EquityParams, VasicekParams, vasicek_yield

__all__ = [
    "BondFit",
    "OptionFit",
    "ModelFit",
    "ZERO_BOND_FIT",
    "read_block",
    "fit_bonds",
    "fit_options",
    "quotes_digest",
    "build_report",
]

# The fixed grids: l*lambda on [0, DEFAULT_M1] and l on [DEFAULT_L_MIN, 1].
DEFAULT_M1 = 1.0
DEFAULT_BOND_GRID = 201
DEFAULT_L_MIN = 0.05
DEFAULT_L_GRID = 96


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


# The bond step of a variant that has none: no products, no residual.
ZERO_BOND_FIT = BondFit(l_lambda=0.0, l_v3=0.0, l_w2=0.0, residual=0.0, condition_number=0.0)


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

    def __post_init__(self):
        if not isinstance(self.variant, str):
            raise ValidationError(f"variant must be a string, got {self.variant!r}")
        get_variant(self.variant)  # an unknown name raises ConfigurationError

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
        return cls(
            vasicek=read_block(src, "vasicek", VasicekParams),
            equity=read_block(src, "equity", EquityParams),
            credit=read_block(src, "credit", CreditParams),
            coeffs=read_block(src, "corrections", CorrectionParams),
            variant=src.get("variant", "seven_param"),
        )


def read_block(params, name: str, cls):
    """The JSON object ``params[name]`` as a ``cls``, e.g. the ``vasicek`` block.

    A missing block, a block that is not an object, and a missing, extra or
    mistyped key raise ValidationError.
    """
    block = params.get(name) if isinstance(params, dict) else None
    if not isinstance(block, dict):
        raise ValidationError(f"parameters need a '{name}' object, got {block!r}")
    try:
        return cls(**block)
    except TypeError as exc:
        raise ValidationError(f"malformed '{name}' block: {exc}") from None


def _best_on_grid(design, rhs, rank_message: str):
    """The grid point whose least squares leaves the least residual.

    Row g of the (G x M x N) ``design`` and the (G x M) ``rhs`` is grid
    point g's system. All are solved together by batched SVD, never by
    normal equations, with the rank rule of ``np.linalg.lstsq``: singular
    values at or below eps*max(M, N) times the largest count as zero, and
    :class:`CalibrationError` is raised when any system has rank below N.
    Returns the winner's index, solution (N,), residual sum of squares and
    condition number. Ties go to the first, that is the smaller, grid value.
    """
    import numpy as np

    u, sing, vt = np.linalg.svd(design, full_matrices=False)
    keep = sing > np.finfo(float).eps * max(design.shape[-2:]) * sing[:, :1]
    if not keep.all():
        raise CalibrationError(rank_message, best=None)
    theta = np.einsum("gji,gj->gi", vt, np.einsum("gmj,gm->gj", u, rhs) / sing)
    resid = np.sum((rhs - np.einsum("gmn,gn->gm", design, theta)) ** 2, axis=-1)
    i = int(np.argmin(resid))
    # The rank rule above leaves every smallest singular value > 0.
    return i, theta[i], float(resid[i]), float(sing[i, 0] / sing[i, -1])


def _check_finite(p0, cols, quotes, what: str) -> None:
    """Raise NumericalError naming the first quote with a non-finite P0 or Greek."""
    import numpy as np

    bad = ~(np.isfinite(p0).all(axis=0) & np.isfinite(cols).all(axis=(0, 2)))
    if bad.any():
        raise NumericalError(f"non-finite {what} greeks for quote {quotes[int(np.argmax(bad))]}")


def fit_bonds(bonds, vasicek: VasicekParams) -> BondFit:
    """Fit {l*lambda, l*V3, l*W2} to a corporate bond curve.

    Parameters
    ----------
    bonds : list of BondQuote
        At least 3 quotes (three unknowns).
    vasicek : VasicekParams
        Riskless curve parameters fitted beforehand.
    """
    import numpy as np

    if len(bonds) < 3:
        raise ValidationError(f"need at least 3 bond quotes, got {len(bonds)}")
    prices = np.asarray([q.price for q in bonds])
    grid = np.linspace(0.0, DEFAULT_M1, DEFAULT_BOND_GRID)
    p0, cols = evaluate_bonds(vasicek, grid, [q.maturity for q in bonds])
    _check_finite(p0, cols, bonds, "bond")
    i, theta, resid, cond = _best_on_grid(
        cols, prices - p0, "bond design matrix is rank deficient (distinct maturities required)"
    )
    return BondFit(
        l_lambda=float(grid[i]),
        l_v3=float(theta[0]),
        l_w2=float(theta[1]),
        residual=resid,
        condition_number=cond,
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


def fit_options(
    options,
    bond_fit: BondFit,
    vasicek: VasicekParams,
    equity: EquityParams,
    variant: str = "seven_param",
) -> OptionFit:
    """Fit the loss rate and the option-side coefficients of ``variant`` to option quotes.

    Per loss rate l the bond products fix {lambda, V3, W2} and the variant's
    linear coefficients solve a vega-weighted least squares on price
    residuals; :func:`_best_on_grid` picks l. A variant with a bond step
    searches l over [DEFAULT_L_MIN, 1] and needs one quote more than it has
    coefficients. ``index`` has no bond step: it is fitted at the one point
    l = 1 with lambda = 0, so its ``bond_fit`` must be ``ZERO_BOND_FIT``.
    An unknown variant, or a nonzero bond fit for ``index``, raises
    ConfigurationError.
    """
    import numpy as np

    row = get_variant(variant)
    if not row.bond_step and bond_fit != ZERO_BOND_FIT:
        raise ConfigurationError(
            f"{variant} variant has no bond step; its bond fit must be ZERO_BOND_FIT")
    n_unknowns = len(row.fitted) + (1 if row.bond_step else 0)
    if len(options) < n_unknowns:
        raise ValidationError(
            f"{row.name} fit needs at least {n_unknowns} quotes, got {len(options)}"
        )
    prices = np.asarray([q.price for q in options])
    weights = _quote_weights(options, vasicek, equity)

    grid = np.linspace(DEFAULT_L_MIN, 1.0, DEFAULT_L_GRID) if row.bond_step else np.ones(1)
    lam = bond_fit.l_lambda / grid
    v3 = bond_fit.l_v3 / grid
    w2 = bond_fit.l_w2 / grid
    p0, g = evaluate_options(
        vasicek,
        equity,
        lam,
        [q.maturity for q in options],
        [q.strike for q in options],
        [q.kind == "put" for q in options],
    )
    _check_finite(p0, g, options, "option")
    rhs = prices - p0 - v3[:, None] * g[..., 2] - w2[:, None] * g[..., 7]
    i, theta, resid, cond = _best_on_grid(
        g[..., list(row.columns)] * weights[:, None], rhs * weights,
        f"{row.name} design matrix is rank deficient; spread strikes/maturities",
    )
    fitted = dict(zip(row.fitted, theta.tolist()))
    return OptionFit(
        l=float(grid[i]),
        lam=float(lam[i]),
        coeffs=CorrectionParams(v3=float(v3[i]), w2=float(w2[i]), **fitted),
        weighted_residual=resid,
        condition_number=cond,
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
        "bond_fit": asdict(bond_fit),
        "option_fit": {
            "weighted_residual": option_fit.weighted_residual,
            "condition_number": option_fit.condition_number,
        },
        "config": config,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
