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
The Vasicek factors are computed once per distinct maturity. A stacked QR
of every grid point's augmented system screens out the points that cannot
win; the survivors (one or two on the bench histories) are solved together by
batched SVD (never normal equations; the Greek columns are highly
collinear), with the rank rule of ``np.linalg.lstsq`` applied to them
only. The winner's numbers are bit for bit those of a full-grid solve.
Each fit reports the design-matrix condition number at its argmin. Ties on
a grid break toward the smaller grid value, and a non-finite P0 or Greek
raises NumericalError, as does a vega-weighted option system whose squares
leave the float range; a spot whose vega floor has no finite weight raises
DomainError. The l grid starts at l_min > 0 because
lambda = (l*lambda)/l blows up as l -> 0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

# NumPy is imported inside the functions that use arrays, so that the float
# path (one price, one CDS curve) never loads it.
from .corrections import CorrectionParams, evaluate_bonds, evaluate_options, get_variant
from .errors import DomainError, NumericalError, ValidationError
from .implied_vol import VEGA_FLOOR_FACTOR, model_quote
from .pricing import CreditParams
from .rates import EquityParams, VasicekParams

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
# The grid screen solves the points whose QR residual norm is within this share
# of the largest right-hand side's norm of the least. QR and SVD residual norms
# agree to within 1e-13 of it on the bench histories, so the SVD's winner always
# survives; there 1 or 2 points do.
_SCREEN_RTOL = 1e-6


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
        get_variant(self.variant)  # an unknown name raises ValidationError

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
    mistyped key raise ValidationError. A boolean counts as mistyped (JSON's
    true would pass as 1), and so does an integer too large for a float.
    """
    block = params.get(name) if isinstance(params, dict) else None
    if not isinstance(block, dict):
        raise ValidationError(f"parameters need a '{name}' object, got {block!r}")
    for key, value in block.items():
        if isinstance(value, bool):
            raise ValidationError(f"malformed '{name}' block: '{key}' is {value!r}, not a number")
    try:
        return cls(**block)
    except (TypeError, OverflowError) as exc:
        raise ValidationError(f"malformed '{name}' block: {exc}") from None


def _best_on_grid(design, rhs, rank_message: str):
    """The grid point whose least squares leaves the least residual.

    Row g of the (G x M x N) ``design`` and the (G x M) ``rhs`` is grid
    point g's system. A screen runs first: one stacked QR of the augmented
    systems [A_g | b_g] gives every point's residual norm |R[N, N]| (Golub &
    Van Loan, Matrix Computations, section 5.3), and only the points within
    ``_SCREEN_RTOL`` times the largest ||b_g|| of the least norm are solved.
    A one-point grid, or systems with no more rows than columns, skip it.
    The survivors are solved together by batched SVD, never by normal
    equations, with the rank rule of ``np.linalg.lstsq``: singular values at
    or below eps*max(M, N) times the largest count as zero, and
    NumericalError is raised when a solved system has rank below
    N. The rule sees the survivors only; a structural deficiency (repeated
    maturities, too few distinct quotes) makes every point deficient, so it
    still raises. Returns the winner's index, solution (N,), residual sum of
    squares and condition number, bit for bit those of a full-grid solve.
    Ties go to the first, that is the smaller, grid value.
    """
    import numpy as np

    rows, cols = design.shape[-2:]
    index = np.arange(len(design))
    if len(design) > 1 and rows > cols:
        r = np.linalg.qr(np.concatenate((design, rhs[..., None]), -1), mode="r")
        norm = np.abs(r[:, cols, cols])
        tol = _SCREEN_RTOL * np.linalg.norm(rhs, axis=-1).max()
        index = np.flatnonzero(norm <= norm.min() + tol)
        design, rhs = design[index], rhs[index]
    u, sing, vt = np.linalg.svd(design, full_matrices=False)
    keep = sing > np.finfo(float).eps * max(rows, cols) * sing[:, :1]
    if not keep.all():
        raise NumericalError(rank_message)
    theta = np.einsum("gji,gj->gi", vt, np.einsum("gmj,gm->gj", u, rhs) / sing)
    resid = np.sum((rhs - np.einsum("gmn,gn->gm", design, theta)) ** 2, axis=-1)
    i = int(np.argmin(resid))
    # The rank rule above leaves every smallest singular value > 0.
    return int(index[i]), theta[i], float(resid[i]), float(sing[i, 0] / sing[i, -1])


def _check_finite(p0, cols, quotes, what: str) -> None:
    """Raise NumericalError naming the first quote with a non-finite P0 or Greek."""
    import numpy as np

    if np.isfinite(p0).all() and np.isfinite(cols).all():
        return
    bad = ~(np.isfinite(p0).all(axis=0) & np.isfinite(cols).all(axis=(0, 2)))
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

    The market vega is the vega of the quote's own implied volatility, as
    :func:`credeq.implied_vol.model_quote` quotes it. Quotes whose price
    cannot be inverted (outside BS bounds) fall back to the floor. A spot
    whose floor has no finite reciprocal (x below about 5.6e-305) raises
    DomainError.
    """
    import numpy as np

    floor = VEGA_FLOOR_FACTOR * equity.x
    if floor == 0.0 or 1.0 / floor == math.inf:
        raise DomainError(f"spot x = {equity.x} puts the vega floor {VEGA_FLOOR_FACTOR} * x "
                          f"= {floor} below the float range of its weight 1 / floor")
    vegas = [model_quote(q.price, q.strike, q.maturity, q.kind, vasicek, equity)[2]
             for q in options]
    return 1.0 / np.maximum(vegas, floor)


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
    ValidationError.
    """
    import numpy as np

    row = get_variant(variant)
    if not row.bond_step and bond_fit != ZERO_BOND_FIT:
        raise ValidationError(
            f"{variant} variant has no bond step; its bond fit must be ZERO_BOND_FIT")
    n_unknowns = len(row.fitted) + (1 if row.bond_step else 0)
    if len(options) < n_unknowns:
        raise ValidationError(
            f"{row.name} fit needs at least {n_unknowns} quotes, got {len(options)}"
        )
    prices = np.asarray([q.price for q in options])

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
    weights = _quote_weights(options, vasicek, equity)  # after the kernel has checked x / strike
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rhs = (prices - p0 - v3[:, None] * g[..., 2] - w2[:, None] * g[..., 7]) * weights
        design = g[..., list(row.columns)] * weights[:, None]
        in_range = np.isfinite(np.linalg.norm(rhs, axis=-1)).all() and np.isfinite(design).all()
    if not in_range:
        raise NumericalError(
            f"the vega-weighted option system at spot x = {equity.x} leaves the float range")
    i, theta, resid, cond = _best_on_grid(
        design, rhs, f"{row.name} design matrix is rank deficient; spread strikes/maturities",
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
