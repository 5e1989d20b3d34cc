"""Model-implied CDS spread curves and time series from calibrated parameters.

With the calibrated model separated into a loss rate l, intensity lambda,
and bond correction coefficients, the spread for a premium schedule of M
payments T_m = m * delta (a ``CdsSchedule`` holds delta and M, at most
MAX_PAYMENTS) is

    spread = (B(t, T_M) - Bc~(t, T_M; l)) / sum_m Bc~(t, T_m; 1) / delta

where Bc~(.; l) is the corrected defaultable bond and the denominator
bonds are evaluated at full loss (l = 1) with the same per-unit-l
coefficients. The division by delta converts the per-period premium into
an annual rate, so annual schedules reproduce the raw ratio. Premium is
paid only on survival to a payment date; there is no accrual-on-default.

The spread is exactly zero at l = 0 and approaches l*lambda at short
maturity (credit triangle).

Each payment date's Vasicek factors are evaluated once, for all three bonds
that date needs: the full-loss bond, and, at a schedule's maturity, the
riskless and the protection bond. ``corrections._corrected_bond`` and
``_protection`` price them from those factors as ``price_full`` does, so
every spread is bit for bit the one that pricing each bond with it gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import ModelFit
from .corrections import _check_variant, _corrected_bond, _protection, _rate_factors
from .errors import CredeqError, NumericalError, ValidationError

__all__ = [
    "CdsSchedule",
    "cds_spread",
    "cds_term_structure",
    "cds_series",
    "annual_schedule",
    "MAX_PAYMENTS",
]

_SPACING_TOL = 1e-9
# The most payment dates one schedule holds: 10,000 years paid annually,
# 2,500 quarterly. It bounds the work and memory of one spread.
MAX_PAYMENTS = 10_000


def _check_delta(delta: float) -> None:
    if not (delta > 0 and math.isfinite(delta)):
        raise ValidationError(f"delta must be finite and > 0, got {delta}")


@dataclass(frozen=True)
class CdsSchedule:
    """``n`` premium payments at delta, 2*delta, ..., n*delta; n is an int in 1..MAX_PAYMENTS."""

    delta: float
    n: int

    def __post_init__(self):
        _check_delta(self.delta)
        if type(self.n) is not int or not 1 <= self.n <= MAX_PAYMENTS:  # a bool is no int here
            raise ValidationError(f"n must be an int in 1..{MAX_PAYMENTS}, got {self.n!r}")

    @property
    def payment_times(self) -> tuple:
        return tuple(m * self.delta for m in range(1, self.n + 1))

    @property
    def maturity(self) -> float:
        return self.n * self.delta


def _payment_count(maturity: float, delta: float) -> int:
    """The n of a schedule delta, 2*delta, ..., n*delta = maturity, at most MAX_PAYMENTS."""
    _check_delta(delta)
    if not math.isfinite(maturity):
        raise ValidationError(f"maturity must be finite, got {maturity}")
    if not maturity / delta < MAX_PAYMENTS + 0.5:  # also a ratio that overflows to inf
        raise ValidationError(
            f"maturity {maturity} / delta {delta} asks for more than {MAX_PAYMENTS} payments"
        )
    n = round(maturity / delta)
    if n < 1 or abs(n * delta - maturity) > _SPACING_TOL:
        raise ValidationError(
            f"maturity {maturity} is not a positive multiple of delta {delta}"
        )
    return n


def annual_schedule(maturity: float, delta: float = 1.0) -> CdsSchedule:
    """Payments at delta, 2*delta, ..., maturity; maturity must be a multiple.

    A schedule holds at most MAX_PAYMENTS payments.
    """
    return CdsSchedule(delta, _payment_count(maturity, delta))


def _spreads(fit: ModelFit, delta: float, counts) -> list:
    """The spread of each schedule (delta, n), n in ``counts``.

    Each payment date m * delta gets one evaluation of its Vasicek factors,
    which give its full-loss bond and, where a schedule ends, the riskless
    and protection bonds too. The annuities are one running sum,
    0 + b_1 + b_2 + ..., added left to right: the work is linear in the
    number of schedules and in the longest one. Every full-loss bond is
    priced before any protection bond, so a failing curve raises the error
    a bond-by-bond pricing raises first.
    """
    if not counts:
        return []
    l, lam, coeffs = fit.credit.l, fit.credit.lam, fit.coeffs
    _check_variant(lam, coeffs, fit.variant)
    at_maturity = dict.fromkeys(counts)  # n -> the factors of n * delta
    annuities = [0]
    for m in range(1, max(counts) + 1):
        tau = m * delta
        factors = _rate_factors(fit.vasicek, tau)
        annuities.append(annuities[-1] + _corrected_bond(1.0, lam, coeffs, tau, factors))
        if m in at_maturity:
            at_maturity[m] = factors
    spreads = []
    for n in counts:
        t_mat = n * delta
        protection = _protection(l, lam, coeffs, t_mat, at_maturity[n])
        if annuities[n] <= 0:
            raise NumericalError(
                f"degenerate premium annuity {annuities[n]} for schedule up to {t_mat}"
            )
        spreads.append(protection / annuities[n] / delta)
    return spreads


def cds_spread(fit: ModelFit, schedule: CdsSchedule) -> float:
    """Annualized model CDS spread (decimal per year) for one schedule."""
    return _spreads(fit, schedule.delta, [schedule.n])[0]


def cds_term_structure(fit: ModelFit, maturities, delta: float = 1.0):
    """(maturity, spread) pairs; each maturity gets its own payment schedule.

    Every maturity is checked as :func:`annual_schedule` checks it before any
    bond is priced, and each spread equals :func:`cds_spread`'s for that
    maturity's schedule.
    """
    counts = [_payment_count(t, delta) for t in maturities]
    return list(zip(maturities, _spreads(fit, delta, counts)))


def cds_series(daily_fits, maturity: float, delta: float = 1.0):
    """One spread per dated fit; a day with no fit, or with a fit that cannot
    be priced (a CredeqError or a float overflow), keeps an explicit None gap.

    ``daily_fits`` is an iterable of (date, ModelFit or None). Gaps are
    never interpolated.
    """
    items = list(daily_fits)
    if not items:
        raise ValidationError("cds_series needs at least one dated fit")
    schedule = annual_schedule(maturity, delta)
    out = []
    for date, fit in items:
        try:
            out.append((date, None if fit is None else cds_spread(fit, schedule)))
        except (CredeqError, OverflowError):
            out.append((date, None))
    return out
