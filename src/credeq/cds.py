"""Model-implied CDS spread curves and time series from calibrated parameters.

With the calibrated model separated into a loss rate l, intensity lambda,
and bond correction coefficients, the spread for a premium schedule
T_1 < ... < T_M with spacing delta is

    spread = (B(t, T_M) - Bc~(t, T_M; l)) / sum_m Bc~(t, T_m; 1) / delta

where Bc~(.; l) is the corrected defaultable bond and the denominator
bonds are evaluated at full loss (l = 1) with the same per-unit-l
coefficients. The division by delta converts the per-period premium into
an annual rate, so annual schedules reproduce the raw ratio. Premium is
paid only on survival to a payment date; there is no accrual-on-default.

The spread is exactly zero at l = 0 and approaches l*lambda at short
maturity (credit triangle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .calibration import ModelFit
from .corrections import price_full
from .errors import NumericalError, ValidationError
from .pricing import CreditParams, PricingInputs
from .rates import riskless_bond

__all__ = [
    "CdsSchedule",
    "cds_spread",
    "cds_term_structure",
    "cds_series",
    "annual_schedule",
]

_SPACING_TOL = 1e-9


@dataclass(frozen=True)
class CdsSchedule:
    """Equally spaced premium payment times (delta, 2*delta, ..., T_M)."""

    payment_times: tuple

    def __post_init__(self):
        times = self.payment_times
        if len(times) < 1:
            raise ValidationError("schedule needs at least one payment time")
        if times[0] <= 0:
            raise ValidationError("first payment time must be > 0")
        delta = times[0]
        for m, t in enumerate(times, start=1):
            if abs(t - m * delta) > _SPACING_TOL:
                raise ValidationError(
                    f"payment times must be equally spaced from delta: {times}"
                )

    @property
    def delta(self) -> float:
        return self.payment_times[0]

    @property
    def maturity(self) -> float:
        return self.payment_times[-1]


def annual_schedule(maturity: float, delta: float = 1.0) -> CdsSchedule:
    """Payments at delta, 2*delta, ..., maturity; maturity must be a multiple."""
    n = round(maturity / delta)
    if n < 1 or abs(n * delta - maturity) > _SPACING_TOL:
        raise ValidationError(
            f"maturity {maturity} is not a positive multiple of delta {delta}"
        )
    return CdsSchedule(tuple(m * delta for m in range(1, n + 1)))


def _corrected_bond(fit: ModelFit, credit: CreditParams, tau: float) -> float:
    pin = PricingInputs(fit.vasicek, fit.equity, credit, tau)
    return price_full(pin, fit.coeffs, "bond", fit.variant)


def _spread(fit: ModelFit, schedule: CdsSchedule, full_loss_bonds) -> float:
    """The spread, with ``full_loss_bonds`` the corrected bonds at l = 1, one per payment."""
    t_mat = schedule.maturity
    protection = riskless_bond(fit.vasicek, t_mat) - _corrected_bond(fit, fit.credit, t_mat)
    annuity = sum(full_loss_bonds)
    if annuity <= 0:
        raise NumericalError(
            f"degenerate premium annuity {annuity} for schedule up to {t_mat}"
        )
    return protection / annuity / schedule.delta


def cds_spread(fit: ModelFit, schedule: CdsSchedule) -> float:
    """Annualized model CDS spread (decimal per year) for one schedule."""
    full_loss = CreditParams(l=1.0, lam=fit.credit.lam)
    return _spread(fit, schedule,
                   (_corrected_bond(fit, full_loss, t) for t in schedule.payment_times))


def cds_term_structure(fit: ModelFit, maturities, delta: float = 1.0):
    """(maturity, spread) pairs; each maturity gets its own payment schedule.

    The schedules share their payment times (m * delta), so each full-loss
    bond is priced once per curve; every spread sums the same values in the
    same order as :func:`cds_spread` and equals it bit for bit.
    """
    full_loss = CreditParams(l=1.0, lam=fit.credit.lam)
    full_loss_bond = cache(lambda t: _corrected_bond(fit, full_loss, t))
    curve = []
    for t in maturities:
        schedule = annual_schedule(t, delta)
        curve.append((t, _spread(fit, schedule, map(full_loss_bond, schedule.payment_times))))
    return curve


def cds_series(daily_fits, maturity: float, delta: float = 1.0):
    """One spread per dated fit; days with no fit keep an explicit None gap.

    ``daily_fits`` is an iterable of (date, ModelFit or None). Gaps are
    never interpolated.
    """
    items = list(daily_fits)
    if not items:
        raise ValidationError("cds_series needs at least one dated fit")
    schedule = annual_schedule(maturity, delta)
    out = []
    for date, fit in items:
        out.append((date, None if fit is None else cds_spread(fit, schedule)))
    return out
