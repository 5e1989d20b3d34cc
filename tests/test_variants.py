"""The variant table drives pricing, calibration and the CLI.

Every check is parametrized over ``VARIANTS``, so a row added to the table
is covered without a new test.
"""

import argparse
import math
from dataclasses import fields, replace

import pytest

from credeq.calibration import ZERO_BOND_FIT, fit_bonds, fit_options
from credeq.cli import build_parser
from credeq.corrections import VARIANTS, CorrectionParams, get_variant, price_full
from credeq.errors import ValidationError
from credeq.pricing import CreditParams, PricingInputs

from conftest import SURFACE_EQUITY, SURFACE_VASICEK

ROWS = list(VARIANTS.values())
ROW_IDS = [row.name for row in ROWS]
COEFFICIENTS = tuple(f.name for f in fields(CorrectionParams))
BOND_COEFFICIENTS = ("v3", "w2")


def bond_coefficients(row):
    return BOND_COEFFICIENTS if row.bond_step else ()


def inputs_for(row, lam=0.027, tau=0.5, strike=8.0):
    """Pricing inputs a variant accepts: lambda = 0 without a bond step."""
    credit = CreditParams(l=0.4, lam=lam if row.bond_step else 0.0)
    return PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, credit, tau, strike)


def test_table_matches_the_paper():
    assert {row.name: row.flag for row in ROWS} == {
        "seven_param": "seven", "three_param": "three", "index": "index"}
    assert {row.name: set(row.ignored) for row in ROWS} == {
        "seven_param": set(), "three_param": {"v2", "v4", "v5", "v6"},
        "index": {"v3", "w1", "w2"}}
    assert [row.name for row in ROWS if not row.bond_step] == ["index"]


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_row_partitions_the_coefficients(row):
    used = row.fitted + bond_coefficients(row) + row.ignored
    assert sorted(used) == sorted(COEFFICIENTS)
    assert row.columns == tuple(COEFFICIENTS.index(n) for n in row.fitted)


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("kind", ["call", "put", "bond"])
def test_price_full_accepts_fitted_and_bond_coefficients(row, kind):
    used = row.fitted + bond_coefficients(row)
    coeffs = CorrectionParams(**{n: 0.01 * (k + 1) for k, n in enumerate(used)})
    assert math.isfinite(price_full(inputs_for(row), coeffs, kind, row.name))


@pytest.mark.parametrize(
    "row, name", [(row, n) for row in ROWS for n in row.ignored],
    ids=[f"{row.name}-{n}" for row in ROWS for n in row.ignored],
)
def test_price_full_rejects_each_ignored_coefficient(row, name):
    with pytest.raises(ValidationError, match=name):
        price_full(inputs_for(row), CorrectionParams(**{name: 0.01}), "call", row.name)


@pytest.mark.parametrize("row", [r for r in ROWS if not r.bond_step],
                         ids=[r.name for r in ROWS if not r.bond_step])
def test_no_bond_step_rejects_default_intensity(row):
    pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(l=1.0, lam=0.02), 0.5, 8.0)
    with pytest.raises(ValidationError, match="intensity"):
        price_full(pin, CorrectionParams(v1=0.01), "call", row.name)


def test_unknown_variant_raises_configuration_error():
    pin = inputs_for(VARIANTS["seven_param"])
    with pytest.raises(ValidationError, match="five_param"):
        get_variant("five_param")
    with pytest.raises(ValidationError, match="five_param"):
        price_full(pin, CorrectionParams(), "call", "five_param")
    with pytest.raises(ValidationError, match="five_param"):
        fit_options([], ZERO_BOND_FIT, SURFACE_VASICEK, SURFACE_EQUITY, variant="five_param")


@pytest.mark.parametrize("row", [r for r in ROWS if not r.bond_step],
                         ids=[r.name for r in ROWS if not r.bond_step])
def test_fit_options_refuses_a_bond_fit_without_bond_step(row):
    # Its lambda must be 0, as price_full requires of such a variant.
    bond_fit = replace(ZERO_BOND_FIT, l_lambda=0.015)
    with pytest.raises(ValidationError, match="bond step"):
        fit_options([], bond_fit, SURFACE_VASICEK, SURFACE_EQUITY, variant=row.name)


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_calibrated_fit_prices_under_its_own_variant(row, roundtrip_fixture):
    bonds, options = roundtrip_fixture
    bond_fit = fit_bonds(bonds, SURFACE_VASICEK) if row.bond_step else ZERO_BOND_FIT
    fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY, variant=row.name)
    if row.bond_step:
        assert (fit.coeffs.v3, fit.coeffs.w2) == (bond_fit.l_v3 / fit.l, bond_fit.l_w2 / fit.l)
    else:
        assert (fit.l, fit.lam) == (1.0, 0.0)
    assert all(getattr(fit.coeffs, n) == 0.0 for n in row.ignored)
    assert all(getattr(fit.coeffs, n) != 0.0 for n in row.fitted)
    pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(fit.l, fit.lam), 0.1, 8.0)
    assert math.isfinite(price_full(pin, fit.coeffs, "call", row.name))


def calibrate_action(dest):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["calibrate"]._actions if a.dest == dest)


def test_calibrate_variant_choices_are_the_table_flags():
    assert sorted(calibrate_action("variant").choices) == sorted(row.flag for row in ROWS)
    for row in ROWS:
        args = build_parser().parse_args(
            ["calibrate", "--options", "o.csv", "--params", "p.json", "--variant", row.flag])
        assert args.variant == row.flag
