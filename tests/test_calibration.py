import json
import math
from dataclasses import replace

import numpy as np
import pytest

from credeq import calibration
from credeq.calibration import (
    ZERO_BOND_FIT,
    BondFit,
    ModelFit,
    OptionFit,
    build_report,
    fit_bonds,
    fit_options,
    quotes_digest,
    read_block,
    report_json,
    _quote_weights,
)
from credeq.corrections import CorrectionParams
from credeq.errors import NumericalError, ValidationError
from credeq.implied_vol import VEGA_FLOOR_FACTOR, bs_vega
from credeq.market_data import BondQuote, OptionQuote
from credeq.pricing import CreditParams
from credeq.rates import EquityParams, VasicekParams, riskless_bond, vasicek_yield

from reference_oracles import best_on_grid_svd
from scalar_reference import option_residuals
from conftest import (
    BOND_MATURITIES,
    INDEX_EQUITY,
    INDEX_VASICEK,
    SURFACE_COEFFS,
    SURFACE_EQUITY,
    SURFACE_VASICEK,
    TRUE_LAMBDA,
    TRUE_LOSS,
    make_bond_quotes,
    make_option_quotes,
)

TRUE_PRODUCTS = (
    TRUE_LOSS * TRUE_LAMBDA,
    TRUE_LOSS * SURFACE_COEFFS.v3,
    TRUE_LOSS * SURFACE_COEFFS.w2,
)


class TestFitBonds:
    def test_round_trip(self, roundtrip_fixture):
        bonds, _ = roundtrip_fixture
        fit = fit_bonds(bonds, SURFACE_VASICEK)
        l_lambda, l_v3, l_w2 = TRUE_PRODUCTS
        assert fit.l_lambda == pytest.approx(l_lambda, abs=1e-12)  # on-grid
        assert fit.l_v3 == pytest.approx(l_v3, abs=1e-10)
        assert fit.l_w2 == pytest.approx(l_w2, abs=1e-10)
        assert fit.residual < 1e-20
        assert fit.condition_number < 1e4

    def test_riskless_prices_imply_no_credit(self):
        bonds = [
            BondQuote(maturity=s, price=riskless_bond(SURFACE_VASICEK, s))
            for s in BOND_MATURITIES
        ]
        fit = fit_bonds(bonds, SURFACE_VASICEK)
        assert fit.l_lambda == 0.0
        assert abs(fit.l_v3) < 1e-12
        assert abs(fit.l_w2) < 1e-12

    def test_grid_refinement_never_degrades(self, monkeypatch):
        credit = CreditParams(l=0.4, lam=0.0633)  # off-grid product
        bonds = make_bond_quotes(SURFACE_VASICEK, credit, SURFACE_COEFFS)
        monkeypatch.setattr(calibration, "DEFAULT_BOND_GRID", 11)
        coarse = fit_bonds(bonds, SURFACE_VASICEK)
        monkeypatch.setattr(calibration, "DEFAULT_BOND_GRID", 21)  # contains the coarse grid
        fine = fit_bonds(bonds, SURFACE_VASICEK)
        assert fine.residual <= coarse.residual + 1e-18

    def test_two_quotes_rejected(self):
        bonds = [BondQuote(1.0, 0.95), BondQuote(2.0, 0.90)]
        with pytest.raises(ValidationError):
            fit_bonds(bonds, SURFACE_VASICEK)

    def test_duplicated_maturity_is_rank_deficient(self):
        bonds = [BondQuote(2.0, p) for p in (0.90, 0.901, 0.902, 0.903)]
        with pytest.raises(NumericalError, match="rank"):
            fit_bonds(bonds, SURFACE_VASICEK)


class TestFitOptions:
    def test_round_trip_recovers_coefficient_vector(self, roundtrip_fixture):
        bonds, options = roundtrip_fixture
        assert len(options) >= 20
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        assert fit.l == pytest.approx(TRUE_LOSS, abs=1e-12)
        assert fit.lam == pytest.approx(TRUE_LAMBDA, abs=1e-10)
        for name in ("v1", "v2", "v4", "v5", "v6", "w1"):
            assert getattr(fit.coeffs, name) == pytest.approx(
                getattr(SURFACE_COEFFS, name), abs=1e-8
            ), name
        # bond-implied pieces come back through the division by l
        assert fit.coeffs.v3 == pytest.approx(SURFACE_COEFFS.v3, abs=1e-9)
        assert fit.coeffs.w2 == pytest.approx(SURFACE_COEFFS.w2, abs=1e-9)

    def test_zero_vector_comes_back_as_zero(self):
        zero = CorrectionParams()
        credit = CreditParams(l=TRUE_LOSS, lam=TRUE_LAMBDA)
        bonds = make_bond_quotes(SURFACE_VASICEK, credit, zero)
        grid = [(t, m, k) for t in (0.25, 0.5, 1.0, 2.0)
                for m, k in ((0.8, "call"), (0.9, "call"), (1.0, "call"), (1.1, "put"), (1.2, "put"))]
        options = make_option_quotes(SURFACE_VASICEK, SURFACE_EQUITY, TRUE_LAMBDA, zero, grid)
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        for name in ("v1", "v2", "v4", "v5", "v6", "w1"):
            assert abs(getattr(fit.coeffs, name)) < 1e-8
        assert fit.weighted_residual < 1e-16

    def test_three_param_round_trip(self):
        truth = CorrectionParams(v1=0.012, v3=0.003, w1=-0.008, w2=0.0005)
        credit = CreditParams(l=TRUE_LOSS, lam=TRUE_LAMBDA)
        bonds = make_bond_quotes(SURFACE_VASICEK, credit, truth)
        grid = [(t, m, k) for t in (0.25, 0.5, 1.0, 2.0)
                for m, k in ((0.8, "call"), (1.0, "call"), (1.2, "put"))]
        options = make_option_quotes(SURFACE_VASICEK, SURFACE_EQUITY, TRUE_LAMBDA, truth, grid)
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        fit = fit_options(
            options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY, variant="three_param"
        )
        assert fit.l == pytest.approx(TRUE_LOSS, abs=1e-12)
        assert fit.coeffs.v1 == pytest.approx(truth.v1, abs=1e-8)
        assert fit.coeffs.w1 == pytest.approx(truth.w1, abs=1e-8)
        assert fit.coeffs.v2 == fit.coeffs.v4 == fit.coeffs.v5 == fit.coeffs.v6 == 0.0

    def test_grid_optimality(self, roundtrip_fixture):
        bonds, options = roundtrip_fixture
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        weights = _quote_weights(options, SURFACE_VASICEK, SURFACE_EQUITY)
        for l in np.linspace(0.05, 1.0, 96):
            _, resid = option_residuals(
                options, weights, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY, l
            )
            assert fit.weighted_residual <= resid + 1e-18

    def test_currency_rescale_leaves_argmin_unchanged(self, roundtrip_fixture):
        bonds, options = roundtrip_fixture
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        base = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        c = 7.0
        scaled_eq = EquityParams(
            x=c * SURFACE_EQUITY.x,
            sigma2=SURFACE_EQUITY.sigma2,
            rho1=SURFACE_EQUITY.rho1,
        )
        scaled = [
            OptionQuote(q.maturity, c * q.strike, q.kind, c * q.price, q.volume)
            for q in options
        ]
        refit = fit_options(scaled, bond_fit, SURFACE_VASICEK, scaled_eq)
        assert refit.l == base.l
        assert refit.lam == base.lam

    def test_noisy_quotes_degrade_gracefully(self, roundtrip_fixture):
        # collinear greek columns amplify quote noise into the coefficient
        # estimates (condition ~1e5, no regularization by design); the fit
        # must still return finite minimizers with a noise-scale residual
        bonds, options = roundtrip_fixture
        rng = np.random.default_rng(99)
        noisy_bonds = [
            BondQuote(q.maturity, q.price + rng.normal(0, 5e-4)) for q in bonds
        ]
        noisy_opts = [
            OptionQuote(
                q.maturity, q.strike, q.kind,
                max(q.price * (1 + rng.normal(0, 0.002)), 1e-6), q.volume,
            )
            for q in options
        ]
        bond_fit = fit_bonds(noisy_bonds, SURFACE_VASICEK)
        assert abs(bond_fit.l_lambda - TRUE_LOSS * TRUE_LAMBDA) <= 0.005
        assert 0 < bond_fit.residual < len(bonds) * (5 * 5e-4) ** 2
        fit = fit_options(noisy_opts, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        assert 0.05 <= fit.l <= 1.0
        assert np.isfinite(fit.weighted_residual)
        assert all(np.isfinite(getattr(fit.coeffs, n)) for n in
                   ("v1", "v2", "v3", "v4", "v5", "v6", "w1", "w2"))

    def test_too_few_quotes(self, roundtrip_fixture):
        bonds, options = roundtrip_fixture
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        with pytest.raises(ValidationError):
            fit_options(options[:6], bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)

    @pytest.mark.parametrize("grid", [
        [(0.3, m, kind) for m in (0.8, 0.9, 1.0, 1.1, 1.2) for kind in ("call", "put")],
        [(0.3, 1.0, "call")] * 7,
    ], ids=["one-maturity", "one-quote-seven-times"])
    def test_structurally_rank_deficient(self, roundtrip_fixture, grid):
        # Deficient at every grid point, so among the QR screen's survivors too.
        bonds, _ = roundtrip_fixture
        options = make_option_quotes(SURFACE_VASICEK, SURFACE_EQUITY, TRUE_LAMBDA,
                                     CorrectionParams(), grid)
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        with pytest.raises(NumericalError, match="rank"):
            fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)


class TestCalibrateIndex:
    # index-level greeks scale with the big spot, so realistic coefficients
    # are a couple of orders smaller than single-name ones
    TRUTH = CorrectionParams(v1=4e-4, v2=-6e-5, v4=2e-5, v5=-8e-4, v6=3e-4)
    GRID = [
        (t, m, "call")
        for t in (0.25, 0.5, 1.0, 1.5, 2.0)
        for m in (0.9, 0.95, 1.0, 1.05, 1.1)
    ]

    def synth(self, coeffs):
        return make_option_quotes(INDEX_VASICEK, INDEX_EQUITY, 0.0, coeffs, self.GRID)

    def test_round_trip(self):
        quotes = self.synth(self.TRUTH)
        fit = fit_options(quotes, ZERO_BOND_FIT, INDEX_VASICEK, INDEX_EQUITY, variant="index")
        assert fit.lam == 0.0
        for name in ("v1", "v2", "v4", "v5", "v6"):
            assert getattr(fit.coeffs, name) == pytest.approx(
                getattr(self.TRUTH, name), abs=1e-8
            )
        assert fit.coeffs.v3 == fit.coeffs.w1 == fit.coeffs.w2 == 0.0

    def test_zero_vector(self):
        quotes = self.synth(CorrectionParams())
        fit = fit_options(quotes, ZERO_BOND_FIT, INDEX_VASICEK, INDEX_EQUITY, variant="index")
        for name in ("v1", "v2", "v4", "v5", "v6"):
            assert abs(getattr(fit.coeffs, name)) < 1e-8

    def test_reports_residual(self):
        quotes = self.synth(self.TRUTH)
        fit = fit_options(quotes, ZERO_BOND_FIT, INDEX_VASICEK, INDEX_EQUITY, variant="index")
        assert np.isfinite(fit.weighted_residual)
        assert np.isfinite(fit.condition_number)

    def test_needs_five_quotes(self):
        with pytest.raises(ValidationError):
            fit_options(self.synth(self.TRUTH)[:4], ZERO_BOND_FIT, INDEX_VASICEK, INDEX_EQUITY,
                        variant="index")


class TestQuoteWeights:
    def test_vega_on_the_dividend_adjusted_spot(self):
        """A flat 20% model with a dividend yield: each weight is 1 / max(vega, floor),
        with the Black-Scholes vega of 20% on the spot x*exp(-q*tau)."""
        vasicek = replace(INDEX_VASICEK, eta=0.0)
        equity = replace(INDEX_EQUITY, sigma2=0.2)
        grid = [(t, m, kind) for t in (0.25, 1.0, 2.0) for m in (0.9, 1.0, 1.1)
                for kind in ("call", "put")]
        options = make_option_quotes(vasicek, equity, 0.0, CorrectionParams(), grid)
        floor = VEGA_FLOOR_FACTOR * equity.x
        want = [
            1.0 / max(bs_vega(equity.x * math.exp(-equity.q * q.maturity), q.strike, q.maturity,
                              vasicek_yield(vasicek, q.maturity), 0.2), floor)
            for q in options
        ]
        assert _quote_weights(options, vasicek, equity).tolist() == pytest.approx(want, rel=1e-9)


class TestPinnedFits:
    """Every field of the fits, pinned with ``==``: a change to the solver's
    floating-point order shows here, not only a change beyond the round-trip
    tolerances above."""

    BOND = BondFit(l_lambda=0.015, l_v3=0.0002700000000000018, l_w2=-3.0000000000000214e-05,
                   residual=3.204499666311986e-32, condition_number=13.045282597946768)
    OPTIONS = {
        "seven_param": OptionFit(
            l=0.3, lam=0.05,
            coeffs=CorrectionParams(
                v1=0.9960000000000065, v2=-0.0014000000000006676, v3=0.000900000000000006,
                v4=0.010400000000018353, v5=-0.6513999999963921, v6=0.33400000000422203,
                w1=-0.18370000000411463, w2=-0.00010000000000000072),
            weighted_residual=1.9390412621237926e-23, condition_number=911878.5416001045),
        "three_param": OptionFit(
            l=0.38, lam=0.039473684210526314,
            coeffs=CorrectionParams(v1=0.9658054412306679, v3=0.0007105263157894784,
                                    w1=0.018588030334167463, w2=-7.894736842105319e-05),
            weighted_residual=88.87391568671198, condition_number=26.389280194295644),
        "index": OptionFit(
            l=1.0, lam=0.0,
            coeffs=CorrectionParams(v1=0.9031385376931271, v2=0.0004120894949664654,
                                    v4=-0.009314079015336138, v5=12.81279403948366,
                                    v6=-0.1753891682175106),
            weighted_residual=851.9258769980916, condition_number=64913.79026388401),
    }
    # The index quotes carry a dividend yield, so their vega weights are taken
    # on the dividend-adjusted spot.
    INDEX_TRUTH = OptionFit(
        l=1.0, lam=0.0,
        coeffs=CorrectionParams(v1=0.0004000000000000097, v2=-5.999999999999916e-05,
                                v4=1.9999999999998938e-05, v5=-0.0007999999999998362,
                                v6=0.00030000000000001575),
        weighted_residual=2.299919294104461e-29, condition_number=115573.58045688459)

    def test_bond_fit(self, roundtrip_fixture):
        bonds, _ = roundtrip_fixture
        assert fit_bonds(bonds, SURFACE_VASICEK) == self.BOND

    @pytest.mark.parametrize("variant", ["seven_param", "three_param", "index"])
    def test_option_fit(self, variant, roundtrip_fixture):
        bonds, options = roundtrip_fixture
        bond_fit = ZERO_BOND_FIT if variant == "index" else fit_bonds(bonds, SURFACE_VASICEK)
        fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY, variant=variant)
        assert fit == self.OPTIONS[variant]

    def test_index_fit_on_the_index_truth_surface(self):
        quotes = make_option_quotes(INDEX_VASICEK, INDEX_EQUITY, 0.0, TestCalibrateIndex.TRUTH,
                                    TestCalibrateIndex.GRID)
        fit = fit_options(quotes, ZERO_BOND_FIT, INDEX_VASICEK, INDEX_EQUITY, variant="index")
        assert fit == self.INDEX_TRUTH


def assert_same_winner(design, rhs):
    got = calibration._best_on_grid(design, rhs, "rank")
    want = best_on_grid_svd(design, rhs, "rank")
    assert (got[0], got[1].tolist(), got[2], got[3]) == (want[0], want[1].tolist(), *want[2:])
    return got[0]


class TestGridScreen:
    """The QR screen picks the full-grid SVD's winner and returns its numbers bit for bit."""

    @pytest.fixture
    def fixture_systems(self, roundtrip_fixture, monkeypatch):
        """The systems behind the TestPinnedFits fixtures: the bond step, then each variant."""
        bonds, options = roundtrip_fixture
        systems, best_on_grid = [], calibration._best_on_grid
        monkeypatch.setattr(calibration, "_best_on_grid",
                            lambda design, rhs, message: systems.append((design, rhs))
                            or best_on_grid(design, rhs, message))
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        for variant in ("seven_param", "three_param", "index"):
            fit_options(options, ZERO_BOND_FIT if variant == "index" else bond_fit,
                        SURFACE_VASICEK, SURFACE_EQUITY, variant=variant)
        monkeypatch.undo()
        return systems

    def test_fixture_systems(self, fixture_systems):
        assert [d.shape[0] for d, _ in fixture_systems] == [201, 96, 96, 1]
        for design, rhs in fixture_systems:
            assert_same_winner(design, rhs)

    def test_screen_error_on_the_fixtures(self, fixture_systems):
        # |R[N, N]| of QR on [A | b] against the SVD least-squares residual norm.
        for design, rhs in fixture_systems[:3]:
            n = design.shape[-1]
            r = np.linalg.qr(np.concatenate((design, rhs[..., None]), -1), mode="r")
            for g in range(len(design)):
                theta = np.linalg.lstsq(design[g], rhs[g], rcond=None)[0]
                resid = np.linalg.norm(rhs[g] - design[g] @ theta)
                assert abs(abs(r[g, n, n]) - resid) < 1e-10 * np.linalg.norm(rhs[g])

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        g, m, n = 40, 12, 4
        design = rng.normal(size=(g, m, n))
        truth = rng.normal(size=(g, n))
        noise = rng.uniform(0.01, 1.0, size=(g, 1)) * rng.normal(size=(g, m))
        assert_same_winner(design, np.einsum("gmn,gn->gm", design, truth) + noise)

    def test_exact_tie_goes_to_the_first(self):
        rng = np.random.default_rng(7)
        design = rng.normal(size=(10, 8, 3))
        rhs = rng.normal(size=(10, 8))
        rhs[3] = design[3] @ [1.0, -2.0, 0.5] + 1e-3 * rng.normal(size=8)
        design[7], rhs[7] = design[3], rhs[3]
        assert assert_same_winner(design, rhs) == 3

    def test_near_tie(self):
        rng = np.random.default_rng(8)
        design = rng.normal(size=(10, 8, 3))
        rhs = rng.normal(size=(10, 8))
        base = design[3] @ [1.0, -2.0, 0.5]
        noise = 1e-3 * rng.normal(size=8)
        design[7] = design[3]
        rhs[3], rhs[7] = base + noise * (1 + 1e-12), base + noise
        assert assert_same_winner(design, rhs) in (3, 7)

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_within_rounding(self, seed):
        # The same system with its rows permuted: the residuals agree to rounding, and
        # on about half the seeds QR and SVD order the two points differently.
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(10, 8, 3))
        rhs = rng.normal(size=(10, 8))
        rhs[3] = design[3] @ [1.0, -2.0, 0.5] + 1e-3 * rng.normal(size=8)
        rows = rng.permutation(8)
        design[7], rhs[7] = design[3][rows], rhs[3][rows]
        assert assert_same_winner(design, rhs) in (3, 7)

    def test_one_point_grid(self):
        rng = np.random.default_rng(9)
        assert assert_same_winner(rng.normal(size=(1, 8, 3)), rng.normal(size=(1, 8))) == 0

    def test_one_row_more_than_columns(self):
        rng = np.random.default_rng(10)
        assert_same_winner(rng.normal(size=(30, 4, 3)), rng.normal(size=(30, 4)))

    def test_square_systems_skip_the_screen(self):
        rng = np.random.default_rng(11)
        assert_same_winner(rng.normal(size=(30, 3, 3)), rng.normal(size=(30, 3)))


class TestCheckFinite:
    def test_names_the_first_bad_quote(self):
        p0, cols = np.ones((3, 4)), np.ones((3, 4, 2))
        p0[2, 3] = np.nan
        cols[1, 1, 0] = np.inf
        with pytest.raises(NumericalError, match=r"^non-finite bond greeks for quote q1$"):
            calibration._check_finite(p0, cols, ["q0", "q1", "q2", "q3"], "bond")

    def test_finite_passes(self):
        assert calibration._check_finite(np.ones((3, 4)), np.ones((3, 4, 2)), "abcd", "x") is None


class TestReport:
    def test_report_round_trips_through_model_fit(self, roundtrip_fixture):
        bonds, options = roundtrip_fixture
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        option_fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        report = build_report(
            bond_fit,
            option_fit,
            SURFACE_VASICEK,
            SURFACE_EQUITY,
            "seven_param",
            digests={"bonds": quotes_digest(bonds), "options": quotes_digest(options)},
            config={"l_grid": 96},
        )
        parsed = json.loads(report_json(report))
        fit = ModelFit.from_dict(parsed)
        assert fit.vasicek == SURFACE_VASICEK
        assert fit.credit.l == option_fit.l
        assert fit.coeffs == option_fit.coeffs
        # bare parameter block loads the same way
        assert ModelFit.from_dict(parsed["parameters"]) == fit

    VASICEK = {"alpha": 0.004, "beta": 0.09, "eta": 0.001, "r": 0.05}

    def test_read_block(self):
        assert read_block({"vasicek": self.VASICEK}, "vasicek", VasicekParams) == VasicekParams(
            **self.VASICEK)
        # null stays allowed where the field defaults to None.
        equity = {"x": 8.0, "sigma2": 0.3, "rho1": 0.0, "sigma1": None}
        assert read_block({"equity": equity}, "equity", EquityParams).sigma1 == 0.3

    @pytest.mark.parametrize("params", [
        [], {}, {"vasicek": None}, {"vasicek": list(VASICEK.values())},
        {"vasicek": {"alpha": 0.004, "beta": 0.09, "eta": 0.001}},
        {"vasicek": dict(VASICEK, kappa=1.0)},
        {"vasicek": dict(VASICEK, alpha="0.004")},
        {"vasicek": dict(VASICEK, r=True)},
        {"vasicek": dict(VASICEK, r=10**400)},
    ], ids=["list", "no-block", "null-block", "list-block", "missing-key", "extra-key",
            "string-value", "boolean-value", "400-digit-integer"])
    def test_read_block_rejects_malformed(self, params):
        with pytest.raises(ValidationError, match="'vasicek'"):
            read_block(params, "vasicek", VasicekParams)

    def test_digest_orders_and_values(self, roundtrip_fixture):
        bonds, _ = roundtrip_fixture
        assert quotes_digest(bonds) != quotes_digest(bonds[::-1])
        assert quotes_digest(bonds) == quotes_digest(list(bonds))
