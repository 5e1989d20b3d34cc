"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
pinned here; nothing defers to later calibration. The Monte-Carlo
criteria (4 and 9) dominate the runtime (a few minutes total).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from credeq.calibration import ModelFit, fit_bonds, fit_options
from credeq.cds import annual_schedule, cds_spread, cds_term_structure
from credeq.corrections import CorrectionParams, _evaluate, price_full
from credeq.implied_vol import bs_price, implied_vol
from credeq.oracle_mc import FactorSpec, McConfig, effective_params, mc_estimate, simulate_terminals
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import EquityParams, VasicekParams, riskless_bond, vasicek_factors, vasicek_yield

from conftest import (
    CDS_SET_A,
    CDS_SET_B,
    CDS_SET_C,
    ROUNDTRIP_GRID,
    SURFACE_COEFFS,
    SURFACE_EQUITY,
    SURFACE_LAMBDA,
    SURFACE_VASICEK,
    TRUE_LAMBDA,
    TRUE_LOSS,
    greeks,
    make_bond_quotes,
    make_option_quotes,
)
from reference_oracles import call_p0, defaultable_bond_p0, greeks_fd, put_p0, variance_v


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def random_wide_inputs(rng, with_strike=True):
    va = VasicekParams(
        alpha=rng.uniform(-0.05, 0.05),
        beta=rng.uniform(0.02, 1.5),
        eta=rng.uniform(0.0, 0.08),
        r=rng.uniform(0.0, 0.10),
    )
    eq = EquityParams(
        x=rng.uniform(1, 200), sigma2=rng.uniform(0.08, 0.9), rho1=rng.uniform(-0.9, 0.9)
    )
    cr = CreditParams(l=1.0, lam=rng.uniform(0, 1.0))
    tau = rng.uniform(0.02, 10)
    strike = eq.x * rng.uniform(0.3, 2.5) if with_strike else None
    return PricingInputs(va, eq, cr, tau, strike)


def test_criterion_1_put_call_parity():
    with criterion(1, "put-call parity to 1e-12 on 500 random points, under 1s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(500):
            pin = random_wide_inputs(rng)
            lhs = call_p0(pin) - put_p0(pin)
            rhs = pin.equity.x - pin.strike * riskless_bond(pin.vasicek, pin.tau)
            assert abs(lhs - rhs) <= 1e-12 * pin.equity.x
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"parity sweep took {elapsed:.2f}s"


def test_criterion_2_variance_consistency():
    with criterion(2, "variance equals its quadrature to 1e-10; exactly 0 at tau=0"):
        pin0 = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, CreditParams(1, 0.1), 0.0)
        assert variance_v(pin0) == 0.0
        rng = np.random.default_rng(102)
        for _ in range(200):
            va = VasicekParams(
                alpha=rng.uniform(-0.05, 0.05),
                beta=rng.uniform(0.02, 1.5),
                eta=rng.uniform(0.0, 0.08),
                r=0.05,
            )
            eq = EquityParams(
                x=10.0, sigma2=rng.uniform(0.08, 0.9), rho1=rng.uniform(-0.9, 0.9)
            )
            tau = rng.uniform(0.05, 10)
            pin = PricingInputs(va, eq, CreditParams(1, 0.1), tau)
            ref, _ = quad(
                lambda s: eq.sigma2**2
                + (va.eta * vasicek_factors(va.beta, s)[0]) ** 2
                + 2 * eq.rho1 * eq.sigma2 * va.eta * vasicek_factors(va.beta, s)[0],
                0,
                tau,
                epsabs=1e-14,
                epsrel=1e-13,
                limit=200,
            )
            assert abs(variance_v(pin) - ref) <= 1e-10


def test_criterion_3_greek_correctness():
    with criterion(3, "greeks match Richardson differences to 1e-5; rate identity to 1e-9"):
        rng = np.random.default_rng(103)
        for _ in range(200):
            va = VasicekParams(
                alpha=rng.uniform(-0.03, 0.05),
                beta=rng.uniform(0.05, 1.0),
                eta=rng.uniform(0.006, 0.05),
                r=rng.uniform(0.0, 0.08),
            )
            eq = EquityParams(
                x=rng.uniform(2, 150),
                sigma2=rng.uniform(0.15, 0.6),
                rho1=rng.uniform(-0.8, 0.8),
            )
            cr = CreditParams(l=rng.uniform(0, 1), lam=rng.uniform(0, 0.2))
            pin = PricingInputs(
                va, eq, cr, rng.uniform(0.25, 3), eq.x * rng.uniform(0.75, 1.35)
            )
            for kind in ("call", "put", "bond"):
                analytic = greeks(pin, kind)
                fd = greeks_fd(pin, kind)
                scale = max(abs(t) for t in fd)
                for a, f in zip(analytic, fd):
                    # components near a zero crossing are measured against
                    # the vector scale, where the FD oracle is noise-limited
                    assert abs(a - f) <= 1e-5 * max(abs(f), 5e-3 * scale)
                p0, (x_dpdx, dp_da, dp_dr), _ = _evaluate(pin, kind)
                lhs = -dp_da
                rhs = (-pin.tau * (x_dpdx - p0) + dp_dr) / va.beta
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_criterion_4_oracle_equivalence():
    label = "million-path simulation within 3 standard errors of closed forms"
    with criterion(4, label):
        va = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
        eq = EquityParams(x=8.04, sigma2=0.2576, rho1=-0.25)
        cr = CreditParams(l=0.4, lam=0.08)
        spec = FactorSpec.constant(sigma=eq.sigma2, lam=cr.lam, rho1=eq.rho1)
        cfg = McConfig(n_paths=1_000_000, seed=2024, factor_spec=spec)
        pin_opt = PricingInputs(va, eq, cr, 0.5, 8.04)
        pin_bond = PricingInputs(va, eq, cr, 2.0)
        closed = {"call": call_p0(pin_opt), "put": put_p0(pin_opt),
                  "bond": defaultable_bond_p0(pin_bond)}
        # the call and the put read one 0.5-y simulation; the bond runs its own to 2 y
        for names, pin in ((("call", "put"), pin_opt), (("bond",), pin_bond)):
            start = time.perf_counter()
            sim = simulate_terminals(cfg, pin, [pin.tau])
            for name in names:
                est, se = mc_estimate(name, sim, pin)
                assert abs(est - closed[name]) < 3 * se, (name, est, closed[name], se)
            elapsed = time.perf_counter() - start
            assert elapsed < 120, f"{names} took {elapsed:.0f}s"


def test_criterion_5_calibration_round_trip():
    label = "round trip recovers the coefficient vector (1e-8) and products (1e-10)"
    with criterion(5, label):
        start = time.perf_counter()
        credit = CreditParams(l=TRUE_LOSS, lam=TRUE_LAMBDA)
        bonds = make_bond_quotes(SURFACE_VASICEK, credit, SURFACE_COEFFS)
        assert len(bonds) == 15
        options = make_option_quotes(
            SURFACE_VASICEK, SURFACE_EQUITY, TRUE_LAMBDA, SURFACE_COEFFS,
            ROUNDTRIP_GRID, skip_nonpositive=True,
        )
        assert len(options) >= 20
        bond_fit = fit_bonds(bonds, SURFACE_VASICEK)
        assert abs(bond_fit.l_v3 - TRUE_LOSS * SURFACE_COEFFS.v3) <= 1e-10
        assert abs(bond_fit.l_w2 - TRUE_LOSS * SURFACE_COEFFS.w2) <= 1e-10
        # grid spacings: 1/200 for the intensity product, 0.01 for the loss rate
        assert abs(bond_fit.l_lambda - TRUE_LOSS * TRUE_LAMBDA) <= 0.005
        fit = fit_options(options, bond_fit, SURFACE_VASICEK, SURFACE_EQUITY)
        assert abs(fit.l - TRUE_LOSS) <= 0.01
        for name in ("v1", "v2", "v4", "v5", "v6", "w1"):
            assert abs(getattr(fit.coeffs, name) - getattr(SURFACE_COEFFS, name)) <= 1e-8, name
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"round trip took {elapsed:.1f}s"


def test_criterion_6_cds_correctness():
    with criterion(6, "cds: exact zero at l=0, credit triangle, quadrature oracle, 3 curves"):
        plain = VasicekParams(alpha=0.004, beta=0.09, eta=0.001, r=0.05)
        eq = SURFACE_EQUITY

        fit0 = ModelFit(plain, eq, CreditParams(l=0.0, lam=0.05),
                        CorrectionParams(v3=0.02, w2=0.003))
        assert cds_spread(fit0, annual_schedule(5.0)) == 0.0

        fit1 = ModelFit(plain, eq, CreditParams(l=0.4, lam=0.08), CorrectionParams())
        spread = cds_spread(fit1, annual_schedule(0.01, 0.01))
        assert abs(spread - 0.4 * 0.08) / (0.4 * 0.08) < 0.01

        det = VasicekParams(alpha=0.0045, beta=0.0983, eta=0.0, r=0.0516)
        l, lam = 0.283, 0.0459
        fit2 = ModelFit(det, eq, CreditParams(l=l, lam=lam), CorrectionParams())

        def disc(t):
            val, _ = quad(
                lambda s: det.r * math.exp(-det.beta * s)
                + det.alpha / det.beta * (1 - math.exp(-det.beta * s)),
                0,
                t,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            return math.exp(-val)

        for t_mat in (1.0, 5.0, 10.0):
            sched = annual_schedule(t_mat)
            oracle = (disc(t_mat) * (1 - math.exp(-l * lam * t_mat))) / sum(
                disc(t) * math.exp(-lam * t) for t in sched.payment_times
            )
            assert abs(cds_spread(fit2, sched) - oracle) <= 1e-6

        for params in (CDS_SET_A, CDS_SET_B, CDS_SET_C):
            fit = ModelFit(params["vasicek"], eq, params["credit"], params["coeffs"])
            curve = cds_term_structure(fit, range(1, 11))
            spreads = np.asarray([s for _, s in curve])
            assert np.isfinite(spreads).all() and (spreads > 0).all()


def test_criterion_7_index_variant_equivalence():
    with criterion(7, "index variant bitwise equals restricted full variant on 100 points"):
        coeffs = CorrectionParams(v1=4e-4, v2=-6e-5, v4=2e-5, v5=-8e-4, v6=3e-4)
        va = VasicekParams(alpha=0.0078, beta=0.1173, eta=0.0241, r=0.0476)
        eq = EquityParams(x=1507.67, sigma2=0.1124, rho1=0.020454, q=0.0190422)
        rng = np.random.default_rng(107)
        for _ in range(100):
            pin = PricingInputs(
                va, eq, CreditParams(l=1.0, lam=0.0),
                rng.uniform(0.1, 2.0), eq.x * rng.uniform(0.8, 1.2),
            )
            kind = "call" if rng.random() < 0.5 else "put"
            a = price_full(pin, coeffs, kind, variant="index")
            b = price_full(pin, coeffs, kind, variant="seven_param")
            assert a == b


def test_criterion_8_implied_vol_round_trip_and_skew():
    with criterion(8, "vol inversion identity to 1e-8; persistent negative skew"):
        for vol in np.linspace(0.01, 3.0, 25):
            price = bs_price(100, 100, 0.75, 0.04, float(vol), "call")
            assert implied_vol(price, 100, 100, 0.75, 0.04, "call") == pytest.approx(
                float(vol), abs=1e-8
            )
        # leading-order surface at the calibrated single-name parameters;
        # the default intensity alone produces the skew
        cr = CreditParams(l=1.0, lam=SURFACE_LAMBDA)
        zero = CorrectionParams()
        for tau in (0.25, 0.5, 1.0, 2.0):
            rate = vasicek_yield(SURFACE_VASICEK, tau)
            vols = {}
            for m in (0.85, 1.0):
                strike = m * SURFACE_EQUITY.x
                pin = PricingInputs(SURFACE_VASICEK, SURFACE_EQUITY, cr, tau, strike)
                price = price_full(pin, zero, "call")
                vols[m] = implied_vol(price, SURFACE_EQUITY.x, strike, tau, rate, "call")
            assert vols[1.0] - vols[0.85] < 0, f"no skew at tau={tau}"


def test_criterion_9_convergence_study():
    label = "multiscale residual after coefficient regression shrinks with the scales"
    with criterion(9, label):
        va = VasicekParams(alpha=0.01, beta=0.5, eta=0.02, r=0.04)
        strikes = (0.85, 0.95, 1.0, 1.05, 1.15)
        taus = (0.5, 1.0)
        residuals = []
        for eps in (0.25, 0.09, 0.01):
            spec = FactorSpec.multiscale(lam=0.06, eps=eps, dlt=eps)
            sigma1, sigma2, lam, rho_eff = effective_params(spec)
            eq = EquityParams(x=1.0, sigma2=sigma2, rho1=rho_eff, sigma1=sigma1)
            cr = CreditParams(l=1.0, lam=lam)
            cfg = McConfig(
                n_paths=200_000, n_steps_per_year=504, seed=42, factor_spec=spec
            )
            mc_vals, p0_vals, rows = [], [], []
            # one simulation per eps serves both maturities
            sim = simulate_terminals(cfg, PricingInputs(va, eq, cr, max(taus), strike=1.0), taus)
            for tau in taus:
                for m in strikes:
                    pin_k = PricingInputs(va, eq, cr, tau, strike=m)
                    mc_vals.append(mc_estimate("call", sim, pin_k)[0])
                    p0_vals.append(call_p0(pin_k))
                    rows.append(greeks(pin_k, "call"))
            design = np.asarray(rows)
            rhs = np.asarray(mc_vals) - np.asarray(p0_vals)
            theta, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            residuals.append(float(np.abs(rhs - design @ theta).max()))
        assert residuals[0] > residuals[1] > residuals[2], residuals
