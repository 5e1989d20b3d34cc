import math
import threading
from dataclasses import replace

import numpy as np
from numpy.polynomial.hermite import hermgauss
import pytest

from credeq.cds import annual_schedule, cds_spread
from credeq.calibration import ModelFit
from credeq.corrections import CorrectionParams
from credeq import oracle_mc
from credeq.errors import ValidationError
from credeq.oracle_mc import (
    FactorSpec,
    McConfig,
    effective_params,
    mc_estimate,
    mc_price,
    simulate_terminals,
)
from credeq.pricing import CreditParams, PricingInputs
from credeq.rates import EquityParams, VasicekParams

from reference_oracles import call_p0, defaultable_bond_p0, put_p0

VA = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476)
EQ = EquityParams(x=8.04, sigma2=0.2576, rho1=-0.25)
CR = CreditParams(l=0.4, lam=0.08)


def constant_cfg(n_paths=100_000, seed=11):
    spec = FactorSpec.constant(sigma=EQ.sigma2, lam=CR.lam, rho1=EQ.rho1)
    return McConfig(n_paths=n_paths, seed=seed, factor_spec=spec)


class TestDegenerateFactors:
    """Constant sigma and intensity: the leading-order forms are exact."""

    def test_call(self):
        pin = PricingInputs(VA, EQ, CR, 0.5, 8.04)
        est, se = mc_price(constant_cfg(), "call", pin)
        assert abs(est - call_p0(pin)) < 3 * se

    def test_put(self):
        pin = PricingInputs(VA, EQ, CR, 0.5, 8.04)
        est, se = mc_price(constant_cfg(), "put", pin)
        assert abs(est - put_p0(pin)) < 3 * se

    def test_bond(self):
        pin = PricingInputs(VA, EQ, CR, 2.0)
        est, se = mc_price(constant_cfg(), "bond", pin)
        assert abs(est - defaultable_bond_p0(pin)) < 3 * se

    def test_deterministic_rate_limit(self):
        # eta = 0 on top of constant factors: closed form is an identity
        va0 = VasicekParams(alpha=0.0063, beta=0.1034, eta=0.0, r=0.0476)
        pin = PricingInputs(va0, EQ, CR, 0.5, 8.0)
        est, se = mc_price(constant_cfg(seed=3), "call", pin)
        assert abs(est - call_p0(pin)) < 3 * se

    def test_cds_legs(self):
        pin = PricingInputs(VA, EQ, CR, 3.0)
        sched = annual_schedule(3.0)
        est, se = mc_price(constant_cfg(n_paths=50_000, seed=5), "cds", pin, sched)
        fit = ModelFit(vasicek=VA, equity=EQ, credit=CR, coeffs=CorrectionParams())
        assert abs(est - cds_spread(fit, sched)) < 3 * se


class TestDeterminism:
    def test_fixed_seed_bit_identical(self):
        pin = PricingInputs(VA, EQ, CR, 0.25, 8.0)
        cfg = McConfig(n_paths=20_000, seed=7, factor_spec=FactorSpec.constant(0.25, 0.05))
        a = mc_price(cfg, "call", pin)
        b = mc_price(cfg, "call", pin)
        assert a == b

    # (estimate, standard error) of the call below, recorded with one exact step per horizon
    # segment: a step dropped or repeated at a chunk boundary moves it.
    MULTI_CHUNK_PINNED = (0.5220603541095186, 0.0016909256083481186)

    def test_multi_chunk_runs_are_reproducible(self):
        # 40k base pairs span several fixed-size chunks with jumped substreams
        pin = PricingInputs(VA, EQ, CR, 0.25, 8.0)
        cfg = McConfig(n_paths=80_000, seed=9, factor_spec=FactorSpec.constant(0.25, 0.05))
        assert mc_price(cfg, "call", pin) == mc_price(cfg, "call", pin) == self.MULTI_CHUNK_PINNED

    def test_seed_changes_the_estimate(self):
        pin = PricingInputs(VA, EQ, CR, 0.25, 8.0)
        cfg_a = McConfig(n_paths=20_000, seed=1, factor_spec=FactorSpec.constant(0.25, 0.05))
        cfg_b = McConfig(n_paths=20_000, seed=2, factor_spec=FactorSpec.constant(0.25, 0.05))
        assert mc_price(cfg_a, "call", pin) != mc_price(cfg_b, "call", pin)

    def test_se_scales_with_path_count(self):
        pin = PricingInputs(VA, EQ, CR, 0.5, 8.04)
        _, se_small = mc_price(constant_cfg(n_paths=20_000, seed=21), "call", pin)
        _, se_big = mc_price(constant_cfg(n_paths=80_000, seed=22), "call", pin)
        ratio = se_small / se_big
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2


class TestLiveFactors:
    """A run steps, and draws noise for, only the factors its payoffs read."""

    PINS = {
        "call": PricingInputs(VA, EQ, CR, 0.5, 8.04),
        "put": PricingInputs(VA, EQ, CR, 0.5, 8.04),
        "bond": PricingInputs(VA, EQ, CR, 2.0),
        "cds": PricingInputs(VA, EQ, CR, 3.0),
    }

    def price(self, spec, instrument, seed=1):
        cfg = McConfig(n_paths=20_000, seed=seed, factor_spec=spec)
        schedule = annual_schedule(3.0) if instrument == "cds" else None
        return mc_price(cfg, instrument, self.PINS[instrument], schedule)

    # (estimate, standard error) at seed 1 and 20,000 paths, recorded with the exact step on
    # live columns, one step per horizon segment. A different stream moves each estimate by
    # about one SE.
    PINNED = {
        "call": (0.8468432565571551, 0.005155961809824414),
        "put": (0.6568054017251909, 0.003343135142291384),
        "bond": (0.8507752356928359, 2.038969414966149e-06),
        "cds": (0.033870189137170804, 1.532071874615883e-07),
    }

    @pytest.mark.parametrize("instrument", sorted(PINNED))
    def test_stream_is_pinned(self, instrument):
        spec = FactorSpec.constant(sigma=EQ.sigma2, lam=CR.lam, rho1=EQ.rho1)
        assert self.price(spec, instrument) == pytest.approx(self.PINNED[instrument], rel=1e-12)

    @pytest.mark.parametrize("instrument", sorted(PINNED))
    def test_constant_factors_ignore_the_steps_per_year(self, instrument):
        # One exact step per horizon segment, whatever n_steps_per_year says.
        spec = FactorSpec.constant(sigma=EQ.sigma2, lam=CR.lam, rho1=EQ.rho1)
        schedule = annual_schedule(3.0) if instrument == "cds" else None
        got = {mc_price(McConfig(n_paths=20_000, n_steps_per_year=n, seed=1, factor_spec=spec),
                        instrument, self.PINS[instrument], schedule)
               for n in (1, 252, 1000)}
        assert got == {self.price(spec, instrument)}

    def test_effective_params_of_constants_are_exact(self):
        spec = FactorSpec.constant(sigma=0.2576, lam=0.08, rho1=-0.25)
        assert effective_params(spec) == (0.2576, 0.2576, 0.08, -0.25)

    def test_stock_only_when_a_strike_is_set(self):
        cfg = constant_cfg(n_paths=10_000)
        assert "x" not in simulate_terminals(cfg, PricingInputs(VA, EQ, CR, 1.0), [0.5, 1.0])
        sim = simulate_terminals(cfg, PricingInputs(VA, EQ, CR, 1.0, 8.0), [0.5, 1.0])
        assert sim["x"].shape == sim["int_r"].shape == (2, 2, 5_000)

    def test_earlier_horizon_equals_its_own_run(self):
        # The [0.5, 1] run starts with the 0.5 run, so its first horizon is that run bit for bit.
        spec = FactorSpec.multiscale(lam=0.06, eps=0.09, dlt=0.09)
        cfg = McConfig(n_paths=10_000, n_steps_per_year=504, seed=42, factor_spec=spec)
        pin = PricingInputs(VA, EQ, CR, 1.0, 8.0)
        both = simulate_terminals(cfg, pin, [0.5, 1.0])
        alone = simulate_terminals(cfg, pin, [0.5])
        for key in ("int_r", "int_lam", "x"):
            np.testing.assert_array_equal(both[key][0], alone[key][0])

    # (estimate, standard error) at seed 1 and 20,000 paths, recorded as PINNED was, with one
    # step length per horizon segment: an option steps X, r, Y and Yt, and Z when dlt > 0; a
    # bond or CDS steps r, Y and Z.
    MULTISCALE_PINNED = {
        ("call", 0.09): (0.6811608484483131, 0.0035288323099840245),
        ("bond", 0.09): (0.8642662688510704, 1.7733510810681725e-05),
        ("cds", 0.09): (0.02499634274336619, 1.0210064477304039e-05),
        ("call", 0.0): (0.6863439045811159, 0.0035166462958560133),
    }

    @pytest.mark.parametrize("instrument, dlt", sorted(MULTISCALE_PINNED))
    def test_multiscale_stream_is_pinned(self, instrument, dlt):
        spec = FactorSpec.multiscale(lam=0.06, eps=0.09, dlt=dlt)
        assert self.price(spec, instrument) == self.MULTISCALE_PINNED[instrument, dlt]

    # A 3-y annual CDS (horizons 1, 2 and 3) at 40,000 paths, two chunks, recorded as
    # TestDeterminism.MULTI_CHUNK_PINNED was.
    TWO_CHUNK_CDS_PINNED = (0.02501924157552722, 7.281356863551771e-06)

    def test_multiscale_multi_horizon_two_chunk_run_is_pinned(self):
        spec = FactorSpec.multiscale(lam=0.06, eps=0.09, dlt=0.09)
        cfg = McConfig(n_paths=40_000, seed=1, factor_spec=spec)
        got = mc_price(cfg, "cds", self.PINS["cds"], annual_schedule(3.0))
        assert got == self.TWO_CHUNK_CDS_PINNED

    @pytest.mark.parametrize("eps", [0.25, 0.09, 0.01])
    def test_multiscale_effective_params_are_pinned(self, eps):
        # The criterion-9 specs, recorded as for MULTISCALE_PINNED: the averages do not read eps.
        assert effective_params(FactorSpec.multiscale(lam=0.06, eps=eps, dlt=eps)) == (
            0.2, 0.20429185356818252, 0.06000000000000001, -0.19579831158881714)


class TestSharedRun:
    """``mc_estimate`` prices several payoffs from one ``simulate_terminals`` run."""

    SPECS = {
        "constant": FactorSpec.constant(sigma=EQ.sigma2, lam=CR.lam, rho1=EQ.rho1),
        "multiscale": FactorSpec.multiscale(lam=0.06, eps=0.09, dlt=0.09),
    }

    @pytest.mark.parametrize("model", sorted(SPECS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_call_and_put_from_one_run_equal_separate_runs(self, model, seed):
        cfg = McConfig(n_paths=10_000, seed=seed, factor_spec=self.SPECS[model])
        pin = PricingInputs(VA, EQ, CR, 0.5, 8.04)
        sim = simulate_terminals(cfg, pin, [pin.tau])
        for instrument in ("call", "put"):
            assert mc_estimate(instrument, sim, pin) == mc_price(cfg, instrument, pin)

    @pytest.mark.parametrize("model", sorted(SPECS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bonds_at_two_horizons_from_one_run(self, model, seed):
        cfg = McConfig(n_paths=10_000, seed=seed, factor_spec=self.SPECS[model])
        short, long_ = PricingInputs(VA, EQ, CR, 0.5), PricingInputs(VA, EQ, CR, 2.0)
        both = simulate_terminals(cfg, long_, [0.5, 2.0])
        # The (0.5, 2) run starts with the 0.5-y run, so that bond is its own run bit for bit.
        assert mc_estimate("bond", both, short) == mc_price(cfg, "bond", short)
        alone = simulate_terminals(cfg, long_, [2.0])
        got, own = mc_estimate("bond", both, long_), mc_estimate("bond", alone, long_)
        assert own == mc_price(cfg, "bond", long_)
        if model == "multiscale":
            # 0.5/126, 1.5/378 and the 2-y run's 2/504 all round to the one 1/252: the same
            # steps on the same draws.
            for key in ("int_r", "int_lam"):
                assert np.array_equal(both[key][1], alone[key][0])
            assert got == own
        else:
            # Steps of 0.5 and 1.5 y against one of 2 y: two exact draws of the same law.
            assert not np.array_equal(both["int_r"][1], alone["int_r"][0])
            closed = defaultable_bond_p0(long_)
            for est, se in (got, own):
                assert abs(est - closed) < 3 * se, (est, closed, se)

    def test_annual_schedule_run_prices_3y_payoffs_of_their_own_runs(self):
        # Each annual segment is 252 steps of 1/252 y, as are the 3-y run's 756 steps, so the
        # 3-y bond and the 1..3-y CDS of one run to 1..5 y are their own runs bit for bit.
        cfg = McConfig(n_paths=10_000, seed=1, factor_spec=self.SPECS["multiscale"])
        pin, schedule = PricingInputs(VA, EQ, CR, 3.0), annual_schedule(3.0)
        sim = simulate_terminals(cfg, pin, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert mc_estimate("bond", sim, pin) == mc_price(cfg, "bond", pin)
        assert mc_estimate("cds", sim, pin, schedule) == mc_price(cfg, "cds", pin, schedule)

    @pytest.mark.parametrize("instrument", ["call", "put", "bond", "cds"])
    def test_estimates_are_python_floats(self, instrument):
        schedule = annual_schedule(3.0) if instrument == "cds" else None
        pin = PricingInputs(VA, EQ, CR, 3.0, 8.0 if instrument in ("call", "put") else None)
        est, se = mc_price(constant_cfg(n_paths=10_000), instrument, pin, schedule)
        assert type(est) is float and type(se) is float

    @pytest.mark.parametrize("instrument", ["bond", "cds"])
    def test_strike_on_a_bond_or_cds_simulates_no_stock(self, monkeypatch, instrument):
        runs, simulate = [], oracle_mc.simulate_terminals

        def recording(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(oracle_mc, "simulate_terminals", recording)
        schedule = annual_schedule(3.0) if instrument == "cds" else None
        cfg = constant_cfg(n_paths=10_000, seed=4)
        plain = mc_price(cfg, instrument, PricingInputs(VA, EQ, CR, 3.0), schedule)
        struck = mc_price(cfg, instrument, PricingInputs(VA, EQ, CR, 3.0, 8.0), schedule)
        assert struck == plain
        assert ["x" in run for run in runs] == [False, False]

    @pytest.mark.parametrize("instrument, pin, schedule, match", [
        ("bond", PricingInputs(VA, EQ, CR, 2.0), None, "horizon"),
        ("cds", PricingInputs(VA, EQ, CR, 2.0), annual_schedule(2.0), "horizon"),
        ("call", PricingInputs(VA, EQ, CR, 1.0, 8.0), None, "stock"),
        ("call", PricingInputs(VA, EQ, CR, 1.0), None, "strike"),
        ("swap", PricingInputs(VA, EQ, CR, 1.0), None, "unknown"),
        ("bond", PricingInputs(replace(VA, r=0.05), EQ, CR, 1.0), None, "vasicek"),
        ("bond", PricingInputs(VA, replace(EQ, x=9.0), CR, 1.0), None, "equity"),
    ])
    def test_estimate_rejects_what_the_run_cannot_price(self, instrument, pin, schedule, match):
        sim = simulate_terminals(constant_cfg(n_paths=10_000), PricingInputs(VA, EQ, CR, 1.0),
                                 [0.5, 1.0])
        with pytest.raises(ValidationError, match=match):
            mc_estimate(instrument, sim, pin, schedule)


class TestExactStep:
    """Each step draws r, int r, Y, Z and the OU part of Yt from their exact joint law."""

    def test_one_step_a_year_is_exact(self):
        # Under constant factors the step is exact at any length, so a 2-y bond and a 1-y
        # call each take one step, at any n_steps_per_year, and leave only the sampling error.
        cfg = McConfig(n_paths=200_000, n_steps_per_year=1, seed=11,
                       factor_spec=FactorSpec.constant(sigma=EQ.sigma2, lam=CR.lam, rho1=EQ.rho1))
        bond, call = PricingInputs(VA, EQ, CR, 2.0), PricingInputs(VA, EQ, CR, 1.0, 8.04)
        for instrument, pin, closed in (("bond", bond, defaultable_bond_p0(bond)),
                                        ("call", call, call_p0(call))):
            est, se = mc_price(cfg, instrument, pin)
            assert abs(est - closed) < 3 * se, (instrument, est, closed, se)

    # Fixed before the first run: the helper loses about max(beta h, h / eps) ulps (at most
    # 1e3 here, 2.2e-13) in psi and in the B^2 term, its phi series are cut below 1e-18,
    # and quad is asked for 1e-13; 1e-12 is three times their sum.
    COV_RTOL = 1e-12

    @staticmethod
    def kernel(kappa, integrated):
        if integrated:
            return lambda u: -math.expm1(-kappa * u) / kappa
        return lambda u: math.exp(-kappa * u)

    def assert_cov_matches_quad(self, h, spec, va, corr):
        """Every entry of an option's step covariance against ``scipy.integrate.quad``."""
        from scipy.integrate import quad

        kernels = [kernel for _, kernel in oracle_mc._noise_columns(spec, va, True).values()]
        cov = oracle_mc._step_cov(h, kernels, corr)
        ref = np.empty_like(cov)
        for j, (wj, kj) in enumerate(kernels):
            for k, (wk, kk) in enumerate(kernels):
                aj, ak = self.kernel(*kj), self.kernel(*kk)
                overlap = quad(lambda u: aj(u) * ak(u), 0.0, h, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0]
                ref[j, k] = corr[wj][wk] * overlap
        # Each entry against the size a correlation of one would give it.
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(cov - ref) <= self.COV_RTOL * scale), (va.beta, h, spec)

    def test_step_covariance_matches_quadrature(self):
        # The multiscale columns of an option hold every pair of kernels: 1 (stock),
        # e^{-beta u} (r), B(u) (int r), e^{-u/eps} (Y, Yt) and e^{-dlt u} (Z).
        rng = np.random.default_rng(16)
        for _ in range(60):
            beta, eps = np.exp(rng.uniform(np.log([1e-8, 1e-3]), np.log([5.0, 1.0])))
            h, dlt = rng.uniform(1e-4, 1.0), rng.uniform(0.0, 1.0)
            va = VasicekParams(alpha=0.01, beta=beta, eta=0.02, r=0.04)
            spec = FactorSpec.multiscale(lam=0.05, eps=eps, dlt=dlt)
            self.assert_cov_matches_quad(h, spec, va, oracle_mc._MULTISCALE_CORR)

    def test_long_step_covariance_matches_quadrature(self):
        # The single steps of constant factors: the (x, r, int r) columns of an option over
        # one horizon segment of up to 30 y.
        rng = np.random.default_rng(18)
        for _ in range(60):
            beta, h = np.exp(rng.uniform(np.log([1e-8, 1e-2]), np.log([5.0, 30.0])))
            rho1 = rng.uniform(-0.95, 0.95)
            va = VasicekParams(alpha=0.01, beta=beta, eta=0.02, r=0.04)
            spec = FactorSpec.constant(sigma=0.2, lam=0.05, rho1=rho1)
            self.assert_cov_matches_quad(h, spec, va, ((1.0, rho1), (rho1, 1.0)))

    def test_a_run_starts_no_thread(self, monkeypatch):
        counts, intensity = [], oracle_mc._intensity

        def counting(*args):
            counts.append(threading.active_count())
            return intensity(*args)

        monkeypatch.setattr(oracle_mc, "_intensity", counting)
        before = threading.enumerate()
        cfg = McConfig(n_paths=40_000, seed=3, factor_spec=FactorSpec.multiscale(0.06, 0.09, 0.09))
        simulate_terminals(cfg, PricingInputs(VA, EQ, CR, 0.5, 8.0), [0.5])
        assert threading.enumerate() == before
        assert counts and set(counts) == {len(before)}


class TestTimeGrid:
    MULTISCALE = McConfig(n_paths=10_000, seed=0, factor_spec=FactorSpec.multiscale(0.06, 0.09, 0))

    def test_single_horizon_takes_rounded_steps(self):
        # Exactly round(h * 252) steps, with no extra step for a remainder of rounding.
        for i in range(1, 500):
            h = i / 100
            assert oracle_mc.grid_steps(self.MULTISCALE, [h]) == round(h * 252), h

    def test_grid_ends_each_segment_on_its_horizon(self):
        # n steps of (h - prev) / n cover each segment to rounding: two roundings of half an ulp.
        horizons = [0.25 * m for m in range(1, 9)] + [3.91, 5.0]
        segments = oracle_mc._segments(self.MULTISCALE, horizons)
        assert sum(n for n, _ in segments) == oracle_mc.grid_steps(self.MULTISCALE, horizons)
        for prev, h, (n, dt) in zip([0.0] + horizons, horizons, segments):
            assert n == max(1, round((h - prev) * 252)), h
            assert n * dt == pytest.approx(h - prev, rel=2 * np.finfo(float).eps, abs=0), h

    def test_lattice_segments_share_one_step_length(self):
        # Segments that are whole numbers of 1/252 y step by the one rounded 1/252, whatever
        # horizon they end on.
        segments = oracle_mc._segments(self.MULTISCALE, [0.5, 2.0, 3.0, 5.0])
        assert segments == [(126, 1 / 252), (378, 1 / 252), (252, 1 / 252), (504, 1 / 252)]

    @pytest.mark.parametrize("steps_per_year", [1, 252, 1000])
    def test_constant_factors_step_once_per_segment(self, steps_per_year):
        cfg = McConfig(n_paths=10_000, n_steps_per_year=steps_per_year,
                       factor_spec=FactorSpec.constant(0.2, 0.05))
        horizons = [0.1, 0.25, 1.0, 30.0]
        assert oracle_mc._segments(cfg, horizons) == [
            (1, 0.1), (1, 0.25 - 0.1), (1, 1.0 - 0.25), (1, 30.0 - 1.0)]
        assert oracle_mc.grid_steps(cfg, horizons[::-1]) == 4


class TestMultiscale:
    def test_martingale_property(self):
        # discounted pre-default stock with full-intensity weighting
        spec = FactorSpec.multiscale(lam=0.06, eps=0.09, dlt=0.09)
        cfg = McConfig(n_paths=100_000, seed=31, factor_spec=spec)
        pin = PricingInputs(VA, EQ, CreditParams(l=1.0, lam=0.06), 1.0, 8.0)
        sim = simulate_terminals(cfg, pin, [1.0])
        vals = np.exp(-sim["int_r"][0] - sim["int_lam"][0]) * sim["x"][0]
        pair = 0.5 * (vals[0] + vals[1])
        est = pair.mean()
        se = pair.std(ddof=1) / np.sqrt(pair.size)
        assert abs(est - EQ.x) < 3 * se

    def test_effective_params_match_quadrature_targets(self):
        spec = FactorSpec.multiscale(lam=0.05, eps=0.04, dlt=0.04)
        sigma1, sigma2, lam, rho_eff = effective_params(spec)
        assert lam == pytest.approx(0.05, rel=1e-10)
        assert sigma1 == pytest.approx(0.2, abs=1e-9)  # tanh averages to zero
        assert sigma2 > sigma1  # Jensen
        rho1 = oracle_mc._MULTISCALE_CORR[0][1]
        assert rho_eff == pytest.approx(rho1 * sigma1 / sigma2, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 128, 201])
    def test_hermite_nodes_match_scipy(self, n):
        # Measured before NumPy's nodes replaced scipy's: nodes within 8.4e-15
        # absolute (n = 201), weights within 7.2e-13 relative (n = 128).
        # The oracle takes NumPy's at 201 nodes.
        from scipy.special import roots_hermite

        t_ref, w_ref = roots_hermite(n)
        t, w = oracle_mc._hermite_nodes() if n == oracle_mc._HERMITE_NODES else hermgauss(n)
        np.testing.assert_allclose(t, t_ref, rtol=0, atol=2e-14)
        np.testing.assert_allclose(w, w_ref, rtol=2e-12, atol=0)

    def test_effective_params_match_scipy_nodes(self, monkeypatch):
        # The criterion-9 specs; measured at most 2 ulps (2.3e-16) apart.
        from scipy.special import roots_hermite

        def params():
            return [effective_params(FactorSpec.multiscale(lam=0.06, eps=e, dlt=e))
                    for e in (0.25, 0.09, 0.01)]

        ours = params()
        monkeypatch.setattr(oracle_mc, "_hermite_nodes",
                            lambda: roots_hermite(oracle_mc._HERMITE_NODES))
        for got, ref in zip(ours, params()):
            assert got == pytest.approx(ref, rel=1e-15, abs=0)

    def test_fast_average_intensity_realized(self):
        # time average of f(Y, Z) over a long horizon approaches lam
        spec = FactorSpec.multiscale(lam=0.06, eps=0.01, dlt=0.0)
        cfg = McConfig(n_paths=20_000, n_steps_per_year=504, seed=41, factor_spec=spec)
        pin = PricingInputs(VA, EQ, CreditParams(l=1.0, lam=0.06), 2.0, 8.0)
        sim = simulate_terminals(cfg, pin, [2.0])
        mean_intensity = sim["int_lam"][0].mean() / 2.0
        assert mean_intensity == pytest.approx(0.06, rel=0.05)


class TestValidation:
    def test_non_psd_correlations_rejected(self):
        # rho1 is the one correlation a caller sets; at |rho1| >= 1 (or NaN) the 5x5
        # correlation matrix has no Cholesky factor.
        for rho1 in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValidationError, match="rho1"):
                FactorSpec.constant(sigma=0.2, lam=0.05, rho1=rho1)

    @pytest.mark.parametrize("eps, dlt", [(math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0),
                                          (0.1, math.nan), (0.1, math.inf), (0.1, -0.1)])
    def test_bad_factor_scales_rejected(self, eps, dlt):
        with pytest.raises(ValidationError, match="eps"):
            FactorSpec.multiscale(lam=0.05, eps=eps, dlt=dlt)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(sigma=math.nan), "sigma"), (dict(sigma=math.inf), "sigma"),
        (dict(sigma=0.0), "sigma"), (dict(sigma=-0.2), "sigma"),
        (dict(lam=math.nan), "lam"), (dict(lam=math.inf), "lam"), (dict(lam=-1.0), "lam"),
        (dict(rho1=math.nan), "rho1"), (dict(rho1=-1.0), "rho1"),
    ])
    def test_bad_constant_numbers_rejected(self, kwargs, name):
        with pytest.raises(ValidationError, match=name):
            FactorSpec.constant(**{"sigma": 0.2, "lam": 0.05, "rho1": -0.25, **kwargs})

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.01])
    def test_bad_multiscale_intensity_rejected(self, lam):
        with pytest.raises(ValidationError, match="lam"):
            FactorSpec.multiscale(lam=lam, eps=0.09, dlt=0.09)

    @pytest.mark.parametrize("kwargs", [
        dict(sigma=0.2, rho1=0.0, eps=0.1, dlt=0.1), dict(sigma=0.2, eps=0.1, dlt=0.1),
        dict(sigma=0.2), dict(eps=0.1), dict(),
    ])
    def test_numbers_of_one_model_only(self, kwargs):
        with pytest.raises(ValidationError, match="sigma and rho1"):
            FactorSpec(lam=0.05, **kwargs)

    def test_path_count_floor(self):
        with pytest.raises(ValidationError):
            McConfig(n_paths=5_000, factor_spec=FactorSpec.constant(0.2, 0.05))

    def test_odd_path_count_rejected(self):
        with pytest.raises(ValidationError):
            McConfig(n_paths=10_001, factor_spec=FactorSpec.constant(0.2, 0.05))

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_paths=20_000.0), "n_paths"), (dict(n_paths=np.int64(20_000)), "n_paths"),
        (dict(n_steps_per_year=252.0), "n_steps_per_year"),
        (dict(n_steps_per_year=True), "n_steps_per_year"), (dict(seed=1.0), "seed"),
        (dict(seed=False), "seed"), (dict(seed=None), "seed"), (dict(seed=-1), "seed"),
    ])
    def test_integers_are_validated(self, kwargs, name):
        with pytest.raises(ValidationError, match=name):
            McConfig(**{"n_paths": 20_000, "factor_spec": FactorSpec.constant(0.2, 0.05),
                        **kwargs})

    def test_factor_spec_is_a_required_keyword(self):
        spec = FactorSpec.constant(0.2, 0.05)
        with pytest.raises(TypeError):
            McConfig(n_paths=20_000)
        with pytest.raises(TypeError):
            McConfig(20_000, 252, 0, spec)

    @pytest.mark.parametrize(
        "horizons", [[1.0, 1.0], [0.5, 1.0, 0.5], [math.inf], [math.nan], [0.0], []]
    )
    def test_bad_horizons_rejected(self, horizons):
        # A repeated horizon would leave one output slot unwritten.
        pin = PricingInputs(VA, EQ, CR, 1.0)
        with pytest.raises(ValidationError, match="horizons"):
            simulate_terminals(constant_cfg(n_paths=10_000), pin, horizons)

    @pytest.mark.parametrize("n_paths, steps_per_year, eps, horizons", [
        (100_000, 10**9, 0.1, [10.0]),  # 10^15 path-steps
        (10**12, 252, None, [1.0]),  # 10^12 path-steps, 8 TB of results
        (20_000, 252, None, [float(t) for t in range(1, 5_002)]),  # 1.0002e8 stored values
        (10_000, 10**400, 0.1, [1.0]),  # a step count past the float range
        (10_000, 252, 0.1, [1e308]),  # likewise: round(inf) raises OverflowError
        (10**400, 10**400, 0.1, [1.0]),  # and with a path count past the float range
    ], ids=["steps", "paths", "horizons", "steps-overflow-int", "steps-overflow-float",
            "paths-and-steps-overflow"])
    def test_outside_the_domain_rejected(self, n_paths, steps_per_year, eps, horizons):
        spec = FactorSpec.constant(0.2, 0.05) if eps is None else FactorSpec.multiscale(
            0.05, eps, 0.0)
        cfg = McConfig(n_paths=n_paths, n_steps_per_year=steps_per_year, factor_spec=spec)
        with pytest.raises(ValidationError, match="oracle's domain"):
            simulate_terminals(cfg, PricingInputs(VA, EQ, CR, 1.0), horizons)

    def test_domain_bound_is_inclusive(self, monkeypatch):
        # 10^5 paths of 10^5 steps: exactly MAX_PATH_STEPS, accepted (the chunks are not run).
        monkeypatch.setattr(oracle_mc, "_simulate_chunk", lambda *args: None)
        cfg = McConfig(n_paths=100_000, n_steps_per_year=100_000,
                       factor_spec=FactorSpec.multiscale(0.05, 0.1, 0.0))
        assert cfg.n_paths * oracle_mc.grid_steps(cfg, [1.0]) == oracle_mc.MAX_PATH_STEPS
        simulate_terminals(cfg, PricingInputs(VA, EQ, CR, 1.0), [1.0])

    @pytest.mark.parametrize("steps_per_year", [252, 1000])
    def test_eps_far_below_the_time_step_runs(self, steps_per_year):
        # Y and Yt step exactly, so eps = dt / 4 is a finite estimate; their Euler step
        # y + (m - y) dt/eps diverged once dt >= 2 eps.
        spec = FactorSpec.multiscale(lam=0.05, eps=0.25 / steps_per_year, dlt=0.0)
        cfg = McConfig(n_paths=10_000, n_steps_per_year=steps_per_year, seed=3,
                       factor_spec=spec)
        for instrument, pin in (("bond", PricingInputs(VA, EQ, CR, 1.0)),
                                ("call", PricingInputs(VA, EQ, CR, 1.0, 8.0))):
            est, se = mc_price(cfg, instrument, pin)
            assert math.isfinite(est) and se > 0, instrument

    def test_cds_needs_schedule(self):
        pin = PricingInputs(VA, EQ, CR, 3.0)
        with pytest.raises(ValidationError):
            mc_price(constant_cfg(n_paths=10_000), "cds", pin)
