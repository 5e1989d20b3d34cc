"""Full-model Monte-Carlo pricer used to validate the asymptotic formulas.

Simulates the five-factor system under the pricing measure:

    dr  = (alpha - beta r) dt + eta dW1
    dY  = (1/eps)(m - Y) dt + nu*sqrt(2/eps) dW2          (fast intensity)
    dZ  = dlt*c(Z) dt + sqrt(dlt)*g(Z) dW3                (slow intensity)
    dYt = [(1/eps)(mt - Yt) - nut*sqrt(2/eps)*L(Yt)] dt
          + nut*sqrt(2/eps) dW4                           (fast volatility)
    dX  = (r + f(Y, Z) - q) X dt + sigma(Yt) X dW0

Default enters through survival-probability weighting: every payoff is
discounted by exp(-int (r + l*f(Y,Z)) ds) instead of sampling the default
time, which is exact for a doubly stochastic default and cuts variance.

Two models fill in sigma, f, L, c, g and the correlations (``FactorSpec``).
Constant factors (``FactorSpec.constant``) take sigma and f = lam as
numbers and correlate only W0 and W1, by rho1; every correction vanishes,
so the leading-order closed forms are exact. Multiscale factors
(``FactorSpec.multiscale``) are one bounded, smooth choice: sigma(yt) =
0.2 + 0.1 tanh(yt), f(y, z) = lam exp(min(y + z, 2)) scaled so that its
fast average at z0 is lam, L(yt) = 0.2 tanh(yt), c(z) = -z, g = 0.5 and
the fixed ``_MULTISCALE_CORR``.

A step of length h moves r, int r, Y, Z and the Ornstein-Uhlenbeck part of
Yt exactly, each by its conditional mean plus a noise column int_0^h a(u)
dW_j(u) with a kernel a made of e^{-kappa u} terms. The columns come from
their exact joint Gaussian law (Glasserman, Monte Carlo Methods in
Financial Engineering, 2003, section 3.3), through the Cholesky factor of
``_step_cov`` for each distinct h. sigma(Yt) and L(Yt) are frozen over the
step and int f is the trapezoid; the log-stock moves by int r + int f -
(q + sigma^2/2) h plus sigma times its W0 column, so the discounted stock
is a martingale. A run steps from each horizon to the next in equal steps
(``_segments``). Under constant factors every step is exact, so it takes
one (Glasserman, section 3.3: simulate a Gaussian process only at the
dates the payoff reads). ``McConfig.n_steps_per_year`` sets only the
multiscale step count, where the frozen sigma(Yt) and L(Yt) and the
trapezoid int f need fine steps.

A step draws only the columns its payoff reads: r and int r; the stock for
a call or put; under multiscale factors Y, plus Yt for an option and Z
when dlt > 0. So a call and a put share one random stream, as do a bond and a
CDS. Antithetic pairs share each draw, the mirror subtracting what the
base path adds, and fixed-size chunks with jumped PCG64 substreams make a
fixed seed bit-reproducible however the reduction is batched. It all runs
on the calling thread.

``simulate_terminals`` runs the paths to a set of horizons, and
``mc_estimate`` turns the run into any call, put, bond or CDS estimate on
them, with the only copy of each payoff; ``mc_price`` does both for one
payoff. A payoff at the run's first horizon equals its own run bit for
bit. Under multiscale factors so does a later horizon when every segment
up to it is a whole number of 1/``n_steps_per_year`` (0.5 and 2 y, or the
annual 1..5 y, at 252 a year): each of its steps then has the same
rounded length as its own run's, on the same draws. Off that lattice (0.3
and 1 y) the lengths differ in their last bits. Under constant factors
other exact steps reach a later horizon (0.5 and 1.5 y against one of
2 y), another draw of the same law.

This is a validation oracle, not a production pricer: only its averaged
quantities are ever compared against the closed forms. So the package does
not re-export it, and of the commands only ``oracle`` imports it; it loads
NumPy at its top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import NumericalError, ValidationError
from .pricing import PricingInputs

__all__ = [
    "FactorSpec",
    "McConfig",
    "effective_params",
    "simulate_terminals",
    "mc_estimate",
    "mc_price",
]

CHUNK_BASE_PATHS = 16384
MIN_PATHS = 10_000
# The fast factors' invariant laws N(_M, _NU^2) and N(_MT, _NUT^2), and every factor's start.
_M = _MT = 0.0
_NU = _NUT = 0.5
_Y0 = _YT0 = _Z0 = 0.0
# Correlations of (W0, W1, W2, W3, W4) under the multiscale model; positive definite.
_MULTISCALE_CORR = (
    (1.0, -0.2, -0.3, -0.1, -0.4),
    (-0.2, 1.0, 0.1, 0.0, 0.1),
    (-0.3, 0.1, 1.0, 0.0, 0.2),
    (-0.1, 0.0, 0.0, 1.0, 0.0),
    (-0.4, 0.1, 0.2, 0.0, 1.0),
)
_SLOW_G = 0.5  # g(z) of the multiscale slow factor; c(z) = -z


@dataclass(frozen=True)
class FactorSpec:
    """One of the two factor models, by its numbers: build it with ``constant`` or ``multiscale``.

    ``lam`` is the (averaged) intensity of both. Constant factors set
    ``sigma`` and ``rho1`` and leave ``eps`` None; multiscale factors set
    ``eps`` and ``dlt`` and leave ``sigma`` and ``rho1`` None, as their
    volatility and correlations are fixed by the model.
    """

    lam: float
    sigma: float | None = None
    rho1: float | None = None
    eps: float | None = None
    dlt: float | None = None

    def __post_init__(self):
        unset = [v is None for v in (self.sigma, self.rho1, self.eps, self.dlt)]
        if unset not in ([False, False, True, True], [True, True, False, False]):
            raise ValidationError("set sigma and rho1 (constant factors) "
                                  "or eps and dlt (multiscale factors)")
        if not 0 <= self.lam < math.inf:
            raise ValidationError(f"lam must be finite and >= 0, got {self.lam}")
        if self.multiscale_model:
            if not (0 < self.eps < math.inf and 0 <= self.dlt < math.inf):
                raise ValidationError("eps must be finite and > 0, dlt finite and >= 0")
        elif not 0 < self.sigma < math.inf:
            raise ValidationError(f"sigma must be finite and > 0, got {self.sigma}")
        elif not abs(self.rho1) < 1:
            raise ValidationError(f"rho1 must lie in (-1, 1), got {self.rho1}")

    @property
    def multiscale_model(self) -> bool:
        return self.eps is not None

    @classmethod
    def constant(cls, sigma: float, lam: float, rho1: float = 0.0) -> "FactorSpec":
        """Constant volatility ``sigma`` and intensity ``lam``; ``rho1`` couples W0 and W1."""
        return cls(lam=float(lam), sigma=float(sigma), rho1=rho1)

    @classmethod
    def multiscale(cls, lam: float, eps: float, dlt: float) -> "FactorSpec":
        """The multiscale factors: averaged intensity ``lam`` at z0, scales ``eps`` and ``dlt``."""
        return cls(lam=lam, eps=eps, dlt=dlt)


def _sigma(yt):
    """Multiscale volatility sigma(yt)."""
    return 0.2 + 0.1 * np.tanh(yt)


def _vol_risk_price(yt):
    """Multiscale market price of volatility risk L(yt)."""
    return 0.2 * np.tanh(yt)


def _intensity(lam, y, z):
    """Multiscale intensity f(y, z), whose fast average at z0 is ``lam``."""
    return lam * np.exp(np.minimum(y + z, 2.0)) / _intensity_norm()


@lru_cache(maxsize=None)
def _intensity_norm() -> float:
    """<exp(min(y, 2))> over the fast law N(m, nu^2): f's normaliser."""
    return _gauss_mean(lambda y: np.exp(np.minimum(y, 2.0)), _M, _NU)


@lru_cache(maxsize=None)
def _hermite_nodes(n_nodes: int):
    """Gauss-Hermite nodes and weights, cached: they cost more than the means that use them."""
    return hermgauss(n_nodes)


def _gauss_mean(fn, mean: float, std: float, n_nodes: int = 201) -> float:
    """E[fn(N(mean, std^2))] by Gauss-Hermite quadrature."""
    t, w = _hermite_nodes(n_nodes)
    vals = np.asarray(fn(mean + math.sqrt(2.0) * std * t), dtype=float)
    return float(np.dot(w, vals)) / math.sqrt(math.pi)


def effective_params(spec: FactorSpec):
    """Averaged quantities the closed forms see: (sigma1, sigma2, lam, rho1_eff).

    sigma1 = <sigma>, sigma2 = sqrt(<sigma^2>) over the fast-volatility
    invariant distribution N(mt, nut^2); lam = <f(., z0)> over N(m, nu^2);
    rho1_eff = rho1 * sigma1 / sigma2, with rho1 the W0-W1 correlation.
    Constant factors are their own averages: (sigma, sigma, lam, rho1) exactly.
    """
    if not spec.multiscale_model:
        return spec.sigma, spec.sigma, spec.lam, spec.rho1
    sigma1 = _gauss_mean(_sigma, _MT, _NUT)
    sigma2 = math.sqrt(_gauss_mean(lambda y: _sigma(y) ** 2, _MT, _NUT))
    lam = _gauss_mean(lambda y: _intensity(spec.lam, y, _Z0), _M, _NU)
    return sigma1, sigma2, lam, _MULTISCALE_CORR[0][1] * sigma1 / sigma2


@dataclass(frozen=True)
class McConfig:
    """A run's size and seed, and its factor model.

    ``n_steps_per_year`` sets the multiscale step count. Constant factors step
    exactly from horizon to horizon and do not read it.
    """

    n_paths: int
    n_steps_per_year: int = 252
    seed: int = 0
    factor_spec: FactorSpec = field(kw_only=True)

    def __post_init__(self):
        for name in ("n_paths", "n_steps_per_year", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.n_paths < MIN_PATHS:
            raise ValidationError(f"n_paths must be >= {MIN_PATHS}")
        if self.n_paths % 2:
            raise ValidationError("n_paths must be even (antithetic pairs)")
        if self.n_steps_per_year < 1:
            raise ValidationError("n_steps_per_year must be >= 1")


def _segments(cfg: McConfig, horizons):
    """(steps, step length) from each sorted horizon's predecessor (0 for the first) to it.

    Constant factors step exactly at any length, so a segment is one step of
    ``h - prev``. Multiscale factors take n = round((h - prev) *
    ``cfg.n_steps_per_year``) steps (at least one) of ``(h - prev) / n``: a
    segment on the 1/``n_steps_per_year`` lattice steps by the same rounded
    length as any other, so a later lattice horizon meets its own run bit for bit.
    """
    multi, segments, prev = cfg.factor_spec.multiscale_model, [], 0.0
    for h in horizons:
        n = max(1, round((h - prev) * cfg.n_steps_per_year)) if multi else 1
        segments.append((n, (h - prev) / n))
        prev = h
    return segments


def grid_steps(cfg: McConfig, horizons) -> int:
    """Time steps of a simulation to ``horizons``: each path takes this many."""
    return sum(n for n, _ in _segments(cfg, sorted(horizons)))


def _phi(k: int, z: float) -> float:
    """phi_k(z) = sum_n z^n / (n + k)!, for k >= 1 and z <= 0.

    The recurrence phi_{j+1}(z) = (phi_j(z) - 1/j!)/z from phi_1(z) = expm1(z)/z
    cancels as z nears 0, so for |z| < 1 the series, cut below 1e-18, takes over.
    """
    if z > -1:
        return sum(z**n / math.factorial(n + k) for n in range(20))
    phi = math.expm1(z) / z
    for j in range(1, k):
        phi = (phi - 1 / math.factorial(j)) / z
    return phi


def _kernel_overlap(h: float, a, b) -> float:
    """int_0^h a(u) b(u) du of two kernels (kappa, integrated): e^{-kappa u}, or, integrated,
    B(u) = (1 - e^{-kappa u})/kappa (int r's, kappa = beta > 0; there is one).

    With y = kappa h of a plain kernel and x = beta h: e^{-kappa u} e^{-mu u} gives
    h phi_1(-(kappa + mu) h); e^{-kappa u} B(u) gives h^2 (y psi(y) + x e^{-y} phi_2(-x))
    / (x + y), psi(y) = int_0^1 t e^{-yt} dt = phi_1(-y) - phi_2(-y); B^2 gives h^3 (phi_2
    - phi_3 - x phi_2^2 / 2) at -x. These lose about max(x, y) ulps; the textbook B^2 form
    (h - 2 int e^{-beta u} + int e^{-2 beta u}) / beta^2 loses 1/x^2 as x -> 0.
    """
    (ka, ia), (kb, ib) = a, b
    if ia and ib:
        x = ka * h
        p2 = _phi(2, -x)
        return h**3 * (p2 - _phi(3, -x) - 0.5 * x * p2 * p2)
    if ia or ib:
        x, y = (ka * h, kb * h) if ia else (kb * h, ka * h)
        psi = _phi(1, -y) - _phi(2, -y)
        return h * h * (y * psi + x * math.exp(-y) * _phi(2, -x)) / (x + y)
    return h * _phi(1, -(ka + kb) * h)


def _step_cov(h: float, kernels, corr):
    """Covariance corr[w_j][w_k] int_0^h a_j a_k du of unit noise columns (w_j, kernel a_j).

    Column j is int_0^h a_j(u) dW_{w_j}(u). No Vasicek factor of ``rates`` enters: the
    oracle checks those.
    """
    cov = np.empty((len(kernels), len(kernels)))
    for j, (wj, aj) in enumerate(kernels):
        for k, (wk, ak) in enumerate(kernels[: j + 1]):
            cov[j, k] = cov[k, j] = corr[wj][wk] * _kernel_overlap(h, aj, ak)
    return cov


def _noise_columns(spec: FactorSpec, va, stock: bool):
    """The live noise columns in stream order, {name: (scale, (w, kernel))}."""
    columns = {}
    if stock:
        columns["x"] = (1.0, (0, (0.0, False)))  # scaled by sigma(Yt) when stepped
    columns["r"] = (va.eta, (1, (va.beta, False)))
    columns["ir"] = (va.eta, (1, (va.beta, True)))
    if spec.multiscale_model:
        fast = (1 / spec.eps, False)
        columns["y"] = (_NU * math.sqrt(2 / spec.eps), (2, fast))
        if spec.dlt > 0:
            columns["z"] = (math.sqrt(spec.dlt) * _SLOW_G, (3, (spec.dlt, False)))
        if stock:
            columns["yt"] = (_NUT * math.sqrt(2 / spec.eps), (4, fast))
    return columns


def simulate_terminals(cfg: McConfig, inputs: PricingInputs, horizons):
    """Simulate to each horizon; returns per-horizon integrals and stock.

    Returns a dict with

    - ``int_r``:   array (H, 2, n_half), integral of r, exact on each step
    - ``int_lam``: array (H, 2, n_half), trapezoidal integral of f(Y, Z)
    - ``x``:       array (H, 2, n_half), stock at each horizon; present
      only when ``inputs.strike`` is set, as only then is it simulated
    - ``horizons``: the H horizons, sorted; ``vasicek``, ``equity``: the
      blocks of ``inputs`` the run read, which ``mc_estimate`` checks

    Axis 1 separates the base paths from their antithetic mirrors.
    """
    spec, va = cfg.factor_spec, inputs.vasicek
    horizons = sorted(horizons)
    if not horizons or not all(0 < h < math.inf for h in horizons):
        raise ValidationError(f"horizons must be finite and positive, got {horizons}")
    if len(set(horizons)) < len(horizons):
        raise ValidationError(f"horizons must be distinct, got {horizons}")
    # Constant factors have columns on W0 and W1 only.
    corr = _MULTISCALE_CORR if spec.multiscale_model else ((1.0, spec.rho1), (spec.rho1, 1.0))

    segments = _segments(cfg, horizons)
    columns = _noise_columns(spec, va, inputs.strike is not None)
    scales, kernels = zip(*columns.values())
    # Per distinct step length h: the Cholesky factor, scaled after factorising so that eta = 0
    # leaves it regular; b = B(h) and int_0^h B for the means; the decays of r, Y and Yt, and Z.
    rates = [va.beta, 1 / spec.eps, spec.dlt] if spec.multiscale_model else [va.beta]
    laws = {}
    for h in {dt for _, dt in segments}:
        chol = np.array(scales)[:, None] * np.linalg.cholesky(_step_cov(h, kernels, corr))
        x = va.beta * h
        laws[h] = (chol, h * _phi(1, -x), h * h * _phi(2, -x), [math.exp(-k * h) for k in rates])

    n_half = cfg.n_paths // 2
    shape = (len(horizons), 2, n_half)
    out = {"int_r": np.empty(shape), "int_lam": np.empty(shape)}
    if inputs.strike is not None:
        out["x"] = np.empty(shape)

    base_stream = np.random.PCG64(cfg.seed)
    for chunk_idx, start in enumerate(range(0, n_half, CHUNK_BASE_PATHS)):
        size = min(CHUNK_BASE_PATHS, n_half - start)
        rng = np.random.Generator(base_stream.jumped(chunk_idx))
        sl = slice(start, start + size)
        _simulate_chunk(rng, size, segments, laws, list(columns), spec, inputs,
                        {key: val[:, :, sl] for key, val in out.items()})
    return {**out, "horizons": horizons, "vasicek": inputs.vasicek, "equity": inputs.equity}


def _simulate_chunk(rng, size, segments, laws, names, spec, inputs, out):
    """Step one chunk over ``segments`` by ``laws`` and the live columns ``names``; fill ``out``."""
    va, eq = inputs.vasicek, inputs.equity
    stock = "x" in out
    multi = spec.multiscale_model

    # state arrays: axis 0 = (base, antithetic)
    shape = (2, size)
    r = np.full(shape, va.r)
    ir = np.zeros(shape)
    if multi:
        y = np.full(shape, _Y0)
        z = np.full(shape, _Z0) if "z" in names else np.broadcast_to(_Z0, shape)
        lam = _intensity(spec.lam, y, z)
        il = np.zeros(shape)
    else:
        lam = spec.lam
        il = 0.0
    if stock:
        logx = np.full(shape, math.log(eq.x))
    if "yt" in names:
        yt = np.full(shape, _YT0)

    draws = np.empty((len(names), size))
    noise = np.empty((2, len(names), size))
    for k, (n, dt) in enumerate(segments):
        chol, b, int_b, decays = laws[dt]
        for _ in range(n):
            rng.standard_normal(out=draws)
            # Each column's increment for the base paths (row 0) and the mirrors (row 1).
            np.negative(np.matmul(chol, draws, out=noise[0]), out=noise[1])
            dw = dict(zip(names, noise.transpose(1, 0, 2)))

            d_ir = r * b + va.alpha * int_b + dw["ir"]  # the mean is E[int r over the step | r]
            ir += d_ir
            r = r * decays[0] + va.alpha * b + dw["r"]  # the mean is r e^{-beta h} + alpha b
            if multi:
                y = _M + (y - _M) * decays[1] + dw["y"]
                if "z" in names:
                    z = z * decays[2] + dw["z"]
            lam_new = _intensity(spec.lam, y, z) if multi else lam
            d_il = 0.5 * (lam + lam_new) * dt
            il += d_il
            lam = lam_new
            if stock:
                sig = _sigma(yt) if "yt" in names else spec.sigma
                logx += d_ir + d_il - (eq.q + 0.5 * sig * sig) * dt + sig * dw["x"]
            if "yt" in names:
                # L(Yt), frozen over the step, moves Yt's OU target by -nut sqrt(2 eps) L(Yt).
                target = _MT - _NUT * math.sqrt(2.0 * spec.eps) * _vol_risk_price(yt)
                yt = target + (yt - target) * decays[1] + dw["yt"]

        out["int_r"][k] = ir
        out["int_lam"][k] = il
        if stock:
            out["x"][k] = np.exp(logx)


def _pair_stats(values):
    """Mean and standard error from antithetic pair means; values (2, n_half)."""
    pair_means = 0.5 * (values[0] + values[1])
    return (float(pair_means.mean()),
            float(pair_means.std(ddof=1) / math.sqrt(pair_means.size)))


def _payoff_horizons(instrument: str, inputs: PricingInputs, schedule):
    """The horizons a payoff reads: ``inputs.tau``, or a CDS schedule's payment times."""
    if instrument not in ("call", "put", "bond", "cds"):
        raise ValidationError(f"unknown instrument {instrument!r}")
    if instrument in ("call", "put") and inputs.strike is None:
        raise ValidationError("option pricing requires a strike")
    if instrument == "cds" and schedule is None:
        raise ValidationError("cds pricing requires a payment schedule")
    return list(schedule.payment_times) if instrument == "cds" else [inputs.tau]


def mc_estimate(instrument: str, sim, inputs: PricingInputs, schedule=None):
    """(estimate, standard error) of a call, put, bond or CDS spread from ``simulate_terminals``.

    Options discount with the full intensity (worthless at default; the put
    additionally collects the strike when default occurs). The bond uses
    the loss-scaled intensity. ``instrument="cds"`` needs a payment
    ``schedule`` and returns the annualized spread with a delta-method
    standard error. ``inputs`` must hold the run's vasicek and equity blocks.
    """
    if (inputs.vasicek, inputs.equity) != (sim["vasicek"], sim["equity"]):
        raise ValidationError("inputs' vasicek and equity blocks are not the simulation's")
    times = _payoff_horizons(instrument, inputs, schedule)
    if not set(times) <= set(sim["horizons"]):
        raise ValidationError(f"the simulation did not reach every horizon of {times}")
    ks = [sim["horizons"].index(t) for t in times]
    k = ks[-1]
    int_r, int_lam, l = sim["int_r"], sim["int_lam"], inputs.credit.l
    if instrument == "bond":
        return _pair_stats(np.exp(-int_r[k] - l * int_lam[k]))
    if instrument == "cds":
        numer = np.exp(-int_r[k]) - np.exp(-int_r[k] - l * int_lam[k])
        denom = np.exp(-int_r[ks] - int_lam[ks]).sum(axis=0)
        n_pair = 0.5 * (numer[0] + numer[1])
        d_pair = 0.5 * (denom[0] + denom[1])
        nbar, dbar = n_pair.mean(), d_pair.mean()
        if dbar <= 0:
            raise NumericalError("degenerate premium annuity in simulation")
        spread = nbar / dbar / schedule.delta
        # delta method for the ratio of means
        cov = np.cov(n_pair, d_pair, ddof=1)
        var = (cov[0, 0] / dbar**2 + nbar**2 * cov[1, 1] / dbar**4
               - 2 * nbar * cov[0, 1] / dbar**3) / n_pair.size
        return float(spread), math.sqrt(max(var, 0.0)) / schedule.delta
    if "x" not in sim:
        raise ValidationError("a call or put needs a simulation of the stock")
    df_full = np.exp(-int_r[k] - int_lam[k])
    x_t, strike = sim["x"][k], inputs.strike
    if instrument == "call":
        return _pair_stats(df_full * np.maximum(x_t - strike, 0.0))
    return _pair_stats(df_full * np.maximum(strike - x_t, 0.0)
                       + strike * (np.exp(-int_r[k]) - df_full))


def mc_price(cfg: McConfig, instrument: str, inputs: PricingInputs, schedule=None):
    """(estimate, standard error) of one payoff (see ``mc_estimate``): simulate, then estimate.

    Only a call or put simulates the stock; a strike on a bond or CDS is ignored.
    """
    horizons = _payoff_horizons(instrument, inputs, schedule)
    run = inputs if instrument in ("call", "put") else replace(inputs, strike=None)
    return mc_estimate(instrument, simulate_terminals(cfg, run, horizons), inputs, schedule)
