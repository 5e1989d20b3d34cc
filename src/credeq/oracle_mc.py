"""Full-model Monte-Carlo pricer used to validate the asymptotic formulas.

Simulates the five-factor system under the pricing measure:

    dr  = (alpha - beta r) dt + eta dW1
    dY  = (1/eps)(m - Y) dt + nu*sqrt(2/eps) dW2          (fast intensity)
    dZ  = dlt*c(Z) dt + sqrt(dlt)*g(Z) dW3                (slow intensity)
    dYt = [(1/eps)(mt - Yt) - nut*sqrt(2/eps)*L(Yt)] dt
          + nut*sqrt(2/eps) dW4                           (fast volatility)
    dX  = (r + f(Y, Z) - q) X dt + sigma(Yt) X dW0        (log-Euler)

Default enters through survival-probability weighting: every payoff is
discounted by exp(-int (r + l*f(Y,Z)) ds) instead of sampling the default
time, which is exact for a doubly stochastic default and cuts variance.

Only the factors that a payoff reads are stepped. r always is. The stock
X is stepped only when the inputs carry a strike (calls and puts; bonds
and CDS never read it). Y is stepped only when f is a function, Z only
when f is a function and dlt > 0, and Yt only when sigma is a function
and X is stepped. A constant intensity integrates to one number per step.
So under ``FactorSpec.constant`` a bond or CDS steps r alone, and an
option steps r and X.

The random stream does not depend on what is live: every step draws a
(paths, 5) block of standard normals and correlates it with the full 5x5
Cholesky factor, so a fixed seed gives the same estimates bit for bit
whichever factors a spec makes constant. Antithetic pairs share each
draw: the base path adds an increment and its mirror subtracts it. Fixed-
size chunks with jumped PCG64 substreams make a fixed seed
bit-reproducible regardless of how the reduction is batched.

This is a validation oracle, not a production pricer: one concrete,
bounded, smooth instantiation of the latent factors is supplied for
experiments; only its averaged quantities are ever compared against the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

# NumPy is imported inside each function, so that importing the package,
# which re-exports this module, does not load it.
from .errors import NumericalError, ValidationError
from .pricing import PricingInputs

__all__ = [
    "FactorSpec",
    "McConfig",
    "effective_params",
    "simulate_terminals",
    "mc_price",
]

CHUNK_BASE_PATHS = 16384
MIN_PATHS = 10_000
# The fast factors' invariant laws N(_M, _NU^2) and N(_MT, _NUT^2), and every factor's start.
_M = _MT = 0.0
_NU = _NUT = 0.5
_Y0 = _YT0 = _Z0 = 0.0


@dataclass(frozen=True)
class FactorSpec:
    """Concrete latent-factor choice: functions, scales, and correlations.

    ``rho`` couples the stock driver W0 to (W1..W4); ``rho_ij`` couples the
    factor drivers among themselves. The implied 5x5 correlation matrix
    must be positive semidefinite. ``sigma_fn`` and ``f_fn`` are functions
    of the factors or plain numbers; a number is a constant, and the
    factors that only it would read are not simulated.
    """

    eps: float
    dlt: float
    rho1: float = 0.0
    rho2: float = 0.0
    rho3: float = 0.0
    rho4: float = 0.0
    rho_ij: dict = field(default_factory=dict)  # e.g. {(1, 2): 0.1}
    sigma_fn: object = None
    f_fn: object = None
    lambda_fn: object = None  # market price of volatility risk
    c_fn: object = None
    g_fn: object = None

    def __post_init__(self):
        if not (0 < self.eps < math.inf and 0 <= self.dlt < math.inf):
            raise ValidationError("eps must be finite and > 0, dlt finite and >= 0")
        if self.sigma_fn is None or self.f_fn is None:
            raise ValidationError("sigma_fn and f_fn are required")
        if callable(self.f_fn) and self.dlt > 0 and (self.c_fn is None or self.g_fn is None):
            raise ValidationError("a slow factor (dlt > 0) needs c_fn and g_fn")

    def correlation_matrix(self):
        import numpy as np

        corr = np.eye(5)
        for i, r in enumerate((self.rho1, self.rho2, self.rho3, self.rho4), start=1):
            corr[0, i] = corr[i, 0] = r
        for (i, j), r in self.rho_ij.items():
            corr[i, j] = corr[j, i] = r
        return corr

    @classmethod
    def constant(cls, sigma: float, lam: float, rho1: float = 0.0) -> "FactorSpec":
        """Degenerate factors: constant volatility and intensity.

        All corrections vanish, so the closed-form leading order is exact
        and the simulation validates the pricing kernel itself. Y, Z and Yt
        are not simulated.
        """
        return cls(eps=1.0, dlt=0.0, rho1=rho1, sigma_fn=float(sigma), f_fn=float(lam))

    @classmethod
    def multiscale(cls, lam: float, eps: float, dlt: float) -> "FactorSpec":
        """Bounded smooth multiscale factors with averaged intensity lam at z0.

        sigma(yt) = 0.2 + 0.1 tanh(yt); f(y, z) = lam * exp(min(y+z, 2)),
        normalized so the fast-average of f at the starting z equals lam.
        The slow factor mean-reverts to zero with constant diffusion.
        """
        import numpy as np

        norm = _gauss_mean(lambda y: np.exp(np.minimum(y, 2.0)), _M, _NU)
        return cls(
            eps=eps,
            dlt=dlt,
            rho1=-0.2,
            rho2=-0.3,
            rho3=-0.1,
            rho4=-0.4,
            rho_ij={(1, 2): 0.1, (1, 4): 0.1, (2, 4): 0.2},
            sigma_fn=lambda yt: 0.2 + 0.1 * np.tanh(yt),
            f_fn=lambda y, z: lam * np.exp(np.minimum(y + z, 2.0)) / norm,
            lambda_fn=lambda yt: 0.2 * np.tanh(yt),
            c_fn=lambda z: -z,
            g_fn=lambda z: 0.5 * np.ones_like(np.asarray(z, dtype=float)),
        )


@lru_cache(maxsize=None)
def _hermite_nodes(n_nodes: int):
    """Gauss-Hermite nodes and weights, cached: they cost more than the means that use them."""
    from numpy.polynomial.hermite import hermgauss

    return hermgauss(n_nodes)


def _gauss_mean(fn, mean: float, std: float, n_nodes: int = 201) -> float:
    """E[fn(N(mean, std^2))] by Gauss-Hermite quadrature."""
    import numpy as np

    t, w = _hermite_nodes(n_nodes)
    vals = np.asarray(fn(mean + math.sqrt(2.0) * std * t), dtype=float)
    return float(np.dot(w, vals)) / math.sqrt(math.pi)


def effective_params(spec: FactorSpec):
    """Averaged quantities the closed forms see: (sigma1, sigma2, lam, rho1_eff).

    sigma1 = <sigma>, sigma2 = sqrt(<sigma^2>) over the fast-volatility
    invariant distribution N(mt, nut^2); lam = <f(., z0)> over N(m, nu^2);
    rho1_eff = rho1 * sigma1 / sigma2. A constant is its own average, so a
    constant sigma gives (sigma, sigma, ., rho1) exactly.
    """
    import numpy as np

    sig, f = spec.sigma_fn, spec.f_fn
    if callable(sig):
        sigma1 = _gauss_mean(sig, _MT, _NUT)
        sigma2 = math.sqrt(_gauss_mean(lambda y: np.asarray(sig(y)) ** 2, _MT, _NUT))
        rho1_eff = spec.rho1 * sigma1 / sigma2
    else:
        sigma1 = sigma2 = float(sig)
        rho1_eff = spec.rho1
    if callable(f):
        lam = _gauss_mean(lambda y: f(y, _Z0 * np.ones_like(np.asarray(y))), _M, _NU)
    else:
        lam = float(f)
    return sigma1, sigma2, lam, rho1_eff


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps_per_year: int = 252
    seed: int = 0
    factor_spec: FactorSpec | None = None

    def __post_init__(self):
        if self.factor_spec is None:
            raise ValidationError("factor_spec is required")
        if self.n_paths < MIN_PATHS:
            raise ValidationError(f"n_paths must be >= {MIN_PATHS}")
        if self.n_paths % 2:
            raise ValidationError("n_paths must be even (antithetic pairs)")
        if self.n_steps_per_year < 1:
            raise ValidationError("n_steps_per_year must be >= 1")


def _segment_steps(horizons, steps_per_year: int):
    """Steps from each sorted horizon's predecessor (0 for the first) to it."""
    steps, prev = [], 0.0
    for h in horizons:
        steps.append(max(1, round((h - prev) * steps_per_year)))
        prev = h
    return steps


def _time_grid(horizons, steps):
    """Time points: ``steps[i]`` equal steps up to ``horizons[i]``, the last exactly on it."""
    import numpy as np

    pts, prev = [0.0], 0.0
    for h, n in zip(horizons, steps):
        pts.extend(prev + (h - prev) * k / n for k in range(1, n))
        pts.append(h)
        prev = h
    return np.asarray(pts)


def grid_steps(horizons, steps_per_year: int) -> int:
    """Time steps of a simulation to ``horizons``: each path takes this many."""
    return sum(_segment_steps(sorted(horizons), steps_per_year))


def simulate_terminals(cfg: McConfig, inputs: PricingInputs, horizons):
    """Simulate to each horizon; returns per-horizon integrals and stock.

    Returns a dict with

    - ``int_r``:   array (H, 2, n_half), trapezoidal integral of r
    - ``int_lam``: array (H, 2, n_half), trapezoidal integral of f(Y, Z)
    - ``x``:       array (H, 2, n_half), stock at each horizon; present
      only when ``inputs.strike`` is set, as only then is it simulated

    Axis 1 separates the base paths from their antithetic mirrors.
    """
    import numpy as np

    spec = cfg.factor_spec
    horizons = sorted(horizons)
    if not horizons or not all(0 < h < math.inf for h in horizons):
        raise ValidationError(f"horizons must be finite and positive, got {horizons}")
    if len(set(horizons)) < len(horizons):
        raise ValidationError(f"horizons must be distinct, got {horizons}")
    corr = spec.correlation_matrix()
    eigmin = float(np.linalg.eigvalsh(corr)[0])
    if eigmin < -1e-10:
        raise ValidationError(f"correlation matrix not PSD (min eigenvalue {eigmin})")
    chol = np.linalg.cholesky(corr + max(0.0, -eigmin + 1e-14) * np.eye(5))

    steps = _segment_steps(horizons, cfg.n_steps_per_year)
    grid = _time_grid(horizons, steps)
    h_steps = {int(i): k for k, i in enumerate(np.cumsum(steps))}

    n_half = cfg.n_paths // 2
    shape = (len(horizons), 2, n_half)
    out = {"int_r": np.empty(shape), "int_lam": np.empty(shape)}
    if inputs.strike is not None:
        out["x"] = np.empty(shape)

    base_stream = np.random.PCG64(cfg.seed)
    start = 0
    chunk_idx = 0
    while start < n_half:
        size = min(CHUNK_BASE_PATHS, n_half - start)
        rng = np.random.Generator(base_stream.jumped(chunk_idx))
        sl = slice(start, start + size)
        _simulate_chunk(rng, size, grid, h_steps, chol, spec, inputs,
                        {key: val[:, :, sl] for key, val in out.items()})
        start += size
        chunk_idx += 1
    return out


def _mirrored(state, vol, d):
    """Add vol*d to the base paths (row 0) and subtract it from the mirrors (row 1), in place.

    ``state - vol*d`` is the same float as ``state + vol*(-d)``, so the
    mirrors need no negated copy of the increments. ``vol`` is a number or
    a (2, size) array.
    """
    import numpy as np

    shock = np.broadcast_to(vol * d, state.shape)
    state[0] += shock[0]
    state[1] -= shock[1]


def _simulate_chunk(rng, size, grid, h_steps, chol, spec, inputs, out):
    """Step one chunk's live factors over ``grid``; write ``out`` at each horizon step."""
    import numpy as np

    va, eq = inputs.vasicek, inputs.equity
    sig_fn, f_fn = spec.sigma_fn, spec.f_fn
    stock = "x" in out
    live_yt = stock and callable(sig_fn)
    live_y = callable(f_fn)
    live_z = live_y and spec.dlt > 0
    sqeps = math.sqrt(spec.eps)
    fast_vol = _NU * math.sqrt(2.0) / sqeps
    fast_vol_t = _NUT * math.sqrt(2.0) / sqeps

    # state arrays: axis 0 = (base, antithetic)
    shape = (2, size)
    r = np.full(shape, va.r)
    ir = np.zeros(shape)
    if live_y:
        y = np.full(shape, _Y0)
        z = np.full(shape, _Z0) if live_z else np.broadcast_to(_Z0, shape)
        lam = np.asarray(f_fn(y, z))
        il = np.zeros(shape)
    else:
        lam = float(f_fn)
        il = 0.0
    if stock:
        logx = np.full(shape, math.log(eq.x))
    if live_yt:
        yt = np.full(shape, _YT0)

    draws = np.empty((size, 5))
    dw = np.empty((size, 5))
    for i, dt in enumerate(np.diff(grid).tolist(), start=1):
        sq_dt = math.sqrt(dt)
        # Five correlated columns every step, live or not: the stream stays fixed.
        rng.standard_normal(out=draws)
        np.matmul(draws, chol.T, out=dw)

        if stock:
            sig = np.asarray(sig_fn(yt)) if live_yt else sig_fn
            drift_x = (r + lam - eq.q - 0.5 * sig * sig) * dt
            _mirrored(drift_x, sig, dw[:, 0] * sq_dt)
            logx += drift_x
        r_new = r + (va.alpha - va.beta * r) * dt
        _mirrored(r_new, va.eta, dw[:, 1] * sq_dt)
        if live_y:
            y = y + (_M - y) / spec.eps * dt
            _mirrored(y, fast_vol, dw[:, 2] * sq_dt)
            if live_z:
                vol_z = math.sqrt(spec.dlt) * np.asarray(spec.g_fn(z))
                z = z + spec.dlt * np.asarray(spec.c_fn(z)) * dt
                _mirrored(z, vol_z, dw[:, 3] * sq_dt)
        if live_yt:
            drift_yt = (_MT - yt) / spec.eps
            if spec.lambda_fn is not None:
                drift_yt = drift_yt - fast_vol_t * np.asarray(spec.lambda_fn(yt))
            yt = yt + drift_yt * dt
            _mirrored(yt, fast_vol_t, dw[:, 4] * sq_dt)

        ir += 0.5 * (r + r_new) * dt
        r = r_new
        if live_y:
            lam_new = np.asarray(f_fn(y, z))
            il += 0.5 * (lam + lam_new) * dt
            lam = lam_new
        else:
            il += 0.5 * (lam + lam) * dt

        k = h_steps.get(i)
        if k is not None:
            out["int_r"][k] = ir
            out["int_lam"][k] = il
            if stock:
                out["x"][k] = np.exp(logx)


def _pair_stats(values):
    """Mean and standard error from antithetic pair means; values (2, n_half)."""
    pair_means = 0.5 * (values[0] + values[1])
    n = pair_means.size
    est = float(pair_means.mean())
    se = float(pair_means.std(ddof=1) / math.sqrt(n))
    return est, se


def mc_price(cfg: McConfig, instrument: str, inputs: PricingInputs, schedule=None):
    """(estimate, standard error) for a call, put, bond, or CDS spread.

    Options discount with the full intensity (worthless at default; the put
    additionally collects the strike when default occurs). The bond uses
    the loss-scaled intensity. ``instrument="cds"`` needs a payment
    ``schedule`` and returns the annualized spread with a delta-method
    standard error.
    """
    import numpy as np

    credit = inputs.credit
    if instrument in ("call", "put"):
        if inputs.strike is None:
            raise ValidationError("option pricing requires a strike")
        sim = simulate_terminals(cfg, inputs, [inputs.tau])
        df_full = np.exp(-sim["int_r"][0] - sim["int_lam"][0])
        x_t = sim["x"][0]
        if instrument == "call":
            vals = df_full * np.maximum(x_t - inputs.strike, 0.0)
        else:
            df_riskless = np.exp(-sim["int_r"][0])
            vals = df_full * np.maximum(inputs.strike - x_t, 0.0) + inputs.strike * (
                df_riskless - df_full
            )
        return _pair_stats(vals)
    if instrument == "bond":
        sim = simulate_terminals(cfg, inputs, [inputs.tau])
        vals = np.exp(-sim["int_r"][0] - credit.l * sim["int_lam"][0])
        return _pair_stats(vals)
    if instrument == "cds":
        if schedule is None:
            raise ValidationError("cds pricing requires a payment schedule")
        times = list(schedule.payment_times)
        sim = simulate_terminals(cfg, inputs, times)
        last = len(times) - 1
        numer = np.exp(-sim["int_r"][last]) - np.exp(
            -sim["int_r"][last] - credit.l * sim["int_lam"][last]
        )
        denom = np.exp(-sim["int_r"] - sim["int_lam"]).sum(axis=0)
        n_pair = 0.5 * (numer[0] + numer[1])
        d_pair = 0.5 * (denom[0] + denom[1])
        n = n_pair.size
        nbar, dbar = n_pair.mean(), d_pair.mean()
        if dbar <= 0:
            raise NumericalError("degenerate premium annuity in simulation")
        spread = nbar / dbar / schedule.delta
        # delta method for the ratio of means
        cov = np.cov(n_pair, d_pair, ddof=1)
        var = (
            cov[0, 0] / dbar**2
            + nbar**2 * cov[1, 1] / dbar**4
            - 2 * nbar * cov[0, 1] / dbar**3
        ) / n
        return spread, math.sqrt(max(var, 0.0)) / schedule.delta
    raise ValidationError(f"unknown instrument {instrument!r}")
