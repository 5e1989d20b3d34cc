"""Full-model Monte-Carlo pricer used to validate the asymptotic formulas.

Simulates the complete five-factor system under the pricing measure:

    dr  = (alpha - beta r) dt + eta dW1
    dY  = (1/eps)(m - Y) dt + nu*sqrt(2/eps) dW2          (fast intensity)
    dZ  = dlt*c(Z) dt + sqrt(dlt)*g(Z) dW3                (slow intensity)
    dYt = [(1/eps)(mt - Yt) - nut*sqrt(2/eps)*L(Yt)] dt
          + nut*sqrt(2/eps) dW4                           (fast volatility)
    dX  = (r + f(Y, Z) - q) X dt + sigma(Yt) X dW0        (log-Euler)

Default enters through survival-probability weighting: every payoff is
discounted by exp(-int (r + l*f(Y,Z)) ds) instead of sampling the default
time, which is exact for a doubly stochastic default and cuts variance.
Antithetic pairs share each chunk's Gaussian draws with flipped signs,
and fixed-size chunks with jumped PCG64 substreams make a fixed seed
bit-reproducible regardless of how the reduction is batched.

This is a validation oracle, not a production pricer: one concrete,
bounded, smooth instantiation of the latent factors is supplied for
experiments; only its averaged quantities are ever compared against the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class FactorSpec:
    """Concrete latent-factor choice: functions, scales, and correlations.

    ``rho`` couples the stock driver W0 to (W1..W4); ``rho_ij`` couples the
    factor drivers among themselves. The implied 5x5 correlation matrix
    must be positive semidefinite.
    """

    eps: float
    dlt: float
    nu: float = 0.5
    nut: float = 0.5
    m: float = 0.0
    mt: float = 0.0
    y0: float = 0.0
    yt0: float = 0.0
    z0: float = 0.0
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
        if self.eps <= 0 or self.dlt < 0:
            raise ValidationError("eps must be > 0 and dlt >= 0")
        if self.sigma_fn is None or self.f_fn is None:
            raise ValidationError("sigma_fn and f_fn are required")

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
        and the simulation validates the pricing kernel itself.
        """
        import numpy as np

        return cls(
            eps=1.0,
            dlt=0.0,
            rho1=rho1,
            sigma_fn=lambda yt: sigma * np.ones_like(np.asarray(yt, dtype=float)),
            f_fn=lambda y, z: lam * np.ones_like(np.asarray(y, dtype=float)),
            lambda_fn=None,
            c_fn=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            g_fn=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        )

    @classmethod
    def multiscale(cls, lam: float, eps: float, dlt: float) -> "FactorSpec":
        """Bounded smooth multiscale factors with averaged intensity lam at z0.

        sigma(yt) = 0.2 + 0.1 tanh(yt); f(y, z) = lam * exp(min(y+z, 2)),
        normalized so the fast-average of f at the starting z equals lam.
        The slow factor mean-reverts to zero with constant diffusion.
        """
        import numpy as np

        nu = 0.5
        norm = _gauss_mean(lambda y: np.exp(np.minimum(y, 2.0)), 0.0, nu)
        spec = cls(
            eps=eps,
            dlt=dlt,
            nu=nu,
            nut=0.5,
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
        return spec


def _gauss_mean(fn, mean: float, std: float, n_nodes: int = 201) -> float:
    """E[fn(N(mean, std^2))] by Gauss-Hermite quadrature."""
    import numpy as np
    from scipy.special import roots_hermite

    t, w = roots_hermite(n_nodes)
    vals = np.asarray(fn(mean + math.sqrt(2.0) * std * t), dtype=float)
    return float(np.dot(w, vals)) / math.sqrt(math.pi)


def effective_params(spec: FactorSpec):
    """Averaged quantities the closed forms see: (sigma1, sigma2, lam, rho1_eff).

    sigma1 = <sigma>, sigma2 = sqrt(<sigma^2>) over the fast-volatility
    invariant distribution N(mt, nut^2); lam = <f(., z0)> over N(m, nu^2);
    rho1_eff = rho1 * sigma1 / sigma2.
    """
    import numpy as np

    sigma1 = _gauss_mean(spec.sigma_fn, spec.mt, spec.nut)
    sigma2 = math.sqrt(_gauss_mean(lambda y: np.asarray(spec.sigma_fn(y)) ** 2, spec.mt, spec.nut))
    lam = _gauss_mean(lambda y: spec.f_fn(y, spec.z0 * np.ones_like(np.asarray(y))), spec.m, spec.nu)
    rho1_eff = spec.rho1 * sigma1 / sigma2
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


def _time_grid(horizons, steps_per_year: int):
    """Uniform grid refined to land exactly on every horizon."""
    import numpy as np

    pts = {0.0}
    prev = 0.0
    for h in horizons:
        n = max(1, round((h - prev) * steps_per_year))
        pts.update(prev + (h - prev) * k / n for k in range(1, n + 1))
        pts.add(h)
        prev = h
    return np.asarray(sorted(pts))


def simulate_terminals(cfg: McConfig, inputs: PricingInputs, horizons):
    """Simulate to each horizon; returns per-horizon integrals and final stock.

    Returns a dict with

    - ``int_r``:   array (H, 2, n_half), trapezoidal integral of r
    - ``int_lam``: array (H, 2, n_half), trapezoidal integral of f(Y, Z)
    - ``x``:       array (2, n_half), stock at the last horizon

    Axis 1 separates the base paths from their antithetic mirrors.
    """
    import numpy as np

    spec = cfg.factor_spec
    horizons = sorted(horizons)
    if not horizons or horizons[0] <= 0:
        raise ValidationError("horizons must be positive")
    corr = spec.correlation_matrix()
    eigmin = float(np.linalg.eigvalsh(corr)[0])
    if eigmin < -1e-10:
        raise ValidationError(f"correlation matrix not PSD (min eigenvalue {eigmin})")
    chol = np.linalg.cholesky(corr + max(0.0, -eigmin + 1e-14) * np.eye(5))

    grid = _time_grid(horizons, cfg.n_steps_per_year)
    h_index = {h: int(np.argmin(np.abs(grid - h))) for h in horizons}

    n_half = cfg.n_paths // 2
    n_h = len(horizons)
    int_r = np.empty((n_h, 2, n_half))
    int_lam = np.empty((n_h, 2, n_half))
    x_out = np.empty((2, n_half))

    va, eq = inputs.vasicek, inputs.equity
    base_stream = np.random.PCG64(cfg.seed)
    start = 0
    chunk_idx = 0
    while start < n_half:
        size = min(CHUNK_BASE_PATHS, n_half - start)
        rng = np.random.Generator(base_stream.jumped(chunk_idx))
        sl = slice(start, start + size)
        _simulate_chunk(
            rng, size, grid, h_index, horizons, chol, spec, va, eq,
            int_r[:, :, sl], int_lam[:, :, sl], x_out[:, sl],
        )
        start += size
        chunk_idx += 1
    return {"int_r": int_r, "int_lam": int_lam, "x": x_out, "horizons": horizons}


def _simulate_chunk(rng, size, grid, h_index, horizons, chol, spec, va, eq,
                    out_int_r, out_int_lam, out_x):
    import numpy as np

    sqeps = math.sqrt(spec.eps)
    fast_vol = spec.nu * math.sqrt(2.0) / sqeps
    fast_vol_t = spec.nut * math.sqrt(2.0) / sqeps
    lam_fn, sig_fn, f_fn = spec.lambda_fn, spec.sigma_fn, spec.f_fn

    # state arrays: axis 0 = (base, antithetic)
    r = np.full((2, size), va.r)
    y = np.full((2, size), spec.y0)
    yt = np.full((2, size), spec.yt0)
    z = np.full((2, size), spec.z0)
    logx = np.full((2, size), math.log(eq.x))
    ir = np.zeros((2, size))
    il = np.zeros((2, size))

    lam_prev = np.asarray(f_fn(y, z))
    r_prev = r.copy()
    h_steps = {h_index[h]: k for k, h in enumerate(horizons)}

    for i in range(1, len(grid)):
        dt = grid[i] - grid[i - 1]
        sq_dt = math.sqrt(dt)
        zdraw = rng.standard_normal((size, 5))
        dw = (zdraw @ chol.T) * sq_dt  # (size, 5) correlated increments
        dw = np.stack((dw, -dw))  # antithetic mirror, axes (2, size, 5)

        sig = np.asarray(sig_fn(yt))
        lam = lam_prev
        drift_x = (r + lam - eq.q - 0.5 * sig * sig) * dt
        logx += drift_x + sig * dw[:, :, 0]
        r = r + (va.alpha - va.beta * r) * dt + va.eta * dw[:, :, 1]
        y = y + (spec.m - y) / spec.eps * dt + fast_vol * dw[:, :, 2]
        if spec.dlt > 0:
            z = z + spec.dlt * np.asarray(spec.c_fn(z)) * dt + math.sqrt(spec.dlt) * np.asarray(spec.g_fn(z)) * dw[:, :, 3]
        drift_yt = (spec.mt - yt) / spec.eps
        if lam_fn is not None:
            drift_yt = drift_yt - fast_vol_t * np.asarray(lam_fn(yt))
        yt = yt + drift_yt * dt + fast_vol_t * dw[:, :, 4]

        lam_new = np.asarray(f_fn(y, z))
        ir += 0.5 * (r_prev + r) * dt
        il += 0.5 * (lam_prev + lam_new) * dt
        r_prev = r
        lam_prev = lam_new

        if i in h_steps:
            k = h_steps[i]
            out_int_r[k] = ir
            out_int_lam[k] = il
    out_x[:] = np.exp(logx)


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
        x_t = sim["x"]
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
