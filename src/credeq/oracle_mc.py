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

Two models fill in sigma, f, L, c, g and the correlations (``FactorSpec``).
Constant factors (``FactorSpec.constant``) take sigma and f = lam as
numbers and correlate only W0 and W1, by rho1; every correction vanishes,
so the leading-order closed forms are exact, and Y, Z and Yt are never
stepped: a bond or CDS steps r alone, an option r and X. Multiscale
factors (``FactorSpec.multiscale``) are one bounded, smooth choice:
sigma(yt) = 0.2 + 0.1 tanh(yt), f(y, z) = lam exp(min(y + z, 2)) scaled so
that its fast average at z0 is lam, L(yt) = 0.2 tanh(yt), c(z) = -z,
g = 0.5 and the fixed ``_MULTISCALE_CORR``; a bond or CDS steps r and Y,
an option also X and Yt, and Z is stepped only when dlt > 0.

The random stream does not depend on what is stepped: every step draws a
(paths, 5) block of standard normals and correlates it with the full 5x5
Cholesky factor, so a fixed seed gives the same estimates bit for bit
whichever factors a payoff reads. Antithetic pairs share each draw: the
base path adds an increment and its mirror subtracts it. Fixed-size chunks
with jumped PCG64 substreams make a fixed seed bit-reproducible regardless
of how the reduction is batched. One worker thread per run makes each
chunk's draws one step ahead, in stream order, while the calling thread
steps the factors (NumPy releases the interpreter lock while it fills).
It draws on a copy of the chunk's generator, and the calling thread draws
a step itself when the worker falls behind; either way each step is the
same call from the same state as in a serial loop, so the floats are the
same as a serial run's. The worker stops with the run.

``simulate_terminals`` runs the paths to a set of horizons, and
``mc_estimate`` turns the run into any call, put, bond or CDS estimate on
them, with the only copy of each payoff; ``mc_price`` does both for one
payoff. A payoff at the run's first horizon equals its own run bit for
bit; a later horizon's time grid differs from its own run's.

This is a validation oracle, not a production pricer: only its averaged
quantities are ever compared against the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    import numpy as np

    return 0.2 + 0.1 * np.tanh(yt)


def _vol_risk_price(yt):
    """Multiscale market price of volatility risk L(yt)."""
    import numpy as np

    return 0.2 * np.tanh(yt)


def _intensity(lam, y, z):
    """Multiscale intensity f(y, z), whose fast average at z0 is ``lam``."""
    import numpy as np

    return lam * np.exp(np.minimum(y + z, 2.0)) / _intensity_norm()


@lru_cache(maxsize=None)
def _intensity_norm() -> float:
    """<exp(min(y, 2))> over the fast law N(m, nu^2): f's normaliser."""
    import numpy as np

    return _gauss_mean(lambda y: np.exp(np.minimum(y, 2.0)), _M, _NU)


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
    - ``horizons``: the H horizons, sorted; ``vasicek``, ``equity``: the
      blocks of ``inputs`` the run read, which ``mc_estimate`` checks

    Axis 1 separates the base paths from their antithetic mirrors.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    spec = cfg.factor_spec
    horizons = sorted(horizons)
    if not horizons or not all(0 < h < math.inf for h in horizons):
        raise ValidationError(f"horizons must be finite and positive, got {horizons}")
    if len(set(horizons)) < len(horizons):
        raise ValidationError(f"horizons must be distinct, got {horizons}")
    if spec.multiscale_model:
        corr = np.array(_MULTISCALE_CORR)
    else:
        corr = np.eye(5)
        corr[0, 1] = corr[1, 0] = spec.rho1
    chol = np.linalg.cholesky(corr)

    steps = _segment_steps(horizons, cfg.n_steps_per_year)
    grid = _time_grid(horizons, steps)
    # The fast factors step as y + (m - y) dt/eps, which diverges once dt reaches 2 eps.
    if spec.multiscale_model and (dt := float(np.max(np.diff(grid)))) >= 2 * spec.eps:
        raise ValidationError(f"eps = {spec.eps} needs time steps < 2*eps; the largest is {dt:.6g}")
    h_steps = {int(i): k for k, i in enumerate(np.cumsum(steps))}

    n_half = cfg.n_paths // 2
    shape = (len(horizons), 2, n_half)
    out = {"int_r": np.empty(shape), "int_lam": np.empty(shape)}
    if inputs.strike is not None:
        out["x"] = np.empty(shape)

    base_stream = np.random.PCG64(cfg.seed)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # A worker needs a CPU of its own; on one CPU the calling thread draws every step.
        worker = pool if _cpus() > 1 else None
        for chunk_idx, start in enumerate(range(0, n_half, CHUNK_BASE_PATHS)):
            size = min(CHUNK_BASE_PATHS, n_half - start)
            rng = np.random.Generator(base_stream.jumped(chunk_idx))
            sl = slice(start, start + size)
            with _DrawAhead(worker, rng, size, len(grid) - 1) as draws:
                _simulate_chunk(draws, size, grid, h_steps, chol, spec, inputs,
                                {key: val[:, :, sl] for key, val in out.items()})
    return {**out, "horizons": horizons, "vasicek": inputs.vasicek, "equity": inputs.equity}


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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _DrawAhead:
    """One chunk's per-step (size, 5) standard normals, drawn ahead by a worker thread.

    ``with _DrawAhead(worker, rng, size, n_steps) as steps`` yields each
    step's block in stream order. The worker draws the steps in order on its
    own copy of ``rng``, into two buffers that take turns, while the caller
    uses the step before (NumPy releases the interpreter lock while it
    fills); it never draws past the last step. The caller waits for a step
    the worker is drawing, but no longer than twice the worker's fastest
    fill: past that, and for a step the worker has not started, it draws
    the step itself from the same state, and the worker goes on from there.
    So a worker whose core is taken away costs the caller about two fills,
    not the time it is away. Whoever draws a step makes the same call from
    the same state, so the floats are a serial loop's. Leaving the ``with``
    stops the worker, an exception included, and raises the worker's own
    error, if any (the caller has drawn its steps). With ``worker`` None the
    caller draws every step.
    """

    def __init__(self, worker, rng, size, n_steps):
        import copy
        import threading

        import numpy as np

        self._worker, self._rng, self._n_steps = worker, rng, n_steps
        self._ahead = copy.deepcopy(rng)  # the worker's copy, taken before either draws
        self._buffers = [np.empty((size, 5)) for _ in range(min(2, n_steps))]
        self._own = np.empty((size, 5))  # the caller's, for a step it draws itself
        self._changed = threading.Condition()
        # Shared under ``_changed``: the first step not drawn yet and the stream's state
        # before it; the step the caller uses (it has finished with those before); the
        # step the worker is drawing and when it began; the worker's fastest fill.
        self._next, self._state = 0, rng.bit_generator.state
        self._using = 0
        self._drawing = None
        self._fill_s = math.inf
        self._stopped = False

    def __enter__(self):
        self._job = self._worker.submit(self._work) if self._worker else None
        return self._steps()

    def __exit__(self, *exc_info):
        with self._changed:
            self._stopped = True
            self._changed.notify_all()
        if self._job:
            self._job.result()

    def _work(self):
        """The worker: draw the next step whenever its buffer is free, until stopped."""
        import time

        changed = self._changed
        try:
            while True:
                with changed:
                    changed.wait_for(lambda: self._stopped or self._next < min(
                        self._n_steps, self._using + 2))
                    if self._stopped:
                        return
                    step, state = self._next, self._state
                    self._drawing = (step, time.perf_counter())
                self._ahead.bit_generator.state = state
                start = time.perf_counter()
                self._ahead.standard_normal(out=self._buffers[step % 2])
                fill_s = time.perf_counter() - start
                state = self._ahead.bit_generator.state
                with changed:
                    self._drawing, self._fill_s = None, min(self._fill_s, fill_s)
                    if self._next == step:
                        self._next, self._state = step + 1, state
                    changed.notify_all()
        finally:
            # A worker that stops, on an error too, leaves the step it was drawing to the caller.
            with changed:
                self._drawing = None
                changed.notify_all()

    def _steps(self):
        import time

        changed = self._changed
        for i in range(self._n_steps):
            with changed:
                self._using = i
                changed.notify_all()
                while self._next == i and self._drawing and self._drawing[0] == i:
                    left = self._drawing[1] + 2 * self._fill_s - time.perf_counter()
                    if left <= 0:
                        break
                    changed.wait(left if left < math.inf else None)
                drawn, state = self._next > i, self._state
            if drawn:
                yield self._buffers[i % 2]
                continue
            self._rng.bit_generator.state = state
            self._rng.standard_normal(out=self._own)
            with changed:
                if self._next == i:
                    self._next, self._state = i + 1, self._rng.bit_generator.state
                    changed.notify_all()
            yield self._own


def _simulate_chunk(draws_by_step, size, grid, h_steps, chol, spec, inputs, out):
    """Step one chunk's factors over ``grid``; write ``out`` at each horizon step.

    ``draws_by_step`` yields each step's (size, 5) standard normals.
    """
    import numpy as np

    va, eq = inputs.vasicek, inputs.equity
    stock = "x" in out
    multi = spec.multiscale_model
    live_z = multi and spec.dlt > 0
    live_yt = multi and stock

    # state arrays: axis 0 = (base, antithetic)
    shape = (2, size)
    r = np.full(shape, va.r)
    ir = np.zeros(shape)
    if multi:
        sqeps = math.sqrt(spec.eps)
        fast_vol = _NU * math.sqrt(2.0) / sqeps
        fast_vol_t = _NUT * math.sqrt(2.0) / sqeps
        vol_z = math.sqrt(spec.dlt) * _SLOW_G
        y = np.full(shape, _Y0)
        z = np.full(shape, _Z0) if live_z else np.broadcast_to(_Z0, shape)
        lam = _intensity(spec.lam, y, z)
        il = np.zeros(shape)
    else:
        lam = spec.lam
        il = 0.0
    if stock:
        logx = np.full(shape, math.log(eq.x))
    if live_yt:
        yt = np.full(shape, _YT0)

    dw = np.empty((size, 5))
    steps = zip(np.diff(grid).tolist(), draws_by_step)
    for i, (dt, draws) in enumerate(steps, start=1):
        sq_dt = math.sqrt(dt)
        # Five correlated columns every step, stepped or not, drawn one step ahead in
        # stream order (``_DrawAhead``): the stream stays fixed, the floats a serial run's.
        np.matmul(draws, chol.T, out=dw)

        if stock:
            sig = _sigma(yt) if live_yt else spec.sigma
            drift_x = (r + lam - eq.q - 0.5 * sig * sig) * dt
            _mirrored(drift_x, sig, dw[:, 0] * sq_dt)
            logx += drift_x
        r_new = r + (va.alpha - va.beta * r) * dt
        _mirrored(r_new, va.eta, dw[:, 1] * sq_dt)
        if multi:
            y = y + (_M - y) / spec.eps * dt
            _mirrored(y, fast_vol, dw[:, 2] * sq_dt)
            if live_z:
                z = z + spec.dlt * -z * dt
                _mirrored(z, vol_z, dw[:, 3] * sq_dt)
        if live_yt:
            drift_yt = (_MT - yt) / spec.eps - fast_vol_t * _vol_risk_price(yt)
            yt = yt + drift_yt * dt
            _mirrored(yt, fast_vol_t, dw[:, 4] * sq_dt)

        ir += 0.5 * (r + r_new) * dt
        r = r_new
        if multi:
            lam_new = _intensity(spec.lam, y, z)
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
    import numpy as np

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
        return spread, math.sqrt(max(var, 0.0)) / schedule.delta
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
