"""Asymptotic price corrections, the eight Greeks, and the combined price.

The corrected price is P0 plus a fast-scale and a slow-scale adjustment,
each a linear combination of Greeks of the closed-form P0 with calibrated
group coefficients:

    fast = V1*g1 + V2*g2 + l*V3*g3 + V4*g4 + V5*g5 + V6*g6
    slow = V1'*g7 + l*V2'*g8

where l is the structural loss rate of the instrument: options on the
defaultable stock always carry l = 1 (the stock is wiped out at default),
bonds carry their recovery-of-market-value loss rate. The Greeks are

    g1 = -tau * x^2 P0_xx            g5 = x P0_eta,x
    g2 = -tau * x d/dx (x^2 P0_xx)   g6 = x P0_alpha,x
    g3 = d/dalpha (x P0_x - P0)      g7 = tau^2/2 * x^2 P0_xx
    g4 = x^2 P0_xx,alpha             g8 = (1/beta)[ g6 - P0_alpha
                                          + tau^2/2 (x^2 P0_xx - x P0_x + P0)
                                          - tau (x P0_rx - P0_r) ]

For the bond the x-derivatives vanish and the two surviving combinations
are taken in the bond-curve convention used by the calibration:

    g3_bond = dBc/dalpha
    g8_bond = (1/beta)[ -dBc/dalpha + tau^2/2 Bc + tau dBc/dr ].

One kernel holds this algebra: ``_option_terms`` gives P0 and g1..g8 of a
call or put, ``_bond_terms`` those of a bond. Put terms enter through a 0/1
flag (put = call - x + K*B), not a branch. The same body runs on Python
floats, for single prices, and on NumPy arrays, for whole calibration
grids (``evaluate_options``, ``evaluate_bonds``). The Vasicek factors it
needs (b, int b, int b^2, a, da/deta, B) are computed once per distinct
maturity by the scalar functions of :mod:`credeq.rates`. A
finite-difference engine with Richardson extrapolation over the
closed forms of :mod:`credeq.pricing` serves as an independent cross-check.

NumPy is imported only inside the array path, so a single price loads
``math`` alone. The array path's normal CDF, ``_ndtr``, is a NumPy port of
Cephes ``ndtr`` (the algorithm behind ``scipy.special.ndtr``), built on
Cody's rational approximations of erf and erfc (W. J. Cody, Math. Comp.
23, 1969): with x = a/sqrt(2), the erf rational for |x| < 1/sqrt(2),
1 - erf for |x| < 1, and exp(-x^2) times the P/Q erfc rational below 8 and
the R/S one above; past x^2 = MAXLOG, where exp(-x^2) underflows, erfc is
0 and the CDF exactly 0 or 1 (infinities included). It takes exp from the
C library, as Cephes does, so it equals ``scipy.special.ndtr`` bit for bit
and calibration loads no scipy.

Variants: ``seven_param`` uses all eight coefficients; ``three_param``
(constant volatility) keeps {V1, V3, V1', V2'}; ``index`` (no default risk,
lambda = 0) keeps {V1, V2, V4, V5, V6} and drops the slow correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import ConfigurationError, DomainError, NumericalError, ValidationError
from .pricing import (
    INV_SQRT_2PI,
    PricingInputs,
    call_p0,
    defaultable_bond_p0,
    norm_cdf,
    norm_pdf,
    put_p0,
)
from .rates import (
    VasicekParams,
    factor_a,
    factor_a_deta,
    factor_b,
    int_b,
    int_b_squared,
)

__all__ = [
    "CorrectionParams",
    "GreekVector",
    "VARIANTS",
    "evaluate_bonds",
    "evaluate_options",
    "greeks",
    "greeks_fd",
    "p0_partials",
    "correction_fast",
    "correction_slow",
    "price_full",
    "price_p0",
]

VARIANTS = ("seven_param", "three_param", "index")


@dataclass(frozen=True)
class CorrectionParams:
    """Fast-scale (v1..v6) and slow-scale (w1, w2) group coefficients.

    Signs are unconstrained; calibrated values are routinely negative.
    """

    v1: float = 0.0
    v2: float = 0.0
    v3: float = 0.0
    v4: float = 0.0
    v5: float = 0.0
    v6: float = 0.0
    w1: float = 0.0
    w2: float = 0.0

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "v4", "v5", "v6", "w1", "w2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"correction coefficient {name} must be finite")


@dataclass(frozen=True)
class GreekVector:
    g1: float
    g2: float
    g3: float
    g4: float
    g5: float
    g6: float
    g7: float
    g8: float

    def as_tuple(self):
        return (self.g1, self.g2, self.g3, self.g4, self.g5, self.g6, self.g7, self.g8)


# ---------------------------------------------------------------------------
# The kernel: one body for floats and for arrays
# ---------------------------------------------------------------------------

_FLOAT = SimpleNamespace(exp=math.exp, log=math.log, sqrt=math.sqrt,
                         cdf_pair=lambda a, b: (norm_cdf(a), norm_cdf(b)), pdf=norm_pdf)


# Cephes ndtr.c: erf(x) = x T(x^2)/U(x^2) for |x| <= 1; erfc(x) =
# exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and exp(-x^2) R(x)/S(x) from 8 up.
# Coefficients from the highest power down; U, Q and S are monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821794e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


def _horner(x, coefs, monic: bool = False):
    """Polynomial in x by Horner's rule, in Cephes polevl/p1evl order.

    ``monic`` adds a leading coefficient 1 in front of ``coefs``.
    """
    acc = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        acc *= x
        acc += c
    return acc


def _erfc_tail(z, num, den):
    """exp(-z^2) num(z)/den(z), the Cephes erfc for z >= 1.

    exp is the C library's, as in Cephes: NumPy's own float exp differs from
    it by an ulp on about 5% of arguments, which ill-conditioned option
    designs carried to 7e-11 in the coefficients. NumPy's complex exp calls
    the C library's cexp, which is exp for a zero imaginary part.
    """
    import numpy as np

    out = np.exp((-z * z).astype(complex)).real.copy()
    out *= _horner(z, num)
    out /= _horner(z, den, monic=True)
    return out


def _ndtr(a):
    """Standard normal CDF of an array: Cephes ``ndtr``, branch for branch."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRT1_2  # 1-d, so that a 0-d argument can be indexed too
    z = np.abs(x)
    # On the calib-days and cli-day grids 99.4% of the elements have
    # 1 <= |x| < 8, so the P/Q rational runs on every element (clipped into
    # its range) and the other two only on their own elements.
    with np.errstate(under="ignore"):
        erfc = _erfc_tail(np.minimum(np.maximum(z, 1.0), 8.0), _ERFC_P, _ERFC_Q)
        far = z >= 8.0
        if far.any():
            with np.errstate(over="ignore", invalid="ignore"):
                # exp(-z^2) underflows past MAXLOG, where the rationals
                # overflow (inf/inf at z = inf); Cephes returns erfc = 0 there.
                erfc[far] = np.where(z[far] ** 2 > _MAXLOG, 0.0,
                                     _erfc_tail(z[far], _ERFC_R, _ERFC_S))
    half = 0.5 * erfc
    y = np.where(x > 0, 1.0 - half, half)
    near = z < 1.0
    if near.any():
        t, x_near = z[near], x[near]
        tt = t * t
        erf_t = t * _horner(tt, _ERF_T) / _horner(tt, _ERF_U, monic=True)
        half = 0.5 * (1.0 - erf_t)
        # erf is odd: erf(x) = copysign(erf(|x|), x) bit for bit.
        y[near] = np.where(t < _SQRT1_2, 0.5 + 0.5 * np.copysign(erf_t, x_near),
                           np.where(x_near > 0, 1.0 - half, half))
    return y.reshape(a.shape)


def _array_namespace():
    import numpy as np

    def pdf(z):
        return INV_SQRT_2PI * np.exp(-0.5 * z * z)

    def cdf_pair(a, b):
        # One _ndtr pass over both: half as many NumPy calls, each twice as long.
        n = _ndtr(np.stack((a, b)))
        return n[0], n[1]

    return SimpleNamespace(exp=np.exp, log=np.log, sqrt=np.sqrt, cdf_pair=cdf_pair, pdf=pdf)


def _rate_factors(va: VasicekParams, tau: float):
    """(b, int b, a, B) at one maturity; B = exp(a - b*r) is the riskless bond."""
    b = factor_b(va.beta, tau)
    a = factor_a(va, tau)
    return b, int_b(va.beta, tau), a, math.exp(a - b * va.r)


def _option_factors(va: VasicekParams, eq, tau: float):
    """Rate factors plus (da/deta, v, dv/deta) at one maturity.

    v is :func:`credeq.pricing.variance_v` on the hoisted integrals; dv/deta
    is taken at fixed rho1*sigma2 coupling.
    """
    b, big_a, a, riskless = _rate_factors(va, tau)
    ibb = int_b_squared(va.beta, tau)
    v = eq.sigma2**2 * tau + va.eta**2 * ibb + 2 * va.eta * eq.rho1 * eq.sigma2 * big_a
    if v <= 0:
        raise DomainError(f"variance must be positive for option pricing, got {v}")
    v_eta = 2 * va.eta * ibb + 2 * eq.rho1 * eq.sigma2 * big_a
    return b, big_a, a, riskless, factor_a_deta(va, tau), v, v_eta


def _option_terms(ns, put, x, q, strike, tau, log_bc1, b, big_a, a_eta, v, v_eta, riskless,
                  beta):
    """P0, (x dP0/dx, dP0/dalpha, dP0/dr) and (g1, ..., g8) of a call or put.

    ``put`` is 0 for a call and 1 for a put; ``x`` is the spot and ``q`` the
    dividend yield; ``log_bc1`` is log Bc(1), ``big_a`` = int b = -da/dalpha.
    ``ns`` supplies exp/log/sqrt/cdf_pair/pdf for floats or for arrays, and every
    argument may be a float or an array of broadcastable shape.
    """
    sv = ns.sqrt(v)
    x_eff = x * ns.exp(-q * tau)
    # log(x/K) - q*tau, not log(x_eff/K): near the money at tiny tau the
    # log-ratio would otherwise carry the rounding of x_eff.
    log_ratio = ns.log(x / strike) - q * tau - log_bc1
    d1 = (log_ratio + 0.5 * v) / sv
    d2 = (log_ratio - 0.5 * v) / sv
    (n1, n2), pdf1 = ns.cdf_pair(d1, d2), ns.pdf(d1)
    kb = strike * ns.exp(log_bc1)
    kb0 = strike * riskless

    p0 = -put * x_eff + x_eff * n1 - kb * n2 + put * kb0
    x_dpdx = x_eff * n1 - put * x_eff
    dp_dalpha = kb * big_a * n2 - put * kb0 * big_a
    dp_dr = kb * b * n2 - put * kb0 * b

    gamma2 = x_eff * pdf1 / sv  # x^2 P0_xx
    g1 = -tau * gamma2
    g2 = -tau * gamma2 * (1 - d1 / sv)
    g3 = -kb * big_a * (n2 - ns.pdf(d2) / sv) + put * kb0 * big_a  # put: -K dB/dalpha
    g4 = -gamma2 * d1 * big_a / sv
    g5 = x_eff * pdf1 * (-a_eta / sv + v_eta * (0.25 / sv - 0.5 * log_ratio / (v * sv)))
    g6 = gamma2 * big_a
    g7 = 0.5 * tau * tau * gamma2
    x_dpdrdx = b * gamma2
    g8 = (
        g6
        - dp_dalpha
        + 0.5 * tau * tau * (gamma2 - x_dpdx + p0)
        - tau * (x_dpdrdx - dp_dr)
    ) / beta
    return p0, (x_dpdx, dp_dalpha, dp_dr), (g1, g2, g3, g4, g5, g6, g7, g8)


def _bond_terms(bond, tau, b, big_a, beta):
    """The bond's P0, partials and Greeks, from its price Bc = exp(-l*lambda*tau) B."""
    zero = 0.0 * bond
    g3 = -big_a * bond  # dBc/dalpha
    g8 = bond * (big_a + 0.5 * tau * tau - tau * b) / beta
    return bond, (zero, g3, -b * bond), (zero, zero, g3, zero, zero, zero, zero, g8)


def _evaluate(inputs: PricingInputs, kind: str):
    """The kernel on floats: (P0, partials, Greeks) of one instrument."""
    va, tau = inputs.vasicek, inputs.tau
    if kind == "bond":
        b, big_a, _, riskless = _rate_factors(va, tau)
        c = inputs.credit
        return _bond_terms(math.exp(-c.l * c.lam * tau) * riskless, tau, b, big_a, va.beta)
    if kind not in ("call", "put"):
        raise ValidationError(f"unknown instrument kind {kind!r}")
    if inputs.strike is None:
        raise ValidationError(f"a {kind} requires a strike")
    if tau <= 0:
        raise ValidationError(f"a {kind} requires tau > 0")
    b, big_a, a, riskless, a_eta, v, v_eta = _option_factors(va, inputs.equity, tau)
    log_bc1 = -inputs.credit.lam * tau + a - b * va.r
    eq = inputs.equity
    return _option_terms(_FLOAT, 1.0 if kind == "put" else 0.0, eq.x, eq.q, inputs.strike, tau,
                         log_bc1, b, big_a, a_eta, v, v_eta, riskless, va.beta)


def _per_maturity(factors, tau):
    """Columns of ``factors(s)`` evaluated once per distinct maturity, one row per quote."""
    import numpy as np

    distinct, index = np.unique(tau, return_inverse=True)
    return np.array([factors(float(s)) for s in distinct])[index].T


def evaluate_options(vasicek: VasicekParams, equity, lam, tau, strike, put):
    """P0 (G x Q) and g1..g8 (G x Q x 8) of Q options at G default intensities.

    ``lam`` has shape (G,); ``tau``, ``strike`` and ``put`` (1 for a put,
    0 for a call) have shape (Q,). The intensity enters only through
    log Bc(1), so one broadcast covers the whole grid.
    """
    import numpy as np

    tau = np.asarray(tau, dtype=float)
    b, big_a, a, riskless, a_eta, v, v_eta = _per_maturity(
        lambda s: _option_factors(vasicek, equity, s), tau)
    log_bc1 = -np.asarray(lam, dtype=float)[:, None] * tau + a - b * vasicek.r
    p0, _, g = _option_terms(_array_namespace(), np.asarray(put, dtype=float), equity.x, equity.q,
                             np.asarray(strike, dtype=float), tau, log_bc1, b, big_a, a_eta, v,
                             v_eta, riskless, vasicek.beta)
    return p0, np.stack(g, axis=-1)


def evaluate_bonds(vasicek: VasicekParams, l_lambda, tau):
    """Bc (G x N) and the (g3, g8) columns (G x N x 2) of N bonds at G products l*lambda.

    The product enters only as exp(-l*lambda*tau), so one broadcast covers
    the whole grid.
    """
    import numpy as np

    tau = np.asarray(tau, dtype=float)
    b, big_a, _, riskless = _per_maturity(lambda s: _rate_factors(vasicek, s), tau)
    bond = np.exp(-np.asarray(l_lambda, dtype=float)[:, None] * tau) * riskless
    p0, _, g = _bond_terms(bond, tau, b, big_a, vasicek.beta)
    return p0, np.stack((g[2], g[7]), axis=-1)


# ---------------------------------------------------------------------------
# Scalar API: thin wrappers over the float path
# ---------------------------------------------------------------------------


def _structural_loss(inputs: PricingInputs, kind: str) -> float:
    """Options lose the full stock at default; bonds lose their loss-rate fraction."""
    if kind in ("call", "put"):
        return 1.0
    if kind == "bond":
        return inputs.credit.l
    raise ValidationError(f"unknown instrument kind {kind!r}")


def price_p0(inputs: PricingInputs, kind: str) -> float:
    """Leading-order price of the given instrument kind."""
    return _evaluate(inputs, kind)[0]


def p0_partials(inputs: PricingInputs, kind: str):
    """Analytic (P0, x*dP0/dx, dP0/dalpha, dP0/dr) for the closed forms."""
    p0, partials, _ = _evaluate(inputs, kind)
    return (p0, *partials)


def greeks(inputs: PricingInputs, kind: str) -> GreekVector:
    """Closed-form Greek vector g1..g8 for a call, put, or bond."""
    return GreekVector(*_evaluate(inputs, kind)[2])


def _fast(coeffs: CorrectionParams, g, l_eff: float) -> float:
    return (
        coeffs.v1 * g[0]
        + coeffs.v2 * g[1]
        + l_eff * coeffs.v3 * g[2]
        + coeffs.v4 * g[3]
        + coeffs.v5 * g[4]
        + coeffs.v6 * g[5]
    )


def _slow(coeffs: CorrectionParams, g, l_eff: float) -> float:
    return coeffs.w1 * g[6] + l_eff * coeffs.w2 * g[7]


def correction_fast(inputs: PricingInputs, coeffs: CorrectionParams, kind: str) -> float:
    """Fast-scale price adjustment V1*g1 + V2*g2 + l*V3*g3 + V4*g4 + V5*g5 + V6*g6."""
    return _fast(coeffs, _evaluate(inputs, kind)[2], _structural_loss(inputs, kind))


def correction_slow(inputs: PricingInputs, coeffs: CorrectionParams, kind: str) -> float:
    """Slow-scale price adjustment V1'*g7 + l*V2'*g8.

    The first-order (1-l) term of the general slow correction vanishes for
    both supported cases: options carry l = 1 and the bond price has no
    x-dependence.
    """
    return _slow(coeffs, _evaluate(inputs, kind)[2], _structural_loss(inputs, kind))


def _check_variant(inputs: PricingInputs, coeffs: CorrectionParams, variant: str) -> None:
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "index":
        if inputs.credit.lam != 0.0:
            raise ConfigurationError("index variant requires zero default intensity")
        bad = [n for n in ("v3", "w1", "w2") if getattr(coeffs, n) != 0.0]
        if bad:
            raise ConfigurationError(
                f"index variant ignores coefficients {bad}; pass them as zero"
            )
    elif variant == "three_param":
        bad = [n for n in ("v2", "v4", "v5", "v6") if getattr(coeffs, n) != 0.0]
        if bad:
            raise ConfigurationError(
                f"three_param variant ignores coefficients {bad}; pass them as zero"
            )


def price_full(
    inputs: PricingInputs,
    coeffs: CorrectionParams,
    kind: str,
    variant: str = "seven_param",
) -> float:
    """P0 plus the variant's applicable corrections. Never clamps the result.

    P0 and both corrections come from one kernel evaluation. ``index``
    omits the slow correction entirely; the result is bit-identical to
    ``seven_param`` with lambda = 0 and v3 = w1 = w2 = 0.
    """
    _check_variant(inputs, coeffs, variant)
    p0, _, g = _evaluate(inputs, kind)
    l_eff = _structural_loss(inputs, kind)
    price = p0 + _fast(coeffs, g, l_eff)
    if variant != "index":
        price = price + _slow(coeffs, g, l_eff)
    if not math.isfinite(price):
        raise NumericalError(f"corrected {kind} price is not finite")
    return price


# ---------------------------------------------------------------------------
# Finite-difference cross-check engine
# ---------------------------------------------------------------------------

# Richardson-extrapolated central differences over the closed-form P0.
# Step sizes grow with derivative order: roundoff in a k-th order stencil
# scales like eps / h^k, so h = 1e-4 is reserved for first derivatives and
# nested/higher stencils use wider steps (the closed forms vary on O(1)
# parameter scales, so the Richardson truncation stays ~h^4).
FD_STEP_FIRST = 1e-4
FD_STEP_SECOND = 2e-3
FD_STEP_PARAM = 5e-3
FD_STEP_THIRD = 6e-3


def _richardson_d1(f, x0: float, h: float) -> float:
    def central(step):
        return (f(x0 + step) - f(x0 - step)) / (2 * step)

    if h <= 0 or x0 + h == x0:
        raise NumericalError("finite-difference step underflowed")
    return (4 * central(h / 2) - central(h)) / 3


def _richardson_d2(f, x0: float, h: float) -> float:
    def central(step):
        return (f(x0 + step) - 2 * f(x0) + f(x0 - step)) / (step * step)

    if h <= 0 or x0 + h == x0:
        raise NumericalError("finite-difference step underflowed")
    return (4 * central(h / 2) - central(h)) / 3


def _reprice(inputs: PricingInputs, kind: str, *, x=None, alpha=None, eta=None, r=None):
    va, eq = inputs.vasicek, inputs.equity
    va2 = VasicekParams(
        alpha=va.alpha if alpha is None else alpha,
        beta=va.beta,
        eta=va.eta if eta is None else eta,
        r=va.r if r is None else r,
    )
    eq2 = eq if x is None else _with_spot(eq, x)
    pin = PricingInputs(va2, eq2, inputs.credit, inputs.tau, inputs.strike)
    return _closed_form(pin, kind)


def _closed_form(inputs: PricingInputs, kind: str) -> float:
    """P0 from :mod:`credeq.pricing`, so the oracle shares no algebra with the kernel."""
    forms = {"call": call_p0, "put": put_p0, "bond": defaultable_bond_p0}
    if kind not in forms:
        raise ValidationError(f"unknown instrument kind {kind!r}")
    return forms[kind](inputs)


def _with_spot(eq, x: float):
    from dataclasses import replace

    return replace(eq, x=x)


def greeks_fd(inputs: PricingInputs, kind: str) -> GreekVector:
    """Greek vector from Richardson central differences of the closed forms.

    Independent of the analytic derivative algebra; intended as an oracle
    for :func:`greeks` and for payoffs whose analytic partials are in doubt.
    """
    tau = inputs.tau
    va = inputs.vasicek
    x0 = inputs.equity.x
    hx = FD_STEP_FIRST * x0
    ha = FD_STEP_PARAM
    hr = FD_STEP_PARAM
    # eta must stay nonnegative across the stencil
    he = min(FD_STEP_SECOND, 0.9 * va.eta)
    if kind != "bond" and he <= 0:
        raise NumericalError("finite differences in eta require eta > 0")

    def p_of_x(x):
        return _reprice(inputs, kind, x=x)

    if kind == "bond":
        bond = defaultable_bond_p0(inputs)
        d_alpha = _richardson_d1(lambda a: _reprice(inputs, kind, alpha=a), va.alpha, ha)
        d_r = _richardson_d1(lambda r: _reprice(inputs, kind, r=r), va.r, hr)
        g3 = d_alpha
        g8 = (-d_alpha + 0.5 * tau * tau * bond + tau * d_r) / va.beta
        return GreekVector(0.0, 0.0, g3, 0.0, 0.0, 0.0, 0.0, g8)

    p0 = _closed_form(inputs, kind)
    dx = _richardson_d1(p_of_x, x0, hx)
    dxx = _richardson_d2(p_of_x, x0, FD_STEP_SECOND * x0)
    gamma2 = x0 * x0 * dxx

    # Third x-derivative via a wider 5-point stencil (noise ~ eps/h^3).
    h3 = FD_STEP_THIRD * x0

    def d3(step):
        return (
            p_of_x(x0 + 2 * step)
            - 2 * p_of_x(x0 + step)
            + 2 * p_of_x(x0 - step)
            - p_of_x(x0 - 2 * step)
        ) / (2 * step**3)

    dxxx = (4 * d3(h3 / 2) - d3(h3)) / 3

    def dx_at(**kw):
        return _richardson_d1(lambda x: _reprice(inputs, kind, x=x, **kw), x0, hx)

    def dxx_at(**kw):
        return _richardson_d2(
            lambda x: _reprice(inputs, kind, x=x, **kw), x0, FD_STEP_SECOND * x0
        )

    d_alpha = _richardson_d1(lambda a: _reprice(inputs, kind, alpha=a), va.alpha, ha)
    d_r = _richardson_d1(lambda r: _reprice(inputs, kind, r=r), va.r, hr)
    dx_dalpha = _richardson_d1(lambda a: dx_at(alpha=a), va.alpha, ha)
    dx_deta = _richardson_d1(lambda e: dx_at(eta=e), va.eta, he)
    dx_dr = _richardson_d1(lambda r: dx_at(r=r), va.r, hr)
    dxx_dalpha = _richardson_d1(lambda a: dxx_at(alpha=a), va.alpha, ha)

    g1 = -tau * gamma2
    g2 = -tau * x0 * (2 * x0 * dxx + x0 * x0 * dxxx)
    g3 = x0 * dx_dalpha - d_alpha
    g4 = x0 * x0 * dxx_dalpha
    g5 = x0 * dx_deta
    g6 = x0 * dx_dalpha
    g7 = 0.5 * tau * tau * gamma2
    g8 = (
        g6 - d_alpha + 0.5 * tau * tau * (gamma2 - x0 * dx + p0) - tau * (x0 * dx_dr - d_r)
    ) / va.beta
    return GreekVector(g1, g2, g3, g4, g5, g6, g7, g8)
