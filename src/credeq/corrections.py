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

The kernel skips g8's bracket, which cancels to O(beta) before its division
by beta. The alpha- and r-partials of P0 are multiples of c = x P0_x - P0
(K Bc(1) N(d2) - put K Bc(0)): P0_alpha = int b * c, P0_r = b * c. With
D = x^2 P0_xx - c and J = int_0^tau s b(s) ds = int b^2 + beta/2 (int b)^2,

    g3 = int b * D,   g8 = J * D   (call, put);   g8_bond = J * Bc.

g3 uses K Bc(1) phi(d2) = x_eff phi(d1). The bracket is D times
(int b + tau^2/2 - tau b)/beta; that factor and J vanish at tau = 0 and have
tau-derivative tau b, as b + beta int b = tau. J adds two terms >= 0.

One kernel holds this algebra: ``_option_terms`` gives P0 and g1..g8 of a
call or put, and alone forms log Bc(1); ``_bond_terms`` gives those of a
bond, and alone forms Bc(l) = exp(-l*lambda*tau) B. Put terms enter through
a 0/1 flag (put = call - x + K*B), not a branch. The same body runs on
Python floats, for single prices, and on NumPy arrays, for whole
calibration grids (``evaluate_options``, ``evaluate_bonds``). Its Vasicek
factors come from one :func:`credeq.rates.vasicek_factors` call per
distinct maturity, as one tuple passed whole: ``_option_factors`` extends
``_rate_factors``' (b, int b, a, G/beta^3, J, B) by (da/deta, v, dv/deta).
The CDS legs take their bonds from ``_corrected_bond`` and ``_protection``.
The kernel is the library's only derivation of P0: :mod:`credeq.pricing`'s
``call_p0``, ``put_p0`` and ``defaultable_bond_p0`` call it. The tests
check it against an independent finite-difference engine with Richardson
extrapolation over a separate derivation of the closed forms
(``tests/reference_oracles.py``).

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

Variants: ``VARIANTS`` is the one table of them (see :class:`Variant`).
``seven_param`` uses all eight coefficients; ``three_param`` (constant
volatility) keeps {V1, V3, V1', V2'}; ``index`` (no default risk, lambda = 0)
keeps {V1, V2, V4, V5, V6}, so its slow correction is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import DomainError, NumericalError, ValidationError
from .pricing import INV_SQRT_2PI, PricingInputs, norm_cdf, norm_pdf
from .rates import EquityParams, VasicekParams, _riskless, vasicek_factors

__all__ = [
    "CorrectionParams",
    "VARIANTS",
    "Variant",
    "evaluate_bonds",
    "evaluate_options",
    "get_variant",
    "price_full",
    "price_p0",
]

# In Greek order: v1..v6 multiply g1..g6, w1 and w2 multiply g7 and g8.
_COEFFICIENTS = ("v1", "v2", "v3", "v4", "v5", "v6", "w1", "w2")
_BOND_COEFFICIENTS = ("v3", "w2")  # fixed by the bond step, as l*V3 and l*W2


@dataclass(frozen=True)
class Variant:
    """One row of ``VARIANTS``; ``columns`` and ``ignored`` are derived here, once.

    ``fitted``: the coefficients the option step fits, in design-column order.
    ``bond_step``: lambda, V3 and W2 come from the bond step; without it lambda = 0.
    ``columns``: the Greek index of each fitted coefficient.
    ``ignored``: every other coefficient, which must be zero.
    """

    name: str
    flag: str
    fitted: tuple
    bond_step: bool
    columns: tuple = field(init=False)
    ignored: tuple = field(init=False)

    def __post_init__(self):
        from_bonds = _BOND_COEFFICIENTS if self.bond_step else ()
        object.__setattr__(self, "columns", tuple(_COEFFICIENTS.index(n) for n in self.fitted))
        object.__setattr__(self, "ignored", tuple(
            n for n in _COEFFICIENTS if n not in self.fitted and n not in from_bonds))


VARIANTS = {row.name: row for row in (
    Variant("seven_param", "seven", ("v1", "v2", "v4", "v5", "v6", "w1"), bond_step=True),
    Variant("three_param", "three", ("v1", "w1"), bond_step=True),
    Variant("index", "index", ("v1", "v2", "v4", "v5", "v6"), bond_step=False),
)}


def get_variant(name: str) -> Variant:
    """The table row of a variant; an unknown name raises ValidationError."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValidationError(
            f"unknown variant {name!r}; expected one of {tuple(VARIANTS)}") from None


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
        for name in _COEFFICIENTS:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"correction coefficient {name} must be finite")


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
    """(b, int b, a, G/beta^3, J, B) at one maturity; B = exp(a - b*r) is the riskless bond."""
    b, big_a, a, g3 = vasicek_factors(va.beta, tau, va.alpha, va.eta)
    j = 2 * g3 + 0.5 * va.beta * big_a * big_a  # J = int b^2 + beta/2 (int b)^2, both >= 0
    return b, big_a, a, g3, j, _riskless(va, b, a)


def _variance(va: VasicekParams, eq: EquityParams, tau: float, big_a: float, g3: float):
    """(v, dv/deta) from the factors int b = ``big_a`` and G/beta^3 = ``g3``.

    v is the integrated log-price variance of the forward, the integral of
    sigma2^2 + (eta*b(s))^2 + 2*rho1*sigma2*eta*b(s) over [0, tau];
    int b^2 = 2*g3; dv/deta is taken at fixed rho1*sigma2 coupling. A square
    out of float range raises NumericalError naming its parameter.
    """
    try:
        sigma2_sq, eta_sq = eq.sigma2**2, va.eta**2
    except OverflowError:  # the larger of the two (both >= 0) overflows
        name, value = ("sigma2", eq.sigma2) if eq.sigma2 > va.eta else ("eta", va.eta)
        raise NumericalError(f"{name} = {value} puts the variance out of float range") from None
    ibb = 2 * g3
    v = sigma2_sq * tau + eta_sq * ibb + 2 * va.eta * eq.rho1 * eq.sigma2 * big_a
    return v, 2 * va.eta * ibb + 2 * eq.rho1 * eq.sigma2 * big_a


# The least variance v whose v * sqrt(v), the denominator in g5, does not
# underflow to 0 (both factors round monotonically, so every larger v is safe).
_MIN_VARIANCE = float.fromhex("0x1.428a2f98d728bp-717")  # about 1.8e-216


def _option_factors(va: VasicekParams, eq, tau: float):
    """``_rate_factors``' tuple extended by (da/deta, v, dv/deta) at one maturity."""
    factors = _rate_factors(va, tau)
    v, v_eta = _variance(va, eq, tau, factors[1], factors[3])
    if v < _MIN_VARIANCE:
        raise DomainError(
            f"variance must be at least {_MIN_VARIANCE!r} for option pricing, got {v}")
    return factors + (2 * va.eta * factors[3], v, v_eta)


def _check_moneyness(x: float, strike: float) -> None:
    """x / strike, whose log the option kernel takes, must be a positive finite float."""
    if not 0 < x / strike < math.inf:
        raise DomainError(f"spot / strike = {x} / {strike} leaves the float range")


def _option_terms(ns, put, x, q, strike, tau, lam, r, factors):
    """P0, (x dP0/dx, dP0/dalpha, dP0/dr) and (g1, ..., g8) of a call or put.

    ``put`` is 0 for a call and 1 for a put; ``x`` is the spot, ``q`` the dividend yield,
    ``lam`` the intensity and ``r`` the short rate; ``factors`` is ``_option_factors``' tuple.
    ``ns`` supplies exp/log/sqrt/cdf_pair/pdf for floats or for arrays, and every
    argument may be a float or an array of broadcastable shape.
    """
    b, big_a, a, _, j, riskless, a_eta, v, v_eta = factors
    log_bc1 = -lam * tau + a - b * r
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
    c = kb * n2 - put * kb0  # x P0_x - P0
    dp_dalpha, dp_dr = big_a * c, b * c

    gamma2 = x_eff * pdf1 / sv  # x^2 P0_xx
    d = gamma2 - c
    g1 = -tau * gamma2
    g2 = -tau * gamma2 * (1 - d1 / sv)
    g3 = big_a * d
    g4 = -gamma2 * d1 * big_a / sv
    g5 = x_eff * pdf1 * (-a_eta / sv + v_eta * (0.25 / sv - 0.5 * log_ratio / (v * sv)))
    g6 = gamma2 * big_a
    g7 = 0.5 * tau * tau * gamma2
    g8 = j * d
    return p0, (x_dpdx, dp_dalpha, dp_dr), (g1, g2, g3, g4, g5, g6, g7, g8)


def _bond_terms(ns, l_lambda, tau, factors):
    """P0 = Bc = exp(-l_lambda*tau) B, partials and Greeks of a bond from ``_rate_factors``'."""
    b, big_a, _, _, j, riskless = factors
    bond = ns.exp(-l_lambda * tau) * riskless
    zero = 0.0 * bond
    g3 = -big_a * bond  # dBc/dalpha
    return bond, (zero, g3, -b * bond), (zero, zero, g3, zero, zero, zero, zero, bond * j)


def _evaluate(inputs: PricingInputs, kind: str):
    """The kernel on floats: (P0, partials, Greeks) of one instrument."""
    va, tau, c = inputs.vasicek, inputs.tau, inputs.credit
    if kind == "bond":
        return _bond_terms(_FLOAT, c.l * c.lam, tau, _rate_factors(va, tau))
    if kind not in ("call", "put"):
        raise ValidationError(f"unknown instrument kind {kind!r}")
    if inputs.strike is None:
        raise ValidationError(f"a {kind} requires a strike")
    if tau <= 0:
        raise ValidationError(f"a {kind} requires tau > 0")
    eq = inputs.equity
    _check_moneyness(eq.x, inputs.strike)
    return _option_terms(_FLOAT, 1.0 if kind == "put" else 0.0, eq.x, eq.q, inputs.strike, tau,
                         c.lam, va.r, _option_factors(va, eq, tau))


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

    tau, strike = np.asarray(tau, dtype=float), np.asarray(strike, dtype=float)
    for k in strike.tolist():
        _check_moneyness(equity.x, k)
    factors = _per_maturity(lambda s: _option_factors(vasicek, equity, s), tau)
    # An overflow gives inf (or nan) silently, as on the float path; the
    # caller's finiteness check names the quote when it reaches P0 or a Greek.
    with np.errstate(over="ignore", invalid="ignore"):
        p0, _, g = _option_terms(_array_namespace(), np.asarray(put, dtype=float), equity.x,
                                 equity.q, strike, tau, np.asarray(lam, dtype=float)[:, None],
                                 vasicek.r, factors)
    return p0, np.stack(g, axis=-1)


def evaluate_bonds(vasicek: VasicekParams, l_lambda, tau):
    """Bc (G x N) and the (g3, g8) columns (G x N x 2) of N bonds at G products l*lambda.

    The product enters only as exp(-l*lambda*tau), so one broadcast covers
    the whole grid.
    """
    import numpy as np

    tau = np.asarray(tau, dtype=float)
    factors = _per_maturity(lambda s: _rate_factors(vasicek, s), tau)
    p0, _, g = _bond_terms(_array_namespace(), np.asarray(l_lambda, dtype=float)[:, None],
                           tau, factors)
    return p0, np.stack((g[2], g[7]), axis=-1)


# ---------------------------------------------------------------------------
# Scalar API: thin wrappers over the float path
# ---------------------------------------------------------------------------


def price_p0(inputs: PricingInputs, kind: str) -> float:
    """Leading-order price of the given instrument kind."""
    return _evaluate(inputs, kind)[0]


def _check_variant(lam: float, coeffs: CorrectionParams, variant: str) -> None:
    """ValidationError unless ``variant`` allows intensity ``lam`` and ``coeffs``."""
    row = get_variant(variant)
    if not row.bond_step and lam != 0.0:
        raise ValidationError(f"{variant} variant requires zero default intensity")
    if row.ignored:  # skips building a list on every seven_param price
        bad = [n for n in row.ignored if getattr(coeffs, n) != 0.0]
        if bad:
            raise ValidationError(
                f"{variant} variant ignores coefficients {bad}; pass them as zero")


def price_full(
    inputs: PricingInputs,
    coeffs: CorrectionParams,
    kind: str,
    variant: str = "seven_param",
) -> float:
    """P0 plus the fast and slow corrections. Never clamps the result.

    P0 and both corrections come from one kernel evaluation. The variant
    only checks its coefficients: the ones it ignores must be zero, so
    ``index`` (v3 = w1 = w2 = 0, lambda = 0) adds a zero slow correction and
    is bit-identical to ``seven_param`` with the same inputs.

    The first-order (1-l) term of the general slow correction vanishes for
    both kinds: options carry l = 1 and the bond price has no x-dependence.
    """
    _check_variant(inputs.credit.lam, coeffs, variant)
    p0, _, g = _evaluate(inputs, kind)
    return _corrected(p0, g, coeffs, inputs.credit.l if kind == "bond" else 1.0, kind)


def _corrected(p0: float, g: tuple, coeffs: CorrectionParams, l_eff: float, kind: str) -> float:
    """P0 plus the fast and slow corrections of Greeks ``g`` at loss rate ``l_eff``.

    The one copy of the correction sum, shared by :func:`price_full` and
    :func:`_corrected_bond`; a non-finite result raises NumericalError.
    """
    fast = (coeffs.v1 * g[0] + coeffs.v2 * g[1] + l_eff * coeffs.v3 * g[2]
            + coeffs.v4 * g[3] + coeffs.v5 * g[4] + coeffs.v6 * g[5])
    slow = coeffs.w1 * g[6] + l_eff * coeffs.w2 * g[7]
    price = p0 + fast + slow
    if not math.isfinite(price):
        raise NumericalError(f"corrected {kind} price is not finite")
    return price


def _corrected_bond(l: float, lam: float, coeffs: CorrectionParams, tau: float, factors) -> float:
    """``price_full`` of a bond at loss rate ``l``, less its variant check, from ``factors``."""
    p0, _, g = _bond_terms(_FLOAT, l * lam, tau, factors)
    return _corrected(p0, g, coeffs, l, "bond")


def _protection(l: float, lam: float, coeffs: CorrectionParams, tau: float, factors) -> float:
    """The riskless bond minus the corrected bond at loss rate ``l``, both at ``tau``."""
    return factors[5] - _corrected_bond(l, lam, coeffs, tau, factors)
