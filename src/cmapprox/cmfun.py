"""Bounded completely monotone functions, their normalized classes, and power scaling.

A CMFunction bundles one pointwise evaluator (numpy arrays of real z >= 0
or of complex z with Re z >= 0), an optional explicit representing
measure and the moments m_0..m_4 of that measure (extended reals).  The
normalized classes, tested by check_bk(g, k), are

    B1: m_0 = m_1 = 1;  B2: additionally m_2 < inf;  B3, B4 likewise.

Derivatives at zero are g^(k)(0) = (-1)^k m_k and are stored exactly
from the moments.  Derivatives at z > 0 are the closed-form transform
`PositiveMeasure.laplace(z, order)` of the measure; a power-scaled
function (such as `euler_pow4` under the `nonb2` suite), which keeps no
measure, gets its first two from those of g by the chain rule
(`deriv_real`).

Every B2 built-in also carries its log-defect L(w) = log g(w) + w
(`LogDefect`): the cumulant series sum_{k>=2} (-1)^k kappa_k w^k/k! below a
radius, a closed form above it, so that L keeps full relative precision
near 0.  `CMFunction.defect` and `CMFunction.residual` build the defect
g(z) - e^{-z} and its second-order remainder from it as
e^{-z} expm1(L(z)), which does not cancel where g(z) and e^{-z} agree to
many digits; see Higham, Accuracy and Stability of Numerical Algorithms
(SIAM, 2nd ed. 2002), section 1.14.  A `from_measure` function in B1 (a
`measure:` string) gets its cumulants from the raw moments of its measure;
`frac_tail` (outside B2) carries none: its defect is the direct difference,
and it has no second-order remainder.

The power scaling g_n(z) = g(z/n)^n keeps no explicit measure (the
n-fold convolution is not materialized); its derivatives at zero are
filled in closed form from those of g, and its log-defect is
L_n(z) = n L(z/n).  `g.defect(z, n)` and `g.residual(z, n)` are those of
g_n without building it, with n a whole number or an array of them
broadcasting against z, so that one call covers a grid of n; each value
equals power_scale(g, n)'s bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .measures import PolyExpSegment, PositiveMeasure, PowerLawSegment

__all__ = [
    "CMFunction",
    "LogDefect",
    "ScaledFamily",
    "from_measure",
    "power_scale",
    "euler",
    "spline",
    "kendall",
    "yosida",
    "hille",
    "chung",
    "frac_tail",
    "exponential",
    "check_bk",
    "require_b1",
    "BUILTIN_NAMES",
]

MOMENT_TOL = 1e-12


# the log-defect series runs to w^SERIES_DEGREE; its radius is where that
# term falls to SERIES_TAIL of the w^2 term
SERIES_DEGREE = 32
SERIES_TAIL = 1e-17


class LogDefect(NamedTuple):
    """L_n(z) = n L(z/n) with L(w) = log g(w) + w, the log-defect of g_n.

    For |w| < radius, L(w) = sum_{k>=2} coeffs[k-2] w^k, summed by Horner;
    elsewhere L(w) = closed(w).  An empty series with an infinite radius is
    L = 0, the exact zero of exp and kendall:t=1.
    """

    coeffs: tuple
    radius: float
    closed: object = None
    scale: int = 1

    def __call__(self, z, lead: bool = True, n=1):
        """L_{mn}(z) = mn L(z/(mn)), m = scale: the log-defect of (g_m)_n, with n
        a whole number or an array of them broadcasting against z.  Without
        `lead`, L_{mn}(z) - coeffs[0] z^2/(mn), each part summed without that
        leading term."""
        m = self.scale * n
        w = np.asarray(z) / m
        out = np.empty_like(w)
        near = np.abs(w) < self.radius
        wn = w[near]
        acc = np.zeros_like(wn)
        for c in self.coeffs[:0:-1]:     # c_K .. c_3: acc = sum_{k>=3} c_k w^{k-2}
            acc += c
            acc *= wn
        if self.coeffs and lead:
            acc += self.coeffs[0]
        acc *= wn
        acc *= wn
        out[near] = acc
        del wn, acc     # a stacked grid holds fewer full-size arrays at once
        if not near.all():
            wf = w[~near]
            with np.errstate(divide="ignore"):
                val = self.closed(wf)
            out[~near] = val if lead else val - self.coeffs[0] * wf * wf
        out *= m
        return out


def _log_series(taylor) -> list:
    """The series coefficients c_2..c_SERIES_DEGREE of L = log g + w from
    those of g, taylor[j] = g^(j)(0)/j! = (-1)^j m_j/j!: with taylor[0] = 1,
    log g = sum_j l_j w^j where l_j = f_j - (1/j) sum_{i<j} i l_i f_{j-i},
    and l_1 = -1 cancels w (the cumulants kappa_k = (-1)^k k! l_k)."""
    l = [0.0] * (SERIES_DEGREE + 1)
    for j in range(1, SERIES_DEGREE + 1):
        l[j] = taylor[j] - sum(i * l[i] * taylor[j - i] for i in range(1, j)) / j
    return l[2:]


def _log_defect(coeffs, closed) -> LogDefect:
    """L from its series coefficients c_2.. and its closed form.  The radius
    is the smallest |w| at which one of the last four terms reaches
    SERIES_TAIL |c_2 w^2|; there the closed form cancels by about
    1/|c_2 w|, a few ulp for every built-in."""
    last = [(k, c) for k, c in enumerate(coeffs[-4:], start=len(coeffs) - 2) if c != 0.0]
    radius = min(((SERIES_TAIL * abs(coeffs[0]) / abs(c)) ** (1.0 / (k - 2)) for k, c in last),
                 default=math.inf)
    return LogDefect(tuple(float(c) for c in coeffs), radius, closed)


_ZERO_DEFECT = LogDefect((), math.inf)


def _part(a, mask):
    """The entries of a (a per-point n or scale, or a column of them) at the
    points of mask; a scalar as it is."""
    return np.broadcast_to(a, mask.shape)[mask] if np.ndim(a) else a


def _expm1_minus(x):
    """expm1(x) - x = sum_{k>=2} x^k/k! for |x| <= 1, to SERIES_DEGREE terms."""
    acc = np.zeros_like(x)
    for k in range(SERIES_DEGREE, 1, -1):
        acc += 1.0
        acc *= x
        acc /= k
    acc *= x
    return acc


class CMFunction(NamedTuple):
    """A bounded completely monotone function on [0, inf)."""

    name: str
    evaluate: object                        # numpy array -> array; real input gives real output
    measure: PositiveMeasure | None = None
    moments: tuple = (1.0, 1.0, math.inf, math.inf, math.inf)
    limit_at_inf: float = 0.0               # g(inf) = mass of the atom at 0
    deriv_real: object = None               # (z, order) -> value, for g without a measure
    rational_n: int | None = None           # n with g(z) = (1 + z/n)^{-n} (Euler type)
    log_defect: LogDefect | None = None     # L(w) = log g(w) + w (B2 built-ins, measures)

    @property
    def tail_integrable(self) -> bool:
        """Whether int_1^inf g(s)/s ds < inf (fails iff g(inf) > 0 here)."""
        return self.limit_at_inf == 0.0

    def __call__(self, z):
        """g(z) for real z >= 0, with real values, or for complex z with
        Re z >= 0, with complex ones (scalar or array)."""
        return self.evaluate(np.asarray(z, dtype=complex if np.iscomplexobj(z) else float))

    def at(self, t: float) -> CMFunction:
        """The member g_t of a family: a fixed function is its own (see ScaledFamily)."""
        return self

    def defect(self, z, n=1):
        """g_n(z) - e^{-z}, g_n = g(./n)^n, on an array of z >= 0 or of complex z
        with Re z >= 0; n is a whole number or an array of them broadcasting
        against z, and each value equals power_scale(g, n).defect(z)."""
        return self._difference(np.asarray(z), n, second=False)

    def residual(self, z, n=1):
        """g_n(z) - e^{-z} - (g_n''(0) - 1)/2 z^2 e^{-z}, the second-order
        remainder, with n as in `defect`."""
        return self._difference(np.asarray(z), n, second=True)

    def _power(self, z, n):
        """g(z/n)^n as g_n = power_scale(g, n) evaluates it: g itself at n = 1,
        else one call of `evaluate` and the power with a whole n.  For an
        array n (shaped as z) the power is taken per distinct n with a Python
        int, since numpy squares (n = 2) a scalar exponent by another loop
        than an array of them."""
        if np.ndim(n) == 0:
            return self.evaluate(z) if n == 1 else self.evaluate(z / n) ** n
        v = self.evaluate(z / n)
        for k in set(n.ravel().tolist()):   # not np.unique, which imports numpy.ma
            if k != 1:
                at = n == k
                v[at] = v[at] ** k
        return v

    def _difference(self, z, n, second: bool):
        """With x = L_{mn}(z), the log-defect of g_n: e^{-z} expm1(x) where
        |x| <= 1, and for the remainder e^{-z} ((expm1(x) - x) + (x - c_2 z^2/(mn))),
        each part without its leading term.  Where |x| > 1 nothing cancels and
        the difference is taken directly, with g_n(z) = e^{x - z} for |z| <= mn
        (n ulp for the n-th power would be worse) and g_n(z) itself beyond.
        Without L the defect is the direct difference at every point, and the
        remainder a ValueError (every B2 function the package builds has L)."""
        L = self.log_defect
        if L is None and second:
            raise ValueError(f"{self.name}: the second-order residual needs a log-defect")
        if np.ndim(n):    # z on the full grid; n, and the scale m below, stay a column
            n = np.asarray(n)
            z = np.broadcast_to(z, np.broadcast_shapes(z.shape, n.shape))
        e = np.exp(-z)
        if L is None:
            return self._power(z, np.broadcast_to(n, z.shape) if np.ndim(n) else n) - e
        m = L.scale * n
        lead = L.coeffs[0] / m if L.coeffs else 0.0
        x = L(z, n=n)
        out = np.empty_like(x)
        small = np.abs(x) <= 1.0
        if second:
            part = L(z[small], lead=False, n=_part(n, small))
            part += _expm1_minus(x[small])
        else:
            part = np.expm1(x[small])
        part *= e[small]
        out[small] = part
        del part
        if not small.all():
            big = ~small
            zb, xb, eb, nb = z[big], x[big], e[big], _part(n, big)
            inner = np.abs(zb) <= _part(m, big)
            gb = np.empty_like(xb)
            gb[inner] = np.exp(xb[inner] - zb[inner])
            gb[~inner] = self._power(zb[~inner], _part(nb, ~inner))
            out[big] = gb - eb - _part(lead, big) * zb * zb * eb if second else gb - eb
        return out

    def derivative(self, z: float, order: int = 1) -> float:
        """g^(order)(z) for z > 0, from deriv_real or else the measure."""
        if self.deriv_real is not None:
            return float(self.deriv_real(z, order))
        if self.measure is None:
            raise ValueError(f"{self.name}: derivatives at z > 0 need deriv_real or a measure")
        return float(self.measure.laplace(z, order))


class ScaledFamily(NamedTuple):
    """A parametrized family t > 0 -> g_t in B1."""

    name: str
    factory: object
    rational_n = None    # no family is of Euler type (1 + z/n)^{-n}

    def at(self, t: float) -> CMFunction:
        """g_t, built once per (factory, t) in a process: a member such as
        yosida(t), with its truncated measure series, is costly to build,
        and a suite asks for it in every cell of its grid."""
        return _family_member(self.factory, t)


@lru_cache(maxsize=None)
def _family_member(factory, t: float) -> CMFunction:
    return factory(t)


def check_bk(g: CMFunction, k: int) -> bool:
    """Whether g is in B_k (k = 1..4): m_0 = m_1 = 1 and m_2..m_k finite."""
    m = g.moments
    return (abs(m[0] - 1.0) <= MOMENT_TOL and abs(m[1] - 1.0) <= MOMENT_TOL
            and all(map(math.isfinite, m[2:k + 1])))


def require_b1(g: CMFunction) -> None:
    """A ValueError naming g and its m_0 and m_1 when g is not in B1."""
    if not check_bk(g, 1):
        raise ValueError(f"{g.name}: power scaling requires a B1 function, with m_0 = m_1 = 1; "
                         f"it has m_0 = {g.moments[0]:g}, m_1 = {g.moments[1]:g}")


def from_measure(nu: PositiveMeasure, name: str = "measure") -> CMFunction:
    """Laplace transform of a finite positive measure.  In B1 with every
    moment up to SERIES_DEGREE finite it carries its log-defect: the
    cumulant series of nu (exactly 0 for delta_1, whose variance is 0) and
    log g(w) + w beyond its radius."""
    mass = nu.moment(0)
    if not math.isfinite(mass):
        raise ValueError("measure must have finite total mass")
    m = [nu.moment(k) for k in range(SERIES_DEGREE + 1)]
    g = CMFunction(
        name=name,
        evaluate=nu.laplace,
        measure=nu,
        moments=tuple(m[:5]),
        limit_at_inf=nu.zero_atom_mass(),
    )
    if not (check_bk(g, 1) and all(map(math.isfinite, m))):
        return g
    series = _log_series([(-1.0) ** j * mj / (mass * math.factorial(j)) for j, mj in enumerate(m)])
    if series[0] == 0.0:
        return g._replace(log_defect=_ZERO_DEFECT)
    return g._replace(log_defect=_log_defect(series, lambda w: np.log(nu.laplace(w)) + w))


# ----------------------------------------------------------------------
# power scaling g_n(z) = g(z/n)^n
# ----------------------------------------------------------------------

def _scaled_moments(moments, n: int):
    """Moments (= signed derivatives at 0) of g_n from those of g in B1."""
    _, _, m2, m3, m4 = moments
    g2 = m2  # g''(0)
    g3 = -m3
    g4 = m4
    gn2 = 1.0 + (g2 - 1.0) / n if math.isfinite(g2) else math.inf
    if math.isfinite(g3) and math.isfinite(g2):
        gn3 = (-(n - 1.0) * (n - 2.0) - 3.0 * (n - 1.0) * g2 + g3) / n ** 2
    else:
        gn3 = -math.inf
    if math.isfinite(g4) and math.isfinite(g3) and math.isfinite(g2):
        gn4 = ((n - 1.0) * (n - 2.0) * (n - 3.0)
               + 6.0 * (n - 1.0) * (n - 2.0) * g2
               + 3.0 * (n - 1.0) * g2 ** 2
               - 4.0 * (n - 1.0) * g3
               + g4) / n ** 3
    else:
        gn4 = math.inf
    return (1.0, 1.0, gn2, -gn3 if math.isfinite(gn3) else math.inf, gn4)


def power_scale(g: CMFunction, n: int) -> CMFunction:
    """g_n(z) = g(z/n)^n with derivatives at zero in closed form.

    Each call builds a new g_n, which is cheap: it keeps no measure, only
    closures over g and the moments and log-defect of g rescaled.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    require_b1(g)
    if n == 1:
        return g

    def evaluate(z):
        # integer powers are branch-insensitive
        return g._power(z, n)

    def deriv(z, k):
        # chain rule at w = z/n: g_n' = g^{n-1} g' and
        # g_n'' = ((n-1) g^{n-2} g'^2 + g^{n-1} g'')/n
        w = z / n
        gw, d1 = float(g(w)), g.derivative(w, 1)
        if k == 1:
            return gw ** (n - 1) * d1
        if k == 2:
            return ((n - 1) * gw ** (n - 2) * d1 * d1 + gw ** (n - 1) * g.derivative(w, 2)) / n
        raise ValueError(f"{g.name}_pow{n}: derivatives of orders 1 and 2 only, not {k}")

    return CMFunction(
        name=f"{g.name}_pow{n}",
        evaluate=evaluate,
        measure=None,
        moments=_scaled_moments(g.moments, n),
        limit_at_inf=g.limit_at_inf ** n,
        deriv_real=deriv,
        rational_n=None if g.rational_n is None else g.rational_n * n,
        log_defect=None if g.log_defect is None else g.log_defect._replace(
            scale=g.log_defect.scale * n),
    )


# ----------------------------------------------------------------------
# built-in constructors
# ----------------------------------------------------------------------

def exponential() -> CMFunction:
    """g(z) = e^{-z}, the fixed point of the scaling (measure = delta_1)."""
    nu = PositiveMeasure(atoms=((1.0, 1.0),))
    return CMFunction(
        name="exp",
        evaluate=lambda z: np.exp(-z),
        measure=nu,
        moments=(1.0, 1.0, 1.0, 1.0, 1.0),
        log_defect=_ZERO_DEFECT,
    )


def euler() -> CMFunction:
    """g(z) = 1/(1+z), measure e^{-s} ds."""
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, math.inf, (1.0,), 1.0),))
    return CMFunction(
        name="euler",
        evaluate=lambda z: 1.0 / (1.0 + z),
        measure=nu,
        moments=(1.0, 1.0, 2.0, 6.0, 24.0),
        rational_n=1,
        log_defect=_EULER_DEFECT,
    )


# L(w) = w - log(1 + w) = sum_{k>=2} (-w)^k/k
_EULER_DEFECT = _log_defect([(-1.0) ** k / k for k in range(2, SERIES_DEGREE + 1)],
                            lambda w: w - np.log1p(w))


def spline() -> CMFunction:
    """g(z) = (1 - e^{-2z})/(2z), measure = (1/2) Lebesgue on [0,2]."""
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, 2.0, (0.5,), 0.0),))

    def evaluate(z):
        # expm1 keeps full relative accuracy for small real and complex z
        small = np.abs(z) < 1e-8
        zz = np.where(small, 1.0, z)
        out = -np.expm1(-2.0 * zz) / (2.0 * zz)
        return np.where(small, 1.0 - z + (2.0 / 3.0) * z ** 2, out)

    # L(w) = log(sinh(w)/w), an even series; g^(j)(0)/j! = (-2)^j/(j+1)!
    taylor = [(-2.0) ** j / math.factorial(j + 1) for j in range(SERIES_DEGREE + 1)]
    return CMFunction(
        name="spline",
        evaluate=evaluate,
        measure=nu,
        moments=(1.0, 1.0, 4.0 / 3.0, 2.0, 16.0 / 5.0),
        log_defect=_log_defect(_log_series(taylor), lambda w: np.log(evaluate(w)) + w),
    )


def kendall(t: float) -> CMFunction:
    """g_t(z) = (1-t) + t e^{-z/t}, measure (1-t) delta_0 + t delta_{1/t}."""
    if not 0.0 < t <= 1.0:
        raise ValueError("kendall requires t in (0, 1]")
    atoms = [(1.0 / t, t)]
    if t < 1.0:
        atoms.insert(0, (0.0, 1.0 - t))
    nu = PositiveMeasure(atoms=tuple(atoms))
    inv_t = 1.0 / t
    evaluate = lambda z: (1.0 - t) + t * np.exp(-z / t)
    if t == 1.0:
        log_defect = _ZERO_DEFECT
    else:
        taylor = [1.0] + [t * (-inv_t) ** j / math.factorial(j)
                          for j in range(1, SERIES_DEGREE + 1)]
        log_defect = _log_defect(_log_series(taylor), lambda w: np.log(evaluate(w)) + w)
    return CMFunction(
        name=f"kendall(t={t:g})",
        evaluate=evaluate,
        measure=nu,
        moments=(1.0, 1.0, inv_t, inv_t ** 2, inv_t ** 3),
        limit_at_inf=1.0 - t,
        log_defect=log_defect,
    )


def yosida(t: float) -> CMFunction:
    """g_t(z) = exp(-t z/(t + z)).

    The representing measure is e^{-t}[delta_0 + sum_{m>=1}
    (t^{2m}/(m!(m-1)!)) s^{m-1} e^{-ts} ds]; the series is truncated
    where the remaining mass e^{-t} t^m/m! drops below 1e-19.
    """
    if t <= 0.0:
        raise ValueError("yosida requires t > 0")
    segs = []
    m = 1
    while True:
        mass = math.exp(-t + m * math.log(t) - math.lgamma(m + 1))
        if m > 4 and mass < 1e-19:
            break
        coeff = math.exp(-t + 2 * m * math.log(t) - math.lgamma(m + 1) - math.lgamma(m))
        coeffs = [0.0] * (m - 1) + [coeff]
        segs.append(PolyExpSegment(0.0, math.inf, tuple(coeffs), t))
        m += 1
        if m > 400:
            break
    nu = PositiveMeasure(atoms=((0.0, math.exp(-t)),), segments=tuple(segs))
    # L(w) = w^2/(t + w) = sum_{k>=2} (-1)^k t^{1-k} w^k
    series = [(-1.0) ** k * t ** (1 - k) for k in range(2, SERIES_DEGREE + 1)]
    return CMFunction(
        name=f"yosida(t={t:g})",
        evaluate=lambda z: np.exp(-t * z / (t + z)),
        measure=nu,
        moments=tuple(nu.moment(k) for k in range(5)),
        limit_at_inf=math.exp(-t),
        log_defect=_log_defect(series, lambda w: w * w / (t + w)),
    )


def hille() -> CMFunction:
    """g(z) = exp(-(1 - e^{-z})), measure e^{-1} sum_k delta_k / k!."""
    ks = range(0, 31)
    atoms = tuple((float(k), math.exp(-1.0 - math.lgamma(k + 1))) for k in ks)
    nu = PositiveMeasure(atoms=atoms)
    # L(w) = expm1(-w) + w = sum_{k>=2} (-w)^k/k!
    series = [(-1.0) ** k / math.factorial(k) for k in range(2, SERIES_DEGREE + 1)]
    return CMFunction(
        name="hille",
        evaluate=lambda z: np.exp(np.expm1(-z)),
        measure=nu,
        moments=tuple(nu.moment(k) for k in range(5)),
        limit_at_inf=math.exp(-1.0),
        log_defect=_log_defect(series, lambda w: np.expm1(-w) + w),
    )


def chung(a, t: float) -> CMFunction:
    """g(z) = sum_k a_k (t/(t+z))^k for a finite coefficient sequence.

    Requires a_k >= 0, sum a_k = 1, and sum k a_k = t (so that the
    function is normalized with g(0) = 1, g'(0) = -1).
    """
    a = tuple(float(x) for x in a)
    if any(x < 0.0 for x in a):
        raise ValueError("coefficients must be nonnegative")
    if abs(sum(a) - 1.0) > 1e-12:
        raise ValueError("coefficients must sum to 1")
    if abs(sum(k * x for k, x in enumerate(a)) - t) > 1e-12:
        raise ValueError("sum of k*a_k must equal t")
    if t <= 0.0:
        raise ValueError("chung requires t > 0")
    segs = []
    for k, ak in enumerate(a):
        if k == 0 or ak == 0.0:
            continue
        coeff = ak * math.exp(k * math.log(t) - math.lgamma(k))
        coeffs = [0.0] * (k - 1) + [coeff]
        segs.append(PolyExpSegment(0.0, math.inf, tuple(coeffs), t))
    atoms = ((0.0, a[0]),) if a and a[0] > 0.0 else ()
    nu = PositiveMeasure(atoms=atoms, segments=tuple(segs))

    def evaluate(z):
        x = t / (t + z)
        return sum(ak * x ** k for k, ak in enumerate(a))

    # (t/(t+w))^k = sum_j C(k+j-1, j) (-w/t)^j
    taylor = [1.0] + [sum(a[k] * math.comb(k + j - 1, j) for k in range(1, len(a)))
                      * (-1.0 / t) ** j for j in range(1, SERIES_DEGREE + 1)]
    return CMFunction(
        name=f"chung(t={t:g})",
        evaluate=evaluate,
        measure=nu,
        moments=tuple(nu.moment(k) for k in range(5)),
        limit_at_inf=a[0] if a else 0.0,
        log_defect=_log_defect(_log_series(taylor), lambda w: np.log(evaluate(w)) + w),
    )


def frac_tail(gamma: float) -> CMFunction:
    """Heavy-tailed example: measure (1-gamma) delta_0 + gamma(gamma+1)(1+s)^{-2-gamma} ds.

    In B1 but not B2 (the second moment diverges); 1 + g'(1/n) decays
    like n^{-gamma}.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("frac_tail requires gamma in (0, 1)")
    gp = (2.0 + gamma) - 2.0    # gamma as 2 + gamma rounds it: then m_0 = m_1 = 1 to roundoff
    nu = PositiveMeasure(atoms=((0.0, 1.0 - gp),),
                         segments=(PowerLawSegment(gp * (gp + 1.0), 2.0 + gp),))
    return CMFunction(
        name=f"frac_tail(gamma={gamma:g})",
        evaluate=nu.laplace,
        measure=nu,
        moments=tuple(nu.moment(k) for k in range(5)),
        limit_at_inf=1.0 - gp,
    )


BUILTIN_NAMES = ("euler", "euler_pow<N>", "spline", "kendall", "yosida", "hille", "chung",
                 "frac_tail", "exp")


# each constructor string: its builder, the keys it takes and those it needs;
# a family without t is the family itself, with t its member g_t
_BUILDERS = {
    "euler": (euler, (), ()),
    "spline": (spline, (), ()),
    "exp": (exponential, (), ()),
    "hille": (hille, (), ()),
    "kendall": (lambda t=None: ScaledFamily("kendall", kendall) if t is None else kendall(t),
                ("t",), ()),
    "yosida": (lambda t=None: ScaledFamily("yosida", yosida) if t is None else yosida(t),
               ("t",), ()),
    "chung": (chung, ("a", "t"), ("a", "t")),
    "frac_tail": (frac_tail, ("gamma",), ("gamma",)),
}


def make_builtin(spec: str, flag: str = "--scheme"):
    """Parse a constructor string like 'kendall:t=0.5', 'frac_tail:gamma=0.3' or
    'euler_pow4' (= power_scale(euler(), 4)).  A key the constructor does not
    take, a value that is not a finite number, a missing key or a value out
    of range raises ValueError naming `flag`, the key and the value."""
    name, _, argstr = spec.partition(":")
    where = f"{flag} {spec!r}"
    if name == "measure":
        return from_measure(_read_measure(argstr, where), name=spec)
    pow_n = name[len("euler_pow"):]
    if name.startswith("euler_pow") and pow_n.isdigit() and int(pow_n) > 0:
        build, takes, needs = (lambda: power_scale(euler(), int(pow_n))), (), ()
    elif name in _BUILDERS:
        build, takes, needs = _BUILDERS[name]
    else:
        raise ValueError(f"unknown function name {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    kwargs = {}
    for item in filter(None, argstr.split(",")):
        key, _, val = (x.strip() for x in item.partition("="))
        bad = f"{where}: {key}={val!r}"
        if key not in takes:
            raise ValueError(f"{bad} is not a key of {name}, which takes "
                             f"{', '.join(takes) or 'no keys'}")
        try:
            # a: the coefficients of chung, joined by '+'
            x = [float(v) for v in val.split("+")] if key == "a" else [float(val)]
        except ValueError:
            raise ValueError(f"{bad} is not a number") from None
        if not all(map(math.isfinite, x)):
            raise ValueError(f"{bad} is not a finite number")
        kwargs[key] = x if key == "a" else x[0]
    for key in needs:
        if key not in kwargs:
            raise ValueError(f"{where}: {name} needs {key}=<value>")
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _atom(entry) -> tuple:
    s, wt = entry
    return float(s), float(wt)


def _segment(entry) -> PolyExpSegment:
    b = entry["b"]
    poly = tuple(float(c) for c in entry["poly"])
    return PolyExpSegment(float(entry["a"]), math.inf if b in ("inf", None) else float(b), poly,
                          float(entry.get("exp_rate", 0.0)))


def read_json_object(path: str, where: str) -> dict:
    """The JSON object in the file at `path` (a `measure:` or --config file);
    a ValueError naming `where` for a file that is not JSON or holds no object."""
    import json

    with open(path) as fh:
        try:
            desc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{where}: the file is not JSON ({exc})") from None
    if not isinstance(desc, dict):
        raise ValueError(f"{where}: the file holds a JSON {type(desc).__name__}, not an object")
    return desc


def _read_measure(path: str, where: str) -> PositiveMeasure:
    """The measure of a `measure:` JSON file, an object with a list "atoms" of
    pairs [s, w] and a list "segments" of {"a", "b", "poly", "exp_rate"}; for
    a file of another form a ValueError naming `where` and the first bad entry."""
    import json

    desc = read_json_object(path, where)
    parts = []
    for key, parse in (("atoms", _atom), ("segments", _segment)):
        items = desc.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f"{where}: {key} {json.dumps(items)} is not a list")
        parts.append([])
        for entry in items:
            try:
                parts[-1].append(parse(entry))
            except (KeyError, TypeError, ValueError) as exc:
                why = f"no key {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{where}: {key} entry {json.dumps(entry)}: {why}") from None
    try:
        return PositiveMeasure(*map(tuple, parts))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
