"""Bounded completely monotone functions and their normalized classes.

A CMFunction bundles one pointwise evaluator (numpy arrays of real z >= 0
or of complex z with Re z >= 0), its representing measure and the moments
m_0..m_4 of that measure (extended reals).  Every function is its measure
plus closed forms (the evaluator, the log-defect): one constructor,
`_transform`, reads its moments, its log-defect series and g(inf), the
mass of the atom at 0, off the measure, with one kernel pass per segment.
The normalized classes, tested by check_bk(g, k), are

    B1: m_0 = m_1 = 1;  B2: additionally m_2 < inf;  B3, B4 likewise.

Derivatives at zero are g^(k)(0) = (-1)^k m_k and are stored exactly
from the moments.  Derivatives at z > 0 are the closed-form transform
`PositiveMeasure.laplace(z, order)` of the measure.

Every B2 built-in also carries its log-defect L(w) = log g(w) + w
(`LogDefect`): the cumulant series sum_{k>=2} (-1)^k kappa_k w^k/k! below a
radius, a closed form above it, so that L keeps full relative precision
near 0.  `CMFunction.defect` and `CMFunction.residual` build the defect
g(z) - e^{-z} and its second-order remainder from it as
e^{-z} expm1(L(z)), which does not cancel where g(z) and e^{-z} agree to
many digits; see Higham, Accuracy and Stability of Numerical Algorithms
(SIAM, 2nd ed. 2002), section 1.14.  A B1 function with finite moments
gets its cumulants from the raw moments of its measure; euler, yosida and
hille state their exact series, far smaller than their moments.  One
outside B2, such as `frac_tail`, carries none: its defect is the direct
difference, and it has no second-order remainder.

Functions and generators (opcalc.GALLERY) are named by `name:key=value`
strings with one reader, `read_spec`, and every value, there and in the
CLI's grids, has one check, `read_value` against its kind (FINITE,
POSITIVE, SIZE).  A built-in's name gives each of its values in full.

The scheme g_n(z) = g(z/n)^n is the pair (g, n): nothing builds it as a
function.  Its log-defect is L_n(z) = n L(z/n), and `g.defect(z, n)` and
`g.residual(z, n)` are those of g_n, with n a whole number or an array of
them broadcasting against z, so that one call covers a grid of n; a
stacked call gives each value as the call with that n alone does.  The
one power a user names, `euler_pow<N>` = Euler's g_N, is a built-in of
its own: the Gamma(N, N) measure, with Euler's log-defect, which the defect
of its g_n reads at Nn from `rational_n` = N.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .measures import PolyExpSegment, PositiveMeasure, PowerLawSegment

__all__ = [
    "CMFunction",
    "LogDefect",
    "ScaledFamily",
    "from_measure",
    "euler",
    "euler_pow",
    "spline",
    "kendall",
    "yosida",
    "hille",
    "chung",
    "frac_tail",
    "exponential",
    "check_bk",
    "require_b1",
]

MOMENT_TOL = 1e-12
YOSIDA_TERMS = 400    # the most terms of yosida's measure series
EULER_POW_MAX = 116   # the largest N of euler_pow<N>; see euler_pow


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

    def __call__(self, z, lead: bool = True, n=1):
        """L_n(z) = n L(z/n), with n a whole number or an array of them
        broadcasting against z.  Without `lead`, L_n(z) - coeffs[0] z^2/n, each
        part summed without that leading term."""
        w = np.asarray(z) / n
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
        out *= n
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
    measure: PositiveMeasure                # the representing measure nu: g = int e^{-zs} nu(ds)
    moments: tuple = (1.0, 1.0, math.inf, math.inf, math.inf)
    limit_at_inf: float = 0.0               # g(inf) = mass of the atom at 0
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
        against z."""
        return self._difference(np.asarray(z), n, second=False)

    def residual(self, z, n=1):
        """g_n(z) - e^{-z} - (g_n''(0) - 1)/2 z^2 e^{-z}, the second-order
        remainder, with n as in `defect`."""
        return self._difference(np.asarray(z), n, second=True)

    def _power(self, z, n, ks):
        """g(z/n)^n for n shaped as z, with ks its distinct values: one call of g,
        then the power per distinct n other than 1 with a Python int, since
        numpy squares (n = 2) a scalar exponent by another loop than an array."""
        v = self(z / n)
        for k in ks - {1}:
            at = n == k
            v[at] = v[at] ** k
        return v

    def _difference(self, z, n, second: bool):
        """With m = Nn, N = rational_n (1 for a g not of Euler type), and x =
        L_m(z), the log-defect of g_n: e^{-z} expm1(x) where |x| <= 1, and for
        the remainder e^{-z} ((expm1(x) - x) + (x - c_2 z^2/m)), each part
        without its leading term.  Where |x| > 1 nothing cancels and the
        difference is taken directly, with g_n(z) = e^{x - z} for |z| <= m (n
        ulp for the n-th power would be worse) and g_n(z) itself beyond.
        Without L the defect is the direct difference at every point, and the
        remainder a ValueError (every B2 function the package builds has L)."""
        L = self.log_defect
        if L is None and second:
            raise ValueError(f"{self.name}: the second-order residual needs a log-defect")
        # m and the distinct n from n as given: a column of n makes no full-size int array
        ks = set(np.ravel(n).tolist())   # not np.unique, which imports numpy.ma
        m = (self.rational_n or 1) * np.asarray(n)
        z, n, m = np.broadcast_arrays(z, n, m)
        e = np.exp(-z)
        if L is None:
            return self._power(z, n, ks) - e
        x = L(z, n=m)
        out = np.empty_like(x)
        small = np.abs(x) <= 1.0
        if second:
            part = L(z[small], lead=False, n=m[small])
            part += _expm1_minus(x[small])
        else:
            part = np.expm1(x[small])
        part *= e[small]
        out[small] = part
        del part
        if not small.all():
            big = ~small
            zb, xb, eb, nb, mb = z[big], x[big], e[big], n[big], m[big]
            inner = np.abs(zb) <= mb
            gb = np.empty_like(xb)
            gb[inner] = np.exp(xb[inner] - zb[inner])
            gb[~inner] = self._power(zb[~inner], nb[~inner], ks)
            out[big] = gb - eb - L.coeffs[0] / mb * zb * zb * eb if second else gb - eb
        return out

    def derivative(self, z: float, order: int = 1) -> float:
        """g^(order)(z) for z > 0, from the measure."""
        return float(self.measure.laplace(z, order))


class ScaledFamily(NamedTuple):
    """A parametrized family t > 0 -> g_t in B1."""

    name: str
    factory: object

    def at(self, t: float) -> CMFunction:
        """The member g_t, built anew on each call; a ValueError naming the
        family and t where the factory refuses t."""
        try:
            return self.factory(t)
        except ValueError as exc:
            raise ValueError(f"--scheme {self.name!r} at --t {t:g}: {exc}") from None


def check_bk(g: CMFunction, k: int) -> bool:
    """Whether g is in B_k (k = 1..4): m_0 = m_1 = 1 and m_2..m_k finite."""
    m = g.moments
    return (abs(m[0] - 1.0) <= MOMENT_TOL and abs(m[1] - 1.0) <= MOMENT_TOL
            and all(map(math.isfinite, m[2:k + 1])))


def require_b1(g: CMFunction, where: str = "") -> CMFunction:
    """g, or a ValueError naming `where` (or g) and its m_0 and m_1 outside B1."""
    if not check_bk(g, 1):
        raise ValueError(f"{where or g.name}: power scaling requires a B1 function, with "
                         f"m_0 = m_1 = 1; it has m_0 = {g.moments[0]:g}, m_1 = {g.moments[1]:g}")
    return g


def _transform(name: str, nu: PositiveMeasure, evaluate, log_defect: LogDefect | None = None,
               rational_n: int | None = None) -> CMFunction:
    """The Laplace transform of nu, evaluated by `evaluate`, with nu's moments
    m_0..m_4 and g(inf) = the mass of its atom at 0.  Without a log_defect, a
    B1 function whose moments up to SERIES_DEGREE are finite gets the cumulant
    series of nu (0 for delta_1) and log evaluate(w) + w beyond its radius."""
    top = SERIES_DEGREE if log_defect is None else 4
    m = nu.partial_moment(range(top + 1), 0.0, math.inf).tolist()
    g = CMFunction(name, evaluate, nu, tuple(m[:5]), nu.zero_atom_mass(), rational_n, log_defect)
    if log_defect is not None or not (check_bk(g, 1) and all(map(math.isfinite, m))):
        return g
    series = _log_series([(-1.0) ** j * mj / (m[0] * math.factorial(j)) for j, mj in enumerate(m)])
    return g._replace(log_defect=_log_defect(series, lambda w: np.log(evaluate(w)) + w)
                      if series[0] else _ZERO_DEFECT)


def from_measure(nu: PositiveMeasure, name: str = "measure") -> CMFunction:
    """Laplace transform of a finite positive measure (see `_transform`)."""
    g = _transform(name, nu, nu.laplace)
    if not math.isfinite(g.moments[0]):
        raise ValueError("measure must have finite total mass")
    return g


# ----------------------------------------------------------------------
# built-in constructors
# ----------------------------------------------------------------------

def exponential() -> CMFunction:
    """g(z) = e^{-z}, the fixed point of the scaling (measure = delta_1)."""
    return _transform("exp", PositiveMeasure(atoms=((1.0, 1.0),)), lambda z: np.exp(-z))


# L(w) = w - log(1 + w) = sum_{k>=2} (-w)^k/k
_EULER_DEFECT = _log_defect([(-1.0) ** k / k for k in range(2, SERIES_DEGREE + 1)],
                            lambda w: w - np.log1p(w))


def euler() -> CMFunction:
    """g(z) = 1/(1+z), measure e^{-s} ds: euler_pow(1) by its own name."""
    return euler_pow(1)._replace(name="euler")


def euler_pow(N: int) -> CMFunction:
    """g(z) = (1 + z/N)^{-N}, Euler's g_N: the Gamma(N, N) measure
    N^N s^{N-1} e^{-Ns}/(N-1)! ds, one segment of rate N, whose coefficient
    is an exact integer quotient.  Up to N = EULER_POW_MAX its h = m_2 - 1,
    which every first-order bound reads, is 1/N within 1e-12 relative;
    beyond, a ValueError points to euler at N*n, the same scheme."""
    if not 1 <= N <= EULER_POW_MAX:
        raise ValueError(f"N = {N} is outside [1, {EULER_POW_MAX}]: above it the moments of "
                         f"the Gamma measure lose g''(0) - 1 = 1/N; euler_pow<N> at n is euler "
                         f"at N*n")
    nu = PositiveMeasure(segments=(PolyExpSegment(
        0.0, math.inf, (0.0,) * (N - 1) + (N ** N / math.factorial(N - 1),), float(N)),))
    return _transform(f"euler_pow{N}", nu, lambda z: (1.0 / (1.0 + z / N)) ** N,
                      _EULER_DEFECT, rational_n=N)


def spline() -> CMFunction:
    """g(z) = (1 - e^{-2z})/(2z), measure = (1/2) Lebesgue on [0,2]."""
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, 2.0, (0.5,), 0.0),))

    def evaluate(z):
        # expm1 keeps full relative accuracy for small real and complex z
        small = np.abs(z) < 1e-8
        zz = np.where(small, 1.0, z)
        out = -np.expm1(-2.0 * zz) / (2.0 * zz)
        return np.where(small, 1.0 - z + (2.0 / 3.0) * z ** 2, out)

    return _transform("spline", nu, evaluate)


def kendall(t: float) -> CMFunction:
    """g_t(z) = (1-t) + t e^{-z/t}, measure (1-t) delta_0 + t delta_{1/t}."""
    if not 0.0 < t <= 1.0:
        raise ValueError("kendall requires t in (0, 1]")
    atoms = [(1.0 / t, t)]
    if t < 1.0:
        atoms.insert(0, (0.0, 1.0 - t))
    return _transform(f"kendall(t={_num(t)})", PositiveMeasure(atoms=tuple(atoms)),
                      lambda z: (1.0 - t) + t * np.exp(-z / t))


def yosida(t: float) -> CMFunction:
    """g_t(z) = exp(-t z/(t + z)).

    The representing measure is e^{-t}[delta_0 + sum_{m>=1} (t^{2m}/(m!(m-1)!))
    s^{m-1} e^{-ts} ds], one segment of rate t, cut past the mode m = t where
    the mass left, e^{-t} t^m/m!, drops below 1e-19: a ValueError past
    t = 247.77, where that takes more than YOSIDA_TERMS terms.
    """
    if t <= 0.0:
        raise ValueError("yosida requires t > 0")
    coeffs = []
    m = 1
    while m <= max(4, t) or math.exp(-t + m * math.log(t) - math.lgamma(m + 1)) >= 1e-19:
        if m > YOSIDA_TERMS:
            raise ValueError(f"t = {t:g} is too large: the measure series of yosida needs more "
                             f"than {YOSIDA_TERMS} terms there (t up to 247.77 is covered)")
        coeffs.append(math.exp(-t + 2 * m * math.log(t) - math.lgamma(m + 1) - math.lgamma(m)))
        m += 1
    nu = PositiveMeasure(atoms=((0.0, math.exp(-t)),),
                         segments=(PolyExpSegment(0.0, math.inf, tuple(coeffs), t),))
    # L(w) = w^2/(t + w) = sum_{k>=2} (-1)^k t^{1-k} w^k
    series = [(-1.0) ** k * t ** (1 - k) for k in range(2, SERIES_DEGREE + 1)]
    return _transform(f"yosida(t={_num(t)})", nu, lambda z: np.exp(-t * z / (t + z)),
                      _log_defect(series, lambda w: w * w / (t + w)))


def hille() -> CMFunction:
    """g(z) = exp(-(1 - e^{-z})), measure e^{-1} sum_k delta_k / k!."""
    atoms = tuple((float(k), math.exp(-1.0 - math.lgamma(k + 1))) for k in range(31))
    # L(w) = expm1(-w) + w = sum_{k>=2} (-w)^k/k!
    series = [(-1.0) ** k / math.factorial(k) for k in range(2, SERIES_DEGREE + 1)]
    return _transform("hille", PositiveMeasure(atoms=atoms), lambda z: np.exp(np.expm1(-z)),
                      _log_defect(series, lambda w: np.expm1(-w) + w))


def chung(a, t: float) -> CMFunction:
    """g(z) = sum_k a_k (t/(t+z))^k for a finite coefficient sequence.

    Requires a_k >= 0, sum a_k = 1, and sum k a_k = t (so that the
    function is normalized with g(0) = 1, g'(0) = -1).  The measure is
    a_0 delta_0 + sum_{k>=1} a_k t^k s^{k-1} e^{-ts}/(k-1)! ds, one segment.
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
    coeffs = tuple(ak * math.exp(k * math.log(t) - math.lgamma(k)) for k, ak in enumerate(a) if k)
    atoms = ((0.0, a[0]),) if a[0] > 0.0 else ()
    nu = PositiveMeasure(atoms=atoms, segments=(PolyExpSegment(0.0, math.inf, coeffs, t),))

    def evaluate(z):
        x = t / (t + z)
        return sum(ak * x ** k for k, ak in enumerate(a))

    return _transform(f"chung(a={'+'.join(map(_num, a))},t={_num(t)})", nu, evaluate)


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
    return from_measure(nu, name=f"frac_tail(gamma={_num(gamma)})")


# ----------------------------------------------------------------------
# name:key=value strings
# ----------------------------------------------------------------------

def _num(x: float) -> str:
    """The shortest of '%g' and repr that reads back as x exactly."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


# A kind of value is (what it must be, the test of its float, the cast of a
# float that passes); a list [kind] is its values joined by '+'.
FINITE = ("a finite number", math.isfinite, lambda x: x + 0.0)   # -0 reads as 0
POSITIVE = ("a positive finite number", lambda x: 0.0 < x < math.inf, float)
SIZE = ("a whole number in [1, 2^16]", lambda x: 1.0 <= x <= 2.0 ** 16 and x.is_integer(), int)


def read_value(raw: str, kind, where: str):
    """The string raw as a value of kind; a ValueError '{where} is not {what}'
    otherwise."""
    if isinstance(kind, list):
        return [read_value(x, kind[0], where) for x in raw.split("+")]
    what, ok, cast = kind
    try:
        x = float(raw)
    except ValueError:
        x = math.nan
    if not ok(x):
        raise ValueError(f"{where} is not {what}")
    return cast(x)


def read_spec(spec: str, flag: str, table: dict, what: str):
    """What a 'name:key=value,...' string names: table maps a name to (builder,
    {key: kind}, keys it needs), or to None if it is only listed.  A bad name,
    key or value, or one the builder refuses, is a ValueError naming flag and spec."""
    name, _, argstr = spec.partition(":")
    where = f"{flag} {spec!r}"
    if not table.get(name):
        raise ValueError(f"{where}: unknown {what} {name!r}; available: {', '.join(table)}")
    build, kinds, needs = table[name]
    kwargs = {}
    for item in filter(None, argstr.split(",")):
        key, _, val = (x.strip() for x in item.partition("="))
        bad = f"{where}: {key}={val!r}"
        if key not in kinds:
            raise ValueError(f"{bad} is not a key of {name}, which takes "
                             f"{', '.join(kinds) or 'no keys'}")
        kwargs[key] = read_value(val, kinds[key], bad)
    for key in needs:
        if key not in kwargs:
            raise ValueError(f"{where}: {name} needs {key}=<value>")
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# the --scheme names: a family without t is the family, with t its member
# g_t; euler_pow<N> is only listed, make_builtin reads euler_pow1, euler_pow2, ...
_BUILDERS = {
    "euler": (euler, {}, ()),
    "euler_pow<N>": None,
    "spline": (spline, {}, ()),
    "kendall": (lambda t=None: ScaledFamily("kendall", kendall) if t is None else kendall(t),
                {"t": FINITE}, ()),
    "yosida": (lambda t=None: ScaledFamily("yosida", yosida) if t is None else yosida(t),
               {"t": FINITE}, ()),
    "hille": (hille, {}, ()),
    "chung": (chung, {"a": [FINITE], "t": FINITE}, ("a", "t")),
    "frac_tail": (frac_tail, {"gamma": FINITE}, ("gamma",)),
    "exp": (exponential, {}, ()),
}


def make_builtin(spec: str, flag: str = "--scheme"):
    """The function or family a --scheme (or --g) string names: 'measure:<file>'
    (in B1), 'euler_pow<N>' (= euler_pow(N)) or a name of _BUILDERS with its keys,
    as in 'kendall:t=0.5' or 'chung:a=0.25+0.5+0.25,t=1'; ValueErrors as in read_spec."""
    name, _, path = spec.partition(":")
    if name == "measure":
        where = f"{flag} {spec!r}"
        return require_b1(from_measure(_read_measure(path, where), name=spec), where)
    N = name[len("euler_pow"):]
    if name.startswith("euler_pow") and N.isdecimal():   # takes no keys
        return read_spec(spec, flag, {name: (lambda: euler_pow(int(N)), {}, ())}, "function name")
    return read_spec(spec, flag, _BUILDERS, "function name")


def _atom(entry) -> tuple:
    s, wt = entry
    return float(s), float(wt)


def _segment(entry) -> PolyExpSegment:
    b = entry["b"]
    poly = tuple(float(c) for c in entry["poly"])
    return PolyExpSegment(float(entry["a"]), math.inf if b in ("inf", None) else float(b), poly,
                          float(entry.get("exp_rate", 0.0)))


def _read_measure(path: str, where: str) -> PositiveMeasure:
    """The measure of a `measure:` JSON file, an object with a list "atoms" of
    pairs [s, w] and a list "segments" of {"a", "b", "poly", "exp_rate"}; for
    a file of another form a ValueError naming `where` and the first bad entry."""
    import json

    with open(path) as fh:
        try:
            desc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{where}: the file is not JSON ({exc})") from None
    if not isinstance(desc, dict):
        raise ValueError(f"{where}: the file holds a JSON {type(desc).__name__}, not an object")
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
