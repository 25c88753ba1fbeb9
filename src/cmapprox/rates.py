"""Verification harness: errors vs. theoretical bounds, order fits, sharpness.

Each bound suite of SUITES produces BoundReport rows (one per test vector)
for every (t, n) cell of a grid, after checking what its theorem asks of g,
A and alpha; every row's pass flag applies the floating-point slack policy

    pass  <=>  error <= bound * (1 + 1e-9) + 1e-13.

Errors and norms are those of functions of the generator, read from
GeneratorMatrix.norms and .opnorm (see opcalc), with the errors and the
powers lambda^alpha given as stacks of functions of a spectral point.
The defect g_t(t lambda/n)^n - e^{-t lambda} and the second-order residual
are those of g_n = power_scale(g_t, n), given by g_t.defect(t lambda, n)
and g_t.residual(t lambda, n) (see cmfun): for a g with a log-defect they
come from it without cancellation.  A run evaluates them on (cells x d)
stacks of its grid (one per t for a family g_t, each cut to at most
STACK_POINTS values) and takes every norm from one `norms` call, so that
the test vectors go to the eigenbasis and each ||A^p x|| is computed once;
the bound scalars are still per cell.

Order fits are least-squares slopes on (log n, log error).  spectral_order
fits the n-exponent of ||E_n A^{-alpha}|| with E_n the defect (or the
second-order residual) on the eigenvalues; on a normal generator with a
dense spectral grid that norm is the scalar supremum whose decay the
paper's optimal rates describe, expected_exponent gives the rate the
spectrum admits, and order_verdict passes or fails the fit.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import functionals, opcalc
from .cmfun import CMFunction, check_bk, euler, power_scale, require_b1
from .measures import EPS
from .opcalc import GeneratorMatrix, frac_on_spectrum

__all__ = [
    "BoundReport", "within_bound", "OrderFit", "fit_order", "order_verdict", "suite",
    "first_order_bounds", "non_b2_bounds", "second_order_bounds", "holomorphic_bounds",
    "holomorphic_second_order", "spectral_order", "expected_exponent",
    "euler_scalar_sharpness", "shift_second_order_sharpness", "sharpness_rows",
]

SLACK_REL = 1e-9
SLACK_ABS = 1e-13
# an order fit passes when r^2 >= R2_MIN and |fitted - expected| <= EXPONENT_TOL
R2_MIN = 0.98
EXPONENT_TOL = 0.1
ORDER_ALPHA = (0.0, 4.0)
W_BLOCK = 64  # terms per step of the series in `_W_below`: about 9 sqrt(n) are needed
# The rounding of tau near 1 moves n D in e^{-n D} by about sqrt(n) eps, so
# W_n holds about 7e-12 relative at n = 2^32: the quadratures of I_{1,n} and
# I_{2,n} ask for 1e-11.
W_REL_TOL = 1e-11
# values (cells x points) of one evaluation of a scheme's errors: 0.5 MB per
# complex array, of which about ten are alive at once
STACK_POINTS = 1 << 15


def within_bound(error: float, bound: float) -> bool:
    """The slack policy: error <= bound * (1 + SLACK_REL) + SLACK_ABS."""
    return error <= bound * (1.0 + SLACK_REL) + SLACK_ABS


def check_alphas(alphas, lo: float, hi: float, what: str) -> None:
    """ValueError naming the first alpha outside [lo, hi], the range of `what`."""
    for alpha in alphas:
        if not lo <= alpha <= hi:
            raise ValueError(f"--alpha {alpha:g} is outside [{lo:g}, {hi:g}], the range of {what}")


class BoundReport(NamedTuple):
    scheme: str
    generator: str
    t: float
    n: int
    alpha: float
    vector_id: int
    error: float
    bound: float
    tag: str

    @property
    def passed(self) -> bool:
        return within_bound(self.error, self.bound)

    def row(self) -> dict:
        return {**self._asdict(), "slack": self.bound - self.error, "pass": self.passed}


class OrderFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    used_points: int
    flag: str = ""


def fit_order(points) -> OrderFit:
    """Least-squares slope of log(error) against log(n)."""
    pts = [(n, e) for n, e in points if e > 0.0 and math.isfinite(e)]
    floor = 100.0 * np.finfo(float).eps * max((e for _, e in pts), default=1.0)
    pts = [(n, e) for n, e in pts if e > floor]
    if len(pts) < 4:
        return OrderFit(math.nan, math.nan, 0.0, len(pts), "exact" if not pts else "too-few-points")
    ln = np.log([p[0] for p in pts])
    le = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(ln, le, 1)
    resid = le - (slope * ln + intercept)
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return OrderFit(float(slope), float(intercept), r2, len(pts))


def order_verdict(fit: OrderFit, expected: float) -> tuple[str, bool]:
    """(flag, pass): the fit's flag, or "inconclusive" when r^2 < R2_MIN; it passes
    "exact", or unflagged with its slope within EXPONENT_TOL of `expected`."""
    flag = fit.flag or ("inconclusive" if fit.r_squared < R2_MIN else "")
    return flag, flag == "exact" or (not flag and abs(fit.slope - expected) <= EXPONENT_TOL)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _fixed(g) -> bool:
    """Whether g is one function, its own g_t at every t, and not a family."""
    return isinstance(g, CMFunction)


def _errors(g, ts, ns, dim: int, second: bool = False) -> list:
    """The error of every (t, n) cell, t-major, as functions of a spectrum of
    `dim` points, each lam -> the stack of g_n(t lam) - e^{-t lam}, g_n = (g_t)_n,
    of a block of consecutive cells, or with `second` of the second-order
    residual g_n(t lam) - e^{-t lam} - (2n)^{-1}(g_t''(0)-1) t^2 lam^2 e^{-t lam}.
    The cells of a fixed g form one group, those of a family one group per t;
    a group is cut into blocks of at most STACK_POINTS values (and at least
    one cell), so that an evaluation's temporaries do not grow with the grid.
    A ValueError when some g_t is not in B1 (B2 with `second`)."""
    for t in ts:
        gt = g.at(t)
        if second and not check_bk(gt, 2):
            raise ValueError(f"{g.name}: the second-order residual needs a finite g''(0)")
        require_b1(gt)
    groups = [[(t, n) for t in ts for n in ns]] if _fixed(g) else [
        [(t, n) for n in ns] for t in ts]
    size = max(1, STACK_POINTS // dim)
    blocks = [group[i:i + size] for group in groups for i in range(0, len(group), size)]
    return [partial(_stack, g.at(block[0][0]), second, np.array([t for t, _ in block])[:, None],
                    np.array([n for _, n in block])[:, None]) for block in blocks]


def _stack(gt, second: bool, t, n, lam):
    """The defect (the residual if `second`) of g_n at t lam, one row per
    entry of the columns t and n."""
    return (gt.residual if second else gt.defect)(t * lam, n)


def _grid(g, A: GeneratorMatrix, ts, ns, vectors, terms, second: bool = False,
          op_bound=None) -> list[BoundReport]:
    """The rows of every (t, n) cell, t-major, each with the error ||E(A) x||
    of a test vector x, E the defect (the residual if `second`) of the cell:
    first, given op_bound(t, n), the holo-opnorm row ||E(A)||; then for each
    term (alpha, tag, factor) of terms(t, n) the bound factor * ||A^alpha x||,
    or factor * sum_p w ||A^p x|| when the term ends with its (p, w) pairs.
    The errors of every cell, their op-norms and each power A^p come from
    one `norms` call."""
    cells = [(t, n) for t in ts for n in ns]
    if not cells:
        return []
    blocks = _errors(g, ts, ns, A.dim, second)
    cell_terms = [terms(t, n) for t, n in cells]
    pairs = [[term[3] if len(term) > 3 else ((term[0], 1.0),) for term in tt]
             for tt in cell_terms]
    powers = sorted({p for cell in pairs for term in cell for p, _ in term})
    xs, tops = A.norms([*blocks, lambda lam: [frac_on_spectrum(lam, p) for p in powers]],
                       vectors)
    errors, ops = np.vstack(xs[:-1]).tolist(), np.concatenate(tops[:-1]).tolist()
    nx = dict(zip(powers, xs[-1].tolist()))
    rows = []
    for c, ((t, n), tt, weights, errs) in enumerate(zip(cells, cell_terms, pairs, errors)):
        key = (g.name, A.name, t, n)
        if op_bound is not None:
            rows.append(BoundReport(*key, 0.0, -1, ops[c], op_bound(t, n), "holo-opnorm"))
        for (alpha, tag, factor, *_), ws in zip(tt, weights):
            rows += [BoundReport(*key, alpha, i, err,
                                 factor * sum(w * nx[p][i] for p, w in ws), tag)
                     for i, err in enumerate(errs)]
    return rows


# ----------------------------------------------------------------------
# bound suites
# ----------------------------------------------------------------------

class Suite(NamedTuple):
    """A bound suite: the rates function (g, A, ts, ns, alphas, vectors) -> the
    rows of every (t, n) cell, looked up when the suite runs so that a wrapper
    set on the module attribute is the one called, and what its theorem asks
    of the inputs."""

    bounds: str
    alpha: tuple = (-math.inf, math.inf)   # the alpha range of the theorem
    moment: int = 0           # g_t in B_k: g_t^(k)(0) finite
    fixed: bool = False       # one function g, not a family g_t
    tail: bool = False        # g(inf) = 0, else d1[g_n] = inf
    sectorial: bool = False   # finite M_1 and M_2

    def __call__(self, g, A, ts, ns, alphas, vectors) -> list[BoundReport]:
        return globals()[self.bounds](g, A, ts, ns, alphas, vectors)


SUITES = {
    "first": Suite("first_order_bounds", (0.0, 2.0), moment=2),
    "nonb2": Suite("non_b2_bounds", (0.0, 1.0), fixed=True),
    "second": Suite("second_order_bounds", moment=4),
    "holo": Suite("holomorphic_bounds", (0.0, 1.0), moment=2, sectorial=True),
    "holo2": Suite("holomorphic_second_order", (0.0, 3.0), moment=4, fixed=True, tail=True,
                   sectorial=True),
}


def suite(name: str, alphas) -> Suite:
    """SUITES[name], once every alpha lies in the range of its theorem;
    a ValueError naming the suite and the input otherwise."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    check_alphas(alphas, *SUITES[name].alpha, f"suite {name!r}")
    return SUITES[name]


def _inputs(name: str, g, A: GeneratorMatrix, ts, alphas):
    """The constants M_beta of A once the inputs meet what suite `name` asks
    of them at every t; a ValueError naming the suite and the first input
    that does not otherwise."""
    entry = suite(name, alphas)
    k, prime = entry.moment, "'" * entry.moment
    if entry.fixed and not _fixed(g):
        raise ValueError(f"suite {name!r} needs a fixed function: give t, as in {g.name}:t=0.5")
    if entry.tail and not g.tail_integrable:
        raise ValueError(f"suite {name!r} needs g(inf) = 0, and {g.name} has "
                         f"g(inf) = {g.limit_at_inf:g}")
    for t in ts:
        gt = g.at(t)
        if k and not check_bk(gt, k):
            raise ValueError(f"suite {name!r} needs a B{k} function, with g{prime}(0) "
                             f"finite, and {gt.name} is not one")
    Mc = opcalc.semigroup_constants(A)
    if entry.sectorial and not (math.isfinite(Mc[1]) and math.isfinite(Mc[2])):
        raise ValueError(f"suite {name!r} needs a sectorial generator; the spectrum of "
                         f"{A.name!r} is not sectorial (M_1 = {Mc[1]}, M_2 = {Mc[2]})")
    return Mc


def first_order_bounds(g, A: GeneratorMatrix, ts, ns, alphas, vectors) -> list[BoundReport]:
    """First-order bounds for B2 (families), with M = M_0:

    alpha=2:       M (g_t''(0)-1)/2 * t^2/n * ||A^2 x||
    alpha=1:       M sqrt(g_t''(0)-1) * t/sqrt(n) * ||A x||
    alpha in [0,2): 4M ((g_t''(0)-1) t^2/n)^{alpha/2} * ||A^alpha x||

    (alpha = 0 gives 4M ||x||, which holds since ||g_t(tA/n)^n|| <= M.)
    """
    M = _inputs("first", g, A, ts, alphas)[0]

    def terms(t, n):
        h = g.at(t).moments[2] - 1.0
        return [(alpha, "first-order-A2", M * 0.5 * h * t ** 2 / n) if alpha == 2.0
                else (alpha, "first-order-A1", M * math.sqrt(h) * t / math.sqrt(n))
                if alpha == 1.0
                else (alpha, "first-order-frac", 4.0 * M * (h * t ** 2 / n) ** (alpha / 2.0))
                for alpha in alphas]

    return _grid(g, A, ts, ns, vectors, terms)


def non_b2_bounds(g: CMFunction, A: GeneratorMatrix, ts, ns, alphas,
                  vectors) -> list[BoundReport]:
    """Bounds driven by g'(1/n) for fixed B1 functions with g''(0) = inf, M = M_0:

    alpha=1:       4eM (1 + 1/|g'(1/n)|) sqrt(1+g'(1/n)) t ||Ax||
    alpha in [0,1): 16eM (1 + 1/|g'(1/n)|) (1+g'(1/n))^{alpha/2} t^alpha ||A^alpha x||

    g'(1/n) is taken once per n.
    """
    M = _inputs("nonb2", g, A, ts, alphas)[0]
    dg = {n: g.derivative(1.0 / n, 1) for n in ns}

    def terms(t, n):
        lead = 4.0 * math.e * M * (1.0 + 1.0 / abs(dg[n]))
        root = max(1.0 + dg[n], 0.0)
        return [(alpha, "slope-A1", lead * math.sqrt(root) * t) if alpha == 1.0
                else (alpha, "slope-frac", 4.0 * lead * root ** (alpha / 2.0) * t ** alpha)
                for alpha in alphas]

    return _grid(g, A, ts, ns, vectors, terms)


def second_order_bounds(g, A: GeneratorMatrix, ts, ns, alphas, vectors) -> list[BoundReport]:
    """Residual R = scheme - e^{-tA} - (2n)^{-1}(g_t''(0)-1) t^2 e^{-tA} A^2 for
    B4 (families), with M = M_0; `alphas` is not read:

    ||Rx|| <= M C(g_t) t^3 n^{-3/2} ||A^3 x||,  C = sqrt((g''(0)-1)(g''''(0)-1)/2)
    ||Rx|| <= M C1(g_t) t^3 n^{-2} (||A^3 x|| + t ||A^4 x||),  C1 = g''''(0)-1
    """
    M = _inputs("second", g, A, ts, alphas)[0]

    def terms(t, n):
        h2, h4 = g.at(t).moments[2] - 1.0, g.at(t).moments[4] - 1.0
        C, C1 = math.sqrt(h2 * h4 / 2.0), h4
        return [(3.0, "second-order-A3", M * C * t ** 3 * n ** -1.5),
                (4.0, "second-order-A4", M * C1 * t ** 3 * n ** -2.0, ((3.0, 1.0), (4.0, t)))]

    return _grid(g, A, ts, ns, vectors, terms, second=True)


def holomorphic_bounds(g, A: GeneratorMatrix, ts, ns, alphas, vectors) -> list[BoundReport]:
    """Bound families for sectorial generators:

    op-norm:       K (g_t''(0)-1)/n,                    K = 3M0 + 3M1 + M2/2
    alpha=1:       (2M0 + 3M1/2)(g_t''(0)-1)/n * t ||Ax||
    alpha in (0,1): 3 M0 K (g_t''(0)-1)/n * t^alpha ||A^alpha x||
    sharp:         M_{2-alpha} c_alpha[g_n] t^alpha ||A^alpha x|| (fixed g only)

    c_alpha[g_n] is Euler's r_{alpha,Nn} for g.rational_n = N, else the quadrature.
    """
    Mc = _inputs("holo", g, A, ts, alphas)
    M0, M1, M2 = Mc[0], Mc[1], Mc[2]
    K = 3.0 * M0 + 3.0 * M1 + M2 / 2.0
    quad = g.rational_n is None and _fixed(g) and g.tail_integrable and g.log_defect is not None
    # one quadrature for every alpha of the suite, per n
    c = {n: functionals.c_alpha_quads(power_scale(g, n), alphas) for n in set(ns)} if quad else {}

    def terms(t, n):
        h = g.at(t).moments[2] - 1.0
        out = []
        for alpha in alphas:
            if alpha == 1.0:
                out.append((alpha, "holo-A1", (2.0 * M0 + 1.5 * M1) * h / n * t))
            elif 0.0 < alpha < 1.0:
                out.append((alpha, "holo-frac", 3.0 * M0 * K * h / n * t ** alpha))
            if g.rational_n is not None:
                r = euler_sharp_r(g.rational_n * n, alpha)
            elif quad:   # nan, which fails the row, where the quadrature did not converge
                r = c[n][alpha].value if c[n][alpha].converged else math.nan
            else:
                continue
            out.append((alpha, "holo-sharp", Mc[2.0 - alpha] * r * t ** alpha))
        return out

    return _grid(g, A, ts, ns, vectors, terms,
                 op_bound=lambda t, n: K * (g.at(t).moments[2] - 1.0) / n)


def euler_sharp_r(n: int, alpha: float) -> float:
    """r_{alpha,n} for Euler's scheme: 1/(2n) + (1-2 alpha)/(12 n^2) below
    alpha = 1/2, and 1/(2n) from alpha = 1/2 on."""
    if alpha < 0.5:
        return 1.0 / (2.0 * n) + (1.0 - 2.0 * alpha) / (12.0 * n * n)
    return 1.0 / (2.0 * n)


def holomorphic_second_order(g: CMFunction, A: GeneratorMatrix, ts, ns, alphas,
                             vectors) -> list[BoundReport]:
    """Second-order residual bound on sectorial generators, g fixed in B4 with g(inf) = 0:

    ||R_n x|| <= (|b[g_n]| M_{3-alpha} + d1[g_n]/2 M_{4-alpha}) t^alpha ||A^alpha x||

    for alpha in [0, 3], where both M indices are >= 0.
    """
    Mc = _inputs("holo2", g, A, ts, alphas)
    b_d1 = {}
    for n in set(ns):
        gn = power_scale(g, n)
        c = functionals.c_alpha_quads(gn, (0, 1))   # c_0 and c_1 of d1 in one quadrature
        try:
            d1 = functionals.d1_of(gn, c)
        except functionals.DivergentError:   # a nan bound fails the rows
            d1 = math.nan
        b_d1[n] = functionals.b_of(gn), d1

    def terms(t, n):
        b_n, d1_n = b_d1[n]
        return [(alpha, "holo-second",
                 (abs(b_n) * Mc[3.0 - alpha] + 0.5 * d1_n * Mc[4.0 - alpha]) * t ** alpha)
                for alpha in alphas]

    return _grid(g, A, ts, ns, vectors, terms, second=True)


# ----------------------------------------------------------------------
# order fits on the spectrum
# ----------------------------------------------------------------------

def spectral_order(g, A: GeneratorMatrix, t: float, ns, alpha: float,
                   second: bool = False) -> OrderFit:
    """Fit of the n-exponent of ||E_n A^{-alpha}|| over the grid ns, where E_n is
    the defect (the second-order residual if `second`) on the spectrum and the
    weight lambda^{-alpha} is 0 at lambda = 0, where E_n vanishes.  Points at
    or below 100 eps ||e^{-tA} A^{-alpha}||, the size of either term of E_n,
    are roundoff and left out; with none left the flag is "exact"."""
    def weight(lam):
        zero = lam == 0
        return np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, frac_on_spectrum(lam, alpha)))

    [scale] = A.opnorm(lambda lam: np.exp(-t * lam) * weight(lam))
    norms = [e for f in _errors(g, [t], ns, A.dim, second)
             for e in A.opnorm(lambda lam, f=f: f(lam) * weight(lam))]
    floor = 100.0 * np.finfo(float).eps * scale
    return fit_order([(n, e) for n, e in zip(ns, norms) if e > floor])


def expected_exponent(A: GeneratorMatrix, alpha: float, second: bool = False) -> float:
    """The n-exponent spectral_order should find: -order on a sectorial spectrum
    (finite M_1), and -min(alpha/2, order) off a sector, as on the imaginary axis."""
    order = 2.0 if second else 1.0
    if math.isfinite(opcalc.semigroup_constants(A)[1]):
        return -order
    return 0.0 - min(alpha / 2.0, order)


# ----------------------------------------------------------------------
# sharp-constant experiments
# ----------------------------------------------------------------------

def _golden_max(f, a: float, b: float, tol: float = 1e-10) -> float:
    """The maximum of a unimodal f on [a, b] by golden-section search."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
    return f(0.5 * (a + b))


def euler_scalar_sharpness(n_grid) -> list[dict]:
    """The euler-scalar rows: the sup over t of Euler's `defect(t, n)` =
    (1 + t/n)^{-n} - e^{-t} > 0 as `value`, n sup as `scaled` against its limit
    2 e^{-2}, and `pass` from `within_bound(sup, M_2 r_{0,n})`, the holo-sharp
    bound at alpha = 0 on a positive spectrum (rho = 1)."""
    defect = euler().defect
    m2 = opcalc.SemigroupConstants(rho=1.0)[2.0]
    rows = []
    for n in n_grid:
        sup = _golden_max(lambda t: float(defect(t, n)), 1e-6, 20.0)
        rows.append({"experiment": "euler-scalar", "n": n, "value": sup, "scaled": n * sup,
                     "reference": 2.0 * math.exp(-2.0),
                     "pass": within_bound(sup, m2 * euler_sharp_r(n, 0.0))})
    return rows


def _W_density(n: int, tau: np.ndarray) -> np.ndarray:
    """Second-order density of Euler's g_n (two-sided around its break at 1):

    W_n(tau) = tau P(n, n tau) - P(n+1, n tau)   for tau <= 1,
               Q(n+1, n tau) - tau Q(n, n tau)   for tau > 1,

    built from the Gamma measure nu_n = n^n s^{n-1} e^{-ns}/(n-1)! ds via
    int_0^tau nu_n = P(n, n tau) and int_0^tau y nu_n(dy) = P(n+1, n tau).
    Both differences cancel when formed as written, so neither is:
    at and below 1 `_W_below` sums a series of positive terms, and above 1
    the upper tails Q = 1 - P are taken as they are (forming 1 - P cancels
    to 0 once P rounds to 1, as it does for n tau far above n).
    """
    from scipy.special import gammaincc

    tau = np.asarray(tau, dtype=float)
    out = np.empty(tau.shape)
    below = tau <= 1.0
    out[below] = _W_below(n, tau[below])
    ta = tau[~below]
    out[~below] = gammaincc(n + 1, n * ta) - ta * gammaincc(n, n * ta)
    return out


def _W_below(n: int, tau: np.ndarray) -> np.ndarray:
    """W_n(tau) for 0 <= tau <= 1 as pmf * sum_{j>=1} j x^j / (n (n+1) ... (n+j)),
    x = n tau, where pmf = e^{-x} x^n/n! = L[g_n] e^{-n D} with D = u - log1p(u),
    u = tau - 1, and L[g_n] = n^n e^{-n}/n! from `functionals.euler_power_L`.
    D is Euler's log-defect at u: the series sum_{k>=2} |u|^k/k of positive
    terms below its radius, where the difference would lose the rounding of
    log1p(u) against D itself, and the difference beyond (inf at u = -1).
    The ratio r of consecutive terms falls with j, so once it is below 1 the
    rest of the sum is at most term * r/(1-r).  The terms are added W_BLOCK
    at a time (a running product of the ratios); after each block an entry
    stops once that bound is below EPS of its sum, and only the entries
    still running are carried on."""
    pmf = functionals.euler_power_L(n) * np.exp(-n * euler().log_defect(tau - 1.0))
    x = n * tau
    term = x / (n * (n + 1.0))
    total = term.copy()
    active = np.arange(x.size)
    j = np.arange(1.0, W_BLOCK + 1.0)
    while active.size:
        r = (j + 1.0) / j * x[:, None] / (n + j + 1.0)
        terms = term[:, None] * np.cumprod(r, axis=1)
        total[active] += terms.sum(axis=1)
        term, r = terms[:, -1], r[:, -1]
        going = term * r > EPS * (1.0 - r) * total[active]
        active, x, term = active[going], x[going], term[going]
        j += W_BLOCK
    return pmf * total


def shift_second_order_sharpness(n_grid) -> list[dict]:
    """The shift-I1I2 rows: I_{1,n} = -int_0^2 W_n |tau-1| dtau as `value` and
    n^{3/2} |I_{1,n}| as `scaled`, against its liminf bound 1/(3 sqrt(2 pi));
    a row passes when I_{2,n} = -int_2^inf W_n dtau is within its bound
    |I_{2,n}| <= 2/n^2 and both quadratures converged.  W_n peaks at tau = 1
    with a width of about n^{-1/2}, so I_{1,n} is taken on the panels
    [0, 1-w, 1, 1+w, 2], w = min(1/2, 10/sqrt(n)), which put nodes on the
    peak at any n, and I_{2,n} over [2, inf)."""
    from . import quadrature

    rows = []
    for n in n_grid:
        if n < 2:
            raise ValueError("n >= 2 required")
        f1 = lambda tau: _W_density(n, tau) * np.abs(tau - 1.0)
        w = min(0.5, 10.0 / math.sqrt(n))
        edges = np.array([0.0, 1.0 - w, 1.0, 1.0 + w, 2.0])
        i1 = quadrature.integrate(f1, edges[:-1], edges[1:], rel_tol=W_REL_TOL)
        i2 = quadrature.integrate(lambda tau: _W_density(n, tau), 2.0, math.inf, rel_tol=W_REL_TOL)
        i1_value = -float(np.sum(i1.value))
        rows.append({"experiment": "shift-I1I2", "n": n, "value": i1_value,
                     "scaled": n ** 1.5 * abs(i1_value),
                     "reference": 1.0 / (3.0 * math.sqrt(2.0 * math.pi)),
                     "pass": i1.converged and i2.converged
                     and within_bound(abs(i2.value), 2.0 / n ** 2)})
    return rows


def sharpness_rows(ns, euler: bool, shift: bool) -> list[dict]:
    """The euler-scalar rows over the grid ns, then the shift-I1I2 rows of its n >= 2."""
    return ((euler_scalar_sharpness(ns) if euler else [])
            + (shift_second_order_sharpness([n for n in ns if n >= 2]) if shift else []))
