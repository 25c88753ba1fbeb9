"""Verification harness: errors vs. theoretical bounds, order fits, sharpness.

Each bound suite of SUITES produces BoundReport rows (one per test vector)
for one (t, n) cell, after checking what its theorem asks of g, A and alpha;
every row's pass flag applies the floating-point slack policy

    pass  <=>  error <= bound * (1 + 1e-9) + 1e-13.

Errors and norms are computed on the eigenvalue array: with the test
vectors as columns of X and Y = V^H X (A.basis.solve: a DST, a DFT or
the identity), a matrix function f(A) = V f(Lambda) V^H of the normal
generator has ||f(A) x_i|| = ||f(Lambda) y_i|| and operator norm
max |f(lambda)|, since V is unitary.
The defect g_t(t lambda/n)^n - e^{-t lambda} and the second-order residual
are those of g_n = power_scale(g_t, n) (CMFunction.defect and .residual):
for a g with a log-defect they come from it without cancellation.

Order fits are least-squares slopes on (log n, log error).  spectral_order
fits the n-exponent of ||E_n A^{-alpha}|| with E_n the defect (or the
second-order residual) on the eigenvalues; on a normal generator with a
dense spectral grid that norm is the scalar supremum whose decay the
paper's optimal rates describe, expected_exponent gives the rate the
spectrum admits, and order_verdict passes or fails the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals, opcalc
from .cmfun import CMFunction, power_scale
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


def within_bound(error: float, bound: float) -> bool:
    """The slack policy: error <= bound * (1 + SLACK_REL) + SLACK_ABS."""
    return error <= bound * (1.0 + SLACK_REL) + SLACK_ABS


def check_alphas(alphas, lo: float, hi: float, what: str) -> None:
    """ValueError naming the first alpha outside [lo, hi], the range of `what`."""
    for alpha in alphas:
        if not lo <= alpha <= hi:
            raise ValueError(f"--alpha {alpha:g} is outside [{lo:g}, {hi:g}], the range of {what}")


@dataclass(frozen=True)
class BoundReport:
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
        return {**vars(self), "slack": self.bound - self.error, "pass": self.passed}


@dataclass(frozen=True)
class OrderFit:
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

def _coords(A: GeneratorMatrix, vectors) -> np.ndarray:
    """Y = V^H X: the test vectors (columns of X) in the eigenbasis of A."""
    return A.basis.solve(np.column_stack(vectors))


def _norms(d: np.ndarray, Y: np.ndarray) -> list[float]:
    """||V diag(d) V^H x_i|| = ||d * y_i|| for each column y_i of Y."""
    return [float(v) for v in np.linalg.norm(d[:, None] * Y, axis=0)]


def _opnorm(d: np.ndarray) -> float:
    """||V diag(d) V^H|| = max |d|."""
    return float(np.max(np.abs(d)))


def _defect(g, A: GeneratorMatrix, t: float, n: int) -> np.ndarray:
    """scheme - e^{-tA} on the spectrum: g_n(z) - e^{-z} at z = t lambda, g_n = (g_t)_n."""
    return power_scale(g.at(t), n).defect(t * A.eigs)


def _residual(g, A: GeneratorMatrix, t: float, n: int) -> np.ndarray:
    """scheme - e^{-tA} - (2n)^{-1}(g_t''(0)-1) t^2 e^{-tA} A^2 on the spectrum."""
    gt = g.at(t)
    if not math.isfinite(gt.moments[2]):
        raise ValueError(f"{g.name}: the second-order residual needs a finite g''(0)")
    return power_scale(gt, n).residual(t * A.eigs)


def _frac_norms(A: GeneratorMatrix, alpha: float, Y) -> list[float]:
    return _norms(frac_on_spectrum(A.eigs, alpha), Y)


class _Cell:
    """One (t, n) cell of a suite: the test vectors in the eigenbasis of A,
    the error ||E x|| of each (E on the spectrum) and the rows added."""

    def __init__(self, g, A: GeneratorMatrix, t: float, n: int, vectors, E: np.ndarray):
        self.A, self.key, self.rows = A, (g.name, A.name, t, n), []
        self.Y = _coords(A, vectors)
        self.errors = _norms(E, self.Y)

    def add(self, alpha: float, tag: str, factor: float, norms=None) -> None:
        """Rows with bound factor * ||A^alpha x||, or factor * norms[i] when given."""
        if norms is None:
            norms = _frac_norms(self.A, alpha, self.Y)
        self.rows += [BoundReport(*self.key, alpha, i, err, factor * nx, tag)
                      for i, (err, nx) in enumerate(zip(self.errors, norms))]


# ----------------------------------------------------------------------
# bound suites
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    """A bound suite: the rates function (g, A, t, n, alphas, vectors) -> rows,
    looked up when the suite runs so that a wrapper set on the module
    attribute is the one called, and what its theorem asks of the inputs."""

    bounds: str
    alpha: tuple = (-math.inf, math.inf)   # the alpha range of the theorem
    moment: int = 0           # g_t in B_k: g_t^(k)(0) finite
    fixed: bool = False       # one function g, not a family g_t
    tail: bool = False        # g(inf) = 0, else d1[g_n] = inf
    sectorial: bool = False   # finite M_1 and M_2

    def __call__(self, g, A, t, n, alphas, vectors) -> list[BoundReport]:
        return globals()[self.bounds](g, A, t, n, alphas, vectors)


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


def _inputs(name: str, g, A: GeneratorMatrix, t: float, alphas):
    """(g_t, the constants M_beta of A) once the inputs meet what suite `name`
    asks of them; a ValueError naming the suite and the input otherwise."""
    entry = suite(name, alphas)
    gt = g.at(t)
    if entry.fixed and gt is not g:
        raise ValueError(f"suite {name!r} needs a fixed function: give t, as in {g.name}:t=0.5")
    if entry.tail and not g.tail_integrable:
        raise ValueError(f"suite {name!r} needs g(inf) = 0, and {g.name} has "
                         f"g(inf) = {g.limit_at_inf:g}")
    k, prime = entry.moment, "'" * entry.moment
    if k and not math.isfinite(gt.moments[k]):
        raise ValueError(f"suite {name!r} needs a B{k} function, with g{prime}(0) finite, "
                         f"and {gt.name} is not one")
    Mc = opcalc.semigroup_constants(A)
    if entry.sectorial and not (math.isfinite(Mc[1]) and math.isfinite(Mc[2])):
        raise ValueError(f"suite {name!r} needs a sectorial generator; the spectrum of "
                         f"{A.name!r} is not sectorial (M_1 = {Mc[1]}, M_2 = {Mc[2]})")
    return gt, Mc


def first_order_bounds(g, A: GeneratorMatrix, t: float, n: int, alphas,
                       vectors) -> list[BoundReport]:
    """First-order bounds for B2 (families), with M = M_0:

    alpha=2:       M (g_t''(0)-1)/2 * t^2/n * ||A^2 x||
    alpha=1:       M sqrt(g_t''(0)-1) * t/sqrt(n) * ||A x||
    alpha in [0,2): 4M ((g_t''(0)-1) t^2/n)^{alpha/2} * ||A^alpha x||

    (alpha = 0 gives 4M ||x||, which holds since ||g_t(tA/n)^n|| <= M.)
    """
    gt, Mc = _inputs("first", g, A, t, alphas)
    M, h = Mc[0], gt.moments[2] - 1.0
    cell = _Cell(g, A, t, n, vectors, _defect(g, A, t, n))
    for alpha in alphas:
        if alpha == 2.0:
            cell.add(alpha, "first-order-A2", M * 0.5 * h * t ** 2 / n)
        elif alpha == 1.0:
            cell.add(alpha, "first-order-A1", M * math.sqrt(h) * t / math.sqrt(n))
        else:
            cell.add(alpha, "first-order-frac", 4.0 * M * (h * t ** 2 / n) ** (alpha / 2.0))
    return cell.rows


def non_b2_bounds(g: CMFunction, A: GeneratorMatrix, t: float, n: int, alphas,
                  vectors) -> list[BoundReport]:
    """Bounds driven by g'(1/n) for fixed B1 functions with g''(0) = inf, M = M_0:

    alpha=1:       4eM (1 + 1/|g'(1/n)|) sqrt(1+g'(1/n)) t ||Ax||
    alpha in [0,1): 16eM (1 + 1/|g'(1/n)|) (1+g'(1/n))^{alpha/2} t^alpha ||A^alpha x||
    """
    _, Mc = _inputs("nonb2", g, A, t, alphas)
    dg = g.derivative(1.0 / n, 1)
    lead = 4.0 * math.e * Mc[0] * (1.0 + 1.0 / abs(dg))
    root = max(1.0 + dg, 0.0)
    cell = _Cell(g, A, t, n, vectors, _defect(g, A, t, n))
    for alpha in alphas:
        if alpha == 1.0:
            cell.add(alpha, "slope-A1", lead * math.sqrt(root) * t)
        else:
            cell.add(alpha, "slope-frac", 4.0 * lead * root ** (alpha / 2.0) * t ** alpha)
    return cell.rows


def second_order_bounds(g, A: GeneratorMatrix, t: float, n: int, alphas,
                        vectors) -> list[BoundReport]:
    """Residual R = scheme - e^{-tA} - (2n)^{-1}(g_t''(0)-1) t^2 e^{-tA} A^2 for
    B4 (families), with M = M_0; `alphas` is not read:

    ||Rx|| <= M C(g_t) t^3 n^{-3/2} ||A^3 x||,  C = sqrt((g''(0)-1)(g''''(0)-1)/2)
    ||Rx|| <= M C1(g_t) t^3 n^{-2} (||A^3 x|| + t ||A^4 x||),  C1 = g''''(0)-1
    """
    gt, Mc = _inputs("second", g, A, t, alphas)
    M, h2, h4 = Mc[0], gt.moments[2] - 1.0, gt.moments[4] - 1.0
    C, C1 = math.sqrt(h2 * h4 / 2.0), h4
    cell = _Cell(g, A, t, n, vectors, _residual(g, A, t, n))
    n3, n4 = _frac_norms(A, 3.0, cell.Y), _frac_norms(A, 4.0, cell.Y)
    cell.add(3.0, "second-order-A3", M * C * t ** 3 * n ** -1.5, n3)
    cell.add(4.0, "second-order-A4", M * C1 * t ** 3 * n ** -2.0,
             [a + t * b for a, b in zip(n3, n4)])
    return cell.rows


def holomorphic_bounds(g, A: GeneratorMatrix, t: float, n: int, alphas,
                       vectors) -> list[BoundReport]:
    """Bound families for sectorial generators:

    op-norm:       K (g_t''(0)-1)/n,                    K = 3M0 + 3M1 + M2/2
    alpha=1:       (2M0 + 3M1/2)(g_t''(0)-1)/n * t ||Ax||
    alpha in (0,1): 3 M0 K (g_t''(0)-1)/n * t^alpha ||A^alpha x||
    sharp:         M_{2-alpha} c_alpha[g_n] t^alpha ||A^alpha x|| (fixed g only)

    c_alpha[g_n] is Euler's r_{alpha,Nn} for g.rational_n = N, else the quadrature.
    """
    gt, Mc = _inputs("holo", g, A, t, alphas)
    h = gt.moments[2] - 1.0
    M0, M1, M2 = Mc[0], Mc[1], Mc[2]
    K = 3.0 * M0 + 3.0 * M1 + M2 / 2.0
    d = _defect(g, A, t, n)
    cell = _Cell(g, A, t, n, vectors, d)
    cell.rows.append(BoundReport(*cell.key, 0.0, -1, _opnorm(d), K * h / n, "holo-opnorm"))
    quad = g.rational_n is None and gt is g and g.tail_integrable and g.measure is not None
    if quad:   # one quadrature for every alpha of the suite
        functionals.c_alpha_quads(power_scale(g, n), alphas)
    for alpha in alphas:
        nx = _frac_norms(A, alpha, cell.Y)
        if alpha == 1.0:
            cell.add(alpha, "holo-A1", (2.0 * M0 + 1.5 * M1) * h / n * t, nx)
        elif 0.0 < alpha < 1.0:
            cell.add(alpha, "holo-frac", 3.0 * M0 * K * h / n * t ** alpha, nx)
        if g.rational_n is not None:
            c = euler_sharp_r(g.rational_n * n, alpha)
        elif quad:
            c = functionals.c_alpha_quad(power_scale(g, n), alpha).value
        else:
            continue
        cell.add(alpha, "holo-sharp", Mc[2.0 - alpha] * c * t ** alpha, nx)
    return cell.rows


def euler_sharp_r(n: int, alpha: float) -> float:
    """r_{alpha,n} for Euler's scheme: 1/(2n) + (1-2 alpha)/(12 n^2) below
    alpha = 1/2, and 1/(2n) from alpha = 1/2 on."""
    if alpha < 0.5:
        return 1.0 / (2.0 * n) + (1.0 - 2.0 * alpha) / (12.0 * n * n)
    return 1.0 / (2.0 * n)


def holomorphic_second_order(g: CMFunction, A: GeneratorMatrix, t: float, n: int,
                             alphas, vectors) -> list[BoundReport]:
    """Second-order residual bound on sectorial generators, g fixed in B4 with g(inf) = 0:

    ||R_n x|| <= (|b[g_n]| M_{3-alpha} + d1[g_n]/2 M_{4-alpha}) t^alpha ||A^alpha x||

    for alpha in [0, 3], where both M indices are >= 0.
    """
    _, Mc = _inputs("holo2", g, A, t, alphas)
    gn = power_scale(g, n)
    b_n = functionals.b_of(gn)
    d1_n = functionals.d1_of(gn)
    cell = _Cell(g, A, t, n, vectors, _residual(g, A, t, n))
    for alpha in alphas:
        K = abs(b_n) * Mc[3.0 - alpha] + 0.5 * d1_n * Mc[4.0 - alpha]
        cell.add(alpha, "holo-second", K * t ** alpha)
    return cell.rows


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
    zero = A.eigs == 0
    weight = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, frac_on_spectrum(A.eigs, alpha)))
    E = _residual if second else _defect
    floor = 100.0 * np.finfo(float).eps * _opnorm(np.exp(-t * A.eigs) * weight)
    pts = [(n, _opnorm(E(g, A, t, n) * weight)) for n in ns]
    return fit_order([(n, e) for n, e in pts if e > floor])


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

def _golden_max(f, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
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
    xm = 0.5 * (a + b)
    return xm, f(xm)


def euler_scalar_sharpness(n_grid) -> dict:
    """sup_t |(1 + t/n)^{-n} - e^{-t}| and its limit n * sup -> 2 e^{-2}."""
    rows = []
    for n in n_grid:
        def diff(t):
            return math.exp(-n * math.log1p(t / n)) - math.exp(-t)

        t_star, sup = _golden_max(diff, 1e-6, 20.0)
        rows.append({"n": n, "sup": sup, "t_star": t_star, "n_sup": n * sup})
    # fitted next-order coefficient in sup ~ 4e^{-2} (1/(2n) + c/n^2)
    lead = 2.0 * math.exp(-2.0)
    cs = [(r["n_sup"] - lead) * r["n"] / (4.0 * math.exp(-2.0)) for r in rows]
    return {"rows": rows, "limit": lead, "fitted_next_order": cs[-1]}


def _W_density(n: int, tau: np.ndarray) -> np.ndarray:
    """Second-order density of Euler's g_n (two-sided around its break at 1):

    W_n(tau) = tau P(n, n tau) - P(n+1, n tau)   for tau <= 1,
               Q(n+1, n tau) - tau Q(n, n tau)   for tau > 1,

    built from the Gamma measure nu_n = n^n s^{n-1} e^{-ns}/(n-1)! ds via
    int_0^tau nu_n = P(n, n tau) and int_0^tau y nu_n(dy) = P(n+1, n tau).
    Above 1 the upper tails Q = 1 - P are taken as they are: forming 1 - P
    cancels to 0 once P rounds to 1, as it does for n tau far above n.
    """
    from scipy.special import gammainc, gammaincc

    tau = np.asarray(tau, dtype=float)
    x = n * tau
    return np.where(tau <= 1.0, tau * gammainc(n, x) - gammainc(n + 1, x),
                    gammaincc(n + 1, x) - tau * gammaincc(n, x))


def shift_second_order_sharpness(n_grid) -> dict:
    """The integrals I_{1,n} = -int_0^2 W_n |tau-1| dtau and
    I_{2,n} = -int_2^inf W_n dtau, with |I_{2,n}| <= 2/n^2 and
    liminf n^{3/2} |I_{1,n}| >= 1/(3 sqrt(2 pi))."""
    from . import quadrature

    rows = []
    for n in n_grid:
        if n < 2:
            raise ValueError("n >= 2 required")
        f1 = lambda tau: _W_density(n, tau) * np.abs(tau - 1.0)
        i1 = -(quadrature.integrate(f1, 0.0, 1.0) + quadrature.integrate(f1, 1.0, 2.0))
        tail = quadrature.integrate_semi_infinite(lambda tau: _W_density(n, tau), 2.0)
        i2 = -tail.value
        rows.append({
            "n": n, "I1": i1, "I2": i2,
            "I2_bound": 2.0 / n ** 2,
            "I1_scaled": n ** 1.5 * abs(i1),
        })
    return {"rows": rows, "target": 1.0 / (3.0 * math.sqrt(2.0 * math.pi))}


def sharpness_rows(ns, euler: bool, shift: bool) -> list[dict]:
    """The sharp-constant rows over the grid ns, each checked under the BoundReport
    slack: euler-scalar sup_t |(1+t/n)^{-n} - e^{-t}| <= M_2 r_{0,n}, the holo-sharp
    bound at alpha = 0 on a positive spectrum (rho = 1); shift-I1I2 |I_{2,n}| <= 2/n^2."""
    rows = []
    if euler:
        m2 = opcalc.SemigroupConstants(rho=1.0)[2.0]
        rep = euler_scalar_sharpness(ns)
        rows += [{"experiment": "euler-scalar", "n": r["n"], "value": r["sup"],
                  "scaled": r["n_sup"], "reference": rep["limit"],
                  "pass": within_bound(r["sup"], m2 * euler_sharp_r(r["n"], 0.0))}
                 for r in rep["rows"]]
    if shift:
        rep = shift_second_order_sharpness([n for n in ns if n >= 2])
        rows += [{"experiment": "shift-I1I2", "n": r["n"], "value": r["I1"],
                  "scaled": r["I1_scaled"], "reference": rep["target"],
                  "pass": within_bound(abs(r["I2"]), r["I2_bound"])}
                 for r in rep["rows"]]
    return rows
