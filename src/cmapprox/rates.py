"""Verification harness: errors vs. theoretical bounds, order fits, sharpness.

Every experiment produces BoundReport rows (one per test vector) whose
pass flag applies the floating-point slack policy

    pass  <=>  error <= bound * (1 + 1e-9) + 1e-13.

Errors and norms are computed on the eigenvalue array: with the test
vectors as columns of X and Y = V^{-1} X (A.basis.solve: a DST, a DFT or
the identity on the gallery), a matrix function f(A) has
||f(A) x_i|| = ||V (f(Lambda) y_i)||.  For unitary V that is
||f(Lambda) y_i|| and the operator norm is max |f(lambda)|; a non-unitary V
is applied densely and its operator norms fall back to the dense SVD.

Order fits are least-squares slopes on (log n, log error).  spectral_order
fits the n-exponent of ||E_n A^{-alpha}|| with E_n the defect (or the
second-order residual) on the eigenvalues; on a normal generator with a
dense spectral grid that norm is the scalar supremum whose decay the
paper's optimal rates describe, and expected_exponent gives the rate the
spectrum admits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals, opcalc
from .cmfun import CMFunction, power_scale
from .opcalc import GeneratorMatrix, frac_on_spectrum, scheme_on_spectrum

__all__ = [
    "BoundReport",
    "within_bound",
    "OrderFit",
    "fit_order",
    "first_order_bounds",
    "non_b2_bounds",
    "second_order_bounds",
    "holomorphic_bounds",
    "holomorphic_second_order",
    "spectral_order",
    "expected_exponent",
    "euler_scalar_sharpness",
    "shift_second_order_sharpness",
]

SLACK_REL = 1e-9
SLACK_ABS = 1e-13
# largest |fitted - expected| exponent gap an order fit passes with
EXPONENT_TOL = 0.1


def within_bound(error: float, bound: float) -> bool:
    """The slack policy: error <= bound * (1 + SLACK_REL) + SLACK_ABS."""
    return error <= bound * (1.0 + SLACK_REL) + SLACK_ABS


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
    def slack(self) -> float:
        return self.bound - self.error

    @property
    def passed(self) -> bool:
        return within_bound(self.error, self.bound)

    def row(self) -> dict:
        return {
            "scheme": self.scheme, "generator": self.generator, "t": self.t,
            "n": self.n, "alpha": self.alpha, "vector_id": self.vector_id,
            "error": self.error, "bound": self.bound, "slack": self.slack,
            "tag": self.tag, "pass": self.passed,
        }


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


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _coords(A: GeneratorMatrix, vectors) -> np.ndarray:
    """Y = V^{-1} X: the test vectors (columns of X) in the eigenbasis of A."""
    if A.eigs is None:
        raise ValueError(f"{A.name}: bound suites need an eigendecomposition")
    return A.basis.solve(np.column_stack(vectors))


def _norms(A: GeneratorMatrix, d: np.ndarray, Y: np.ndarray) -> list[float]:
    """||V diag(d) V^{-1} x_i|| = ||V (d * y_i)|| for each column y_i of Y
    (= ||d * y_i|| when V is unitary)."""
    Z = d[:, None] * Y
    if not A.unitary:
        Z = A.basis.apply(Z)
    return [float(v) for v in np.linalg.norm(Z, axis=0)]


def _opnorm(A: GeneratorMatrix, d: np.ndarray) -> float:
    """||V diag(d) V^{-1}||: max |d| for unitary V, else the dense SVD."""
    if A.unitary:
        return float(np.max(np.abs(d)))
    return opcalc.opnorm(A.spectral_map(lambda lam: d))


def _defect(g, A: GeneratorMatrix, t: float, n: int) -> np.ndarray:
    """scheme - e^{-tA} on the spectrum."""
    return scheme_on_spectrum(g, t, n, A.eigs) - np.exp(-t * A.eigs)


def _residual(g, A: GeneratorMatrix, t: float, n: int) -> np.ndarray:
    """scheme - e^{-tA} - (2n)^{-1}(g_t''(0)-1) t^2 e^{-tA} A^2 on the spectrum."""
    h = g.at(t).moments[2] - 1.0
    if not math.isfinite(h):
        raise ValueError(f"{g.name}: the second-order residual needs a finite g''(0)")
    lam = A.eigs
    return _defect(g, A, t, n) - (h * t ** 2 / (2.0 * n)) * (np.exp(-t * lam) * lam ** 2)


def _errors(g, A: GeneratorMatrix, t: float, n: int, Y) -> list[float]:
    return _norms(A, _defect(g, A, t, n), Y)


def _frac_norms(A: GeneratorMatrix, alpha: float, Y) -> list[float]:
    return _norms(A, frac_on_spectrum(A.eigs, alpha), Y)


# ----------------------------------------------------------------------
# bound suites
# ----------------------------------------------------------------------

def first_order_bounds(g, A: GeneratorMatrix, t: float, n: int, alphas,
                       vectors, M: float) -> list[BoundReport]:
    """First-order bounds for B2 (families):

    alpha=2:       M (g_t''(0)-1)/2 * t^2/n * ||A^2 x||
    alpha=1:       M sqrt(g_t''(0)-1) * t/sqrt(n) * ||A x||
    alpha in [0,2): 4M ((g_t''(0)-1) t^2/n)^{alpha/2} * ||A^alpha x||

    (alpha = 0 gives 4M ||x||, which holds since ||g_t(tA/n)^n|| <= M.)
    """
    gt = g.at(t)
    if not math.isfinite(gt.moments[2]):
        raise ValueError("first-order suite requires a B2 (family of) function(s)")
    h = gt.moments[2] - 1.0
    Y = _coords(A, vectors)
    errs = _errors(g, A, t, n, Y)
    out = []
    for alpha in alphas:
        norms = _frac_norms(A, alpha, Y)
        for i, (err, nx) in enumerate(zip(errs, norms)):
            if alpha == 2.0:
                bound = M * 0.5 * h * t ** 2 / n * nx
                tag = "first-order-A2"
            elif alpha == 1.0:
                bound = M * math.sqrt(h) * t / math.sqrt(n) * nx
                tag = "first-order-A1"
            else:
                bound = 4.0 * M * (h * t ** 2 / n) ** (alpha / 2.0) * nx
                tag = "first-order-frac"
            out.append(BoundReport(g.name, A.name, t, n, alpha, i, err, bound, tag))
    return out


def non_b2_bounds(g: CMFunction, A: GeneratorMatrix, t: float, n: int, alphas,
                  vectors, M: float) -> list[BoundReport]:
    """Bounds driven by g'(1/n) for B1 functions with g''(0) = inf:

    alpha=1:       4eM (1 + 1/|g'(1/n)|) sqrt(1+g'(1/n)) t ||Ax||
    alpha in [0,1): 16eM (1 + 1/|g'(1/n)|) (1+g'(1/n))^{alpha/2} t^alpha ||A^alpha x||
    """
    dg = g.derivative(1.0 / n, 1)
    lead = 4.0 * math.e * M * (1.0 + 1.0 / abs(dg))
    root = max(1.0 + dg, 0.0)
    Y = _coords(A, vectors)
    errs = _errors(g, A, t, n, Y)
    out = []
    for alpha in alphas:
        norms = _frac_norms(A, alpha, Y)
        for i, (err, nx) in enumerate(zip(errs, norms)):
            if alpha == 1.0:
                bound = lead * math.sqrt(root) * t * nx
                tag = "slope-A1"
            else:
                bound = 4.0 * lead * root ** (alpha / 2.0) * t ** alpha * nx
                tag = "slope-frac"
            out.append(BoundReport(g.name, A.name, t, n, alpha, i, err, bound, tag))
    return out


def second_order_bounds(g, A: GeneratorMatrix, t: float, n: int,
                        vectors, M: float) -> list[BoundReport]:
    """Residual R = scheme - e^{-tA} - (2n)^{-1}(g_t''(0)-1) t^2 e^{-tA} A^2, with

    ||Rx|| <= M C(g_t) t^3 n^{-3/2} ||A^3 x||,  C = sqrt((g''(0)-1)(g''''(0)-1)/2)
    ||Rx|| <= M C1(g_t) t^3 n^{-2} (||A^3 x|| + t ||A^4 x||),  C1 = g''''(0)-1
    """
    gt = g.at(t)
    if not math.isfinite(gt.moments[4]):
        raise ValueError("second-order suite requires B4")
    h2 = gt.moments[2] - 1.0
    h4 = gt.moments[4] - 1.0
    C = math.sqrt(h2 * h4 / 2.0)
    C1 = h4
    Y = _coords(A, vectors)
    errs = _norms(A, _residual(g, A, t, n), Y)
    n3 = _frac_norms(A, 3.0, Y)
    n4 = _frac_norms(A, 4.0, Y)
    out = []
    for i, err in enumerate(errs):
        b1 = M * C * t ** 3 * n ** -1.5 * n3[i]
        b2 = M * C1 * t ** 3 * n ** -2.0 * (n3[i] + t * n4[i])
        out.append(BoundReport(g.name, A.name, t, n, 3.0, i, err, b1, "second-order-A3"))
        out.append(BoundReport(g.name, A.name, t, n, 4.0, i, err, b2, "second-order-A4"))
    return out


def holomorphic_bounds(g, A: GeneratorMatrix, t: float, n: int, alphas,
                       vectors, Mc: opcalc.SemigroupConstants,
                       c_alpha_fn=None) -> list[BoundReport]:
    """Bound families for sectorial generators:

    op-norm:       K (g_t''(0)-1)/n,                    K = 3M0 + 3M1 + M2/2
    alpha=1:       (2M0 + 3M1/2)(g_t''(0)-1)/n * t ||Ax||
    alpha in (0,1): 3 M0 K (g_t''(0)-1)/n * t^alpha ||A^alpha x||
    sharp:         M_{2-alpha} c_alpha[g_n] t^alpha ||A^alpha x|| (fixed g only)

    `c_alpha_fn(n, alpha)` overrides the quadrature c_alpha (e.g. the
    closed form for Euler's scheme).
    """
    gt = g.at(t)
    h = gt.moments[2] - 1.0
    M0, M1, M2 = Mc[0], Mc[1], Mc[2]
    K = 3.0 * M0 + 3.0 * M1 + M2 / 2.0
    d = _defect(g, A, t, n)
    out = [BoundReport(g.name, A.name, t, n, 0.0, -1,
                       _opnorm(A, d), K * h / n, "holo-opnorm")]
    Y = _coords(A, vectors)
    errs = _norms(A, d, Y)
    sharp_ok = gt is g and g.tail_integrable and g.measure is not None
    c_cache = {}
    for alpha in alphas:
        norms = _frac_norms(A, alpha, Y)
        if sharp_ok or c_alpha_fn is not None:
            if alpha not in c_cache:
                if c_alpha_fn is not None:
                    c_cache[alpha] = c_alpha_fn(n, alpha)
                else:
                    c_cache[alpha] = functionals.c_alpha_quad(power_scale(g, n), alpha).value
        for i, (err, nx) in enumerate(zip(errs, norms)):
            if alpha == 1.0:
                out.append(BoundReport(g.name, A.name, t, n, alpha, i, err,
                                       (2.0 * M0 + 1.5 * M1) * h / n * t * nx, "holo-A1"))
            elif 0.0 < alpha < 1.0:
                out.append(BoundReport(g.name, A.name, t, n, alpha, i, err,
                                       3.0 * M0 * K * h / n * t ** alpha * nx, "holo-frac"))
            if alpha in c_cache:
                bound = Mc[2.0 - alpha] * c_cache[alpha] * t ** alpha * nx
                out.append(BoundReport(g.name, A.name, t, n, alpha, i, err,
                                       bound, "holo-sharp"))
    return out


def euler_sharp_r(n: int, alpha: float) -> float:
    """r_{alpha,n} for Euler's scheme: 1/(2n) + (1-2 alpha)/(12 n^2) below
    alpha = 1/2, and 1/(2n) from alpha = 1/2 on."""
    if alpha < 0.5:
        return 1.0 / (2.0 * n) + (1.0 - 2.0 * alpha) / (12.0 * n * n)
    return 1.0 / (2.0 * n)


def holomorphic_second_order(g: CMFunction, A: GeneratorMatrix, t: float, n: int,
                             alphas, vectors,
                             Mc: opcalc.SemigroupConstants) -> list[BoundReport]:
    """Second-order residual bound on sectorial generators:

    ||R_n x|| <= (|b[g_n]| M_{3-alpha} + d1[g_n]/2 M_{4-alpha}) t^alpha ||A^alpha x||

    for alpha in [0, 3], where both M indices are >= 0.
    """
    gn = power_scale(g, n)
    b_n = functionals.b_of(gn)
    d1_n = functionals.d1_of(gn)
    Y = _coords(A, vectors)
    errs = _norms(A, _residual(g, A, t, n), Y)
    out = []
    for alpha in alphas:
        K = abs(b_n) * Mc[3.0 - alpha] + 0.5 * d1_n * Mc[4.0 - alpha]
        norms = _frac_norms(A, alpha, Y)
        for i, err in enumerate(errs):
            out.append(BoundReport(g.name, A.name, t, n, alpha, i, err,
                                   K * t ** alpha * norms[i], "holo-second"))
    return out


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
    if A.eigs is None:
        raise ValueError(f"{A.name}: order fits need an eigendecomposition")
    zero = A.eigs == 0
    weight = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, frac_on_spectrum(A.eigs, alpha)))
    E = _residual if second else _defect
    floor = 100.0 * np.finfo(float).eps * _opnorm(A, np.exp(-t * A.eigs) * weight)
    pts = [(n, _opnorm(A, E(g, A, t, n) * weight)) for n in ns]
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

    W_n(tau) = tau P(n, n tau) - P(n+1, n tau)            for tau <= 1,
               (1 - P(n+1, n tau)) - tau (1 - P(n, n tau)) for tau > 1,

    built from the Gamma measure nu_n = n^n s^{n-1} e^{-ns}/(n-1)! ds via
    int_0^tau nu_n = P(n, n tau) and int_0^tau y nu_n(dy) = P(n+1, n tau).
    """
    from scipy.special import gammainc

    tau = np.asarray(tau, dtype=float)
    p0 = gammainc(n, n * tau)
    p1 = gammainc(n + 1, n * tau)
    below = tau * p0 - p1
    above = (1.0 - p1) - tau * (1.0 - p0)
    return np.where(tau <= 1.0, below, above)


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
