"""Rate functionals of completely monotone approximations.

Implements the defect Delta_alpha(z) = (g(z) - e^{-z})/z^alpha, the
second-order density G with Delta_2 = Laplace(G), and the functionals

    L[g]   = int_0^1 (1-s) nu(ds)            (operator-norm driver)
    a[g]   = int G        = (g''(0)-1)/2
    b[g]   = int (1-s) G  = (3 g''(0)+g'''(0)-2)/6
    c_a[g] = Gamma(2-a)^{-1} int Delta_{1+a} = int G(s) s^{a-2} ds
    d0[g]  = int (1-s)^2 G
    d1[g]  = int (1-s)^2 (1+s) s^{-2} G = c_0 - c_1 - b

Each functional has two evaluation routes: a measure route (exact up to
closed-form partial moments, via Fubini kernels K(tau) = the s-integral
of the weight against the G construction) and a z-quadrature route that
only needs pointwise values of g (used for power-scaled functions whose
measure is not materialized).  The quadrature route integrates Delta_alpha
from `CMFunction.defect`, which for a g with a log-defect L_n is
e^{-z} expm1(L_n(z)) and so keeps full relative precision at small z.  All
the alphas asked for one g share one semi-infinite quadrature of a
vector-valued integrand: the defect is evaluated once per point and divided
by each power of z, and the head panel [0, 1] is taken in z = x^2, where
the integrand is smooth for every alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .cmfun import CMFunction, check_b1, check_bk, power_scale

__all__ = [
    "GDensity",
    "FunctionalValues",
    "g_density",
    "g0_density",
    "delta",
    "functional_L",
    "delta1_norm",
    "L_upper_bound",
    "L_scaled_bound",
    "c_alpha",
    "c_alpha_measure",
    "c_alpha_quad",
    "c_alpha_quads",
    "euler_c_alpha_exact",
    "a_of",
    "b_of",
    "d0_of",
    "d1_of",
    "functional_values",
    "asymptotic_c_check",
    "check_polynomial_rate",
    "euler_power_L",
]


class RequiresMeasureError(ValueError):
    pass


class DivergentError(ArithmeticError):
    pass


# ----------------------------------------------------------------------
# densities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GDensity:
    """The density G with Delta_2 = Laplace(G), evaluated from the measure,
    or with pivot = 1 its companion G0:

    G(s) = int_0^s (p - tau) nu(dtau)   for s in [0, 1],
    G(s) = int_s^inf (tau - p) nu(dtau) for s > 1,

    with p = s for G and p = 1 for G0.
    """

    g: CMFunction
    pivot: float | None = None

    def __call__(self, s):
        nu = self.g.measure
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s_arr)
        for i, si in enumerate(s_arr):
            p = si if self.pivot is None else self.pivot
            if si <= 1.0:
                out[i] = p * nu.partial_moment(0, 0.0, si) - nu.partial_moment(1, 0.0, si)
            else:
                out[i] = nu.partial_moment(1, si, math.inf) - p * nu.partial_moment(0, si, math.inf)
        return out if np.ndim(s) else float(out[0])

    def peak(self) -> float:
        """max G = G(1) = int_0^1 (1 - tau) nu(dtau)."""
        return self(1.0)

    def integral(self) -> float:
        """int_0^inf G = int (1-tau)^2/2 nu(dtau) = (g''(0)-1)/2; twice that for G0."""
        scale = 0.5 if self.pivot is None else 1.0
        return scale * self.g.measure.kernel_integral(lambda tau: (1.0 - tau) ** 2)


def g_density(g: CMFunction) -> GDensity:
    if g.measure is None:
        raise RequiresMeasureError(f"{g.name}: G density needs an explicit measure")
    if not check_b1(g):
        raise ValueError("G density defined on B1")
    return GDensity(g)


def g0_density(g: CMFunction) -> GDensity:
    if g.measure is None:
        raise RequiresMeasureError(f"{g.name}: G0 density needs an explicit measure")
    return GDensity(g, pivot=1.0)


# ----------------------------------------------------------------------
# defect
# ----------------------------------------------------------------------

def delta(g: CMFunction, alpha: float, z):
    """Delta_alpha(z) = (g(z) - e^{-z}) / z^alpha for z > 0 (vectorized), with the
    difference from g.defect."""
    z = np.asarray(z, dtype=float)
    zz = np.where(z == 0.0, 1.0, z)
    out = g.defect(zz) / zz ** alpha
    if np.any(z == 0.0):
        if alpha == 2.0 and math.isfinite(g.moments[2]):
            out = np.where(z == 0.0, 0.5 * (g.moments[2] - 1.0), out)
        else:
            raise ValueError("Delta_alpha undefined at z = 0 unless alpha = 2 on B2")
    return out


# ----------------------------------------------------------------------
# L and the Delta_1 norm
# ----------------------------------------------------------------------

def functional_L(g: CMFunction) -> float:
    """L[g] = int_0^1 (1-s) nu(ds) (measure route)."""
    if g.measure is None:
        raise RequiresMeasureError(f"{g.name}: L needs an explicit measure")
    nu = g.measure
    return nu.partial_moment(0, 0.0, 1.0) - nu.partial_moment(1, 0.0, 1.0)


def delta1_norm(g: CMFunction) -> float:
    """The transform mass of Delta_1: int |1 - tau| nu(dtau) = 2 L[g]."""
    if g.measure is None:
        raise RequiresMeasureError(f"{g.name}: needs an explicit measure")
    return g.measure.kernel_integral(lambda tau: np.abs(1.0 - tau))


def L_upper_bound(g: CMFunction):
    """Evaluation-only upper bound for L[g] on B1.

    Returns sqrt((1+g'(1)) * int_0^1 g / (1-g(1))^2 - 1) + 2e int_0^1 (g+g'),
    with int_0^1 g' = g(1) - 1.  Degenerate when g(1) = 1 (flagged +inf).
    """
    g1 = float(g(1.0))
    dg1 = g.derivative(1.0, 1)
    if 1.0 - g1 <= 0.0:
        return math.inf, "degenerate"
    beta = quadrature.integrate(g, 0.0, 1.0)
    inner = (1.0 + dg1) * beta / (1.0 - g1) ** 2 - 1.0
    term1 = math.sqrt(max(inner, 0.0))
    term2 = 2.0 * math.e * (beta + g1 - 1.0)
    return term1 + term2, "ok"


def L_scaled_bound(g: CMFunction, n: int) -> float:
    """Upper bound for L[g_n] in terms of g'(1/n):

    2e (1 + 1/|g'(1/n)|) sqrt(1 + g'(1/n)).
    """
    dg = g.derivative(1.0 / n, 1)
    if dg == 0.0:
        return math.inf
    return 2.0 * math.e * (1.0 + 1.0 / abs(dg)) * math.sqrt(max(1.0 + dg, 0.0))


def euler_power_L(n: int) -> float:
    """Exact L[g_n] for Euler's scheme from the Gamma measure of g_n.

    With nu_n = n^n s^{n-1} e^{-ns}/(n-1)! ds one has
    int_0^1 nu_n = P(n, n) and int_0^1 s nu_n = P(n+1, n), so
    L[g_n] = P(n, n) - P(n+1, n) = n^n e^{-n}/n! (regularized lower
    incomplete gamma P).  Below _SHIFT the factorial is exact; above it
    Stirling's series n!/(n^n e^{-n}) = sqrt(2 pi n) exp(sum_k B_2k /
    (2k(2k-1) n^{2k-1})) keeps full relative accuracy.
    """
    if n < _SHIFT:
        return n ** n / math.factorial(n) * math.exp(-n)
    series = sum(_B[2 * k] / (2 * k * (2 * k - 1) * n ** (2 * k - 1)) for k in range(1, 7))
    return math.exp(-series) / math.sqrt(2.0 * math.pi * n)


# ----------------------------------------------------------------------
# c_alpha: measure route, quadrature route, Euler closed form
# ----------------------------------------------------------------------

def _c_kernel(tau: np.ndarray, alpha: float) -> np.ndarray:
    """K(tau) with c_alpha[g] = int K(tau) nu(dtau) (Fubini through G).

    K(tau) = int_tau^1 (s-tau) s^{alpha-2} ds  for tau <= 1,
             int_1^tau (tau-s) s^{alpha-2} ds  for tau > 1.
    """
    tau = np.asarray(tau, dtype=float)
    out = np.empty_like(tau)
    below = tau <= 1.0
    tb = tau[below]
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha == 0.0:
            vals = -np.log(tb) - 1.0 + tb
        elif alpha == 1.0:
            vals = 1.0 - tb + tb * np.log(tb)
            vals = np.where(tb == 0.0, 1.0, vals)  # tau log tau -> 0
        else:
            vals = (1.0 - tb ** alpha) / alpha - tb * (1.0 - tb ** (alpha - 1.0)) / (alpha - 1.0)
            # at tau = 0 the second term vanishes: K(0) = 1/alpha
            vals = np.where(tb == 0.0, 1.0 / alpha, vals)
    out[below] = vals
    ta = tau[~below]
    if alpha == 0.0:
        vals = ta - 1.0 - np.log(ta)
    elif alpha == 1.0:
        vals = ta * np.log(ta) - (ta - 1.0)
    else:
        vals = ta * (ta ** (alpha - 1.0) - 1.0) / (alpha - 1.0) - (ta ** alpha - 1.0) / alpha
    out[~below] = vals
    return out


def c_alpha_measure(g: CMFunction, alpha: float) -> float:
    """c_alpha by the measure route; inf when the integral diverges
    (e.g. alpha = 0 with an atom at the origin)."""
    if g.measure is None:
        raise RequiresMeasureError(f"{g.name}: measure route needs an explicit measure")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0 and g.measure.zero_atom_mass() > 0.0:
        return math.inf
    return g.measure.kernel_integral(lambda tau: _c_kernel(tau, alpha))


@dataclass(frozen=True)
class QuadValue:
    value: float
    converged: bool
    flag: str = ""


def c_alpha_quad(g: CMFunction, alpha: float, rel_tol: float = 1e-11) -> QuadValue:
    """c_alpha[g] = Gamma(2-alpha)^{-1} int_0^inf Delta_{1+alpha}(z) dz, read
    from `c_alpha_quads` (one alpha).

    Needs only pointwise values of g (through g.defect, with its log-defect
    where g carries one), so it applies to power-scaled functions without a
    measure.
    When g(inf) = c > 0 the constant part of the tail is integrated
    analytically for alpha > 0; for alpha = 0 the integral genuinely
    diverges (logarithmically) and a truncated value is returned with
    converged=False.
    """
    return c_alpha_quads(g, (alpha,), rel_tol)[float(alpha)]


# (g, alpha, rel_tol) -> QuadValue: each c_alpha quadrature runs once per process
_C_ALPHA: dict = {}
# The tail stops once two dyadic panels each hold less than this share of
# the sum, so the truncated rest is about this size: with the head summed
# to roundoff, 1e-13 would leave it the largest error of Euler's c_0 (2.5e-14
# relative at n = 64).  A 1/z tail (g_1 for Euler or the spline) still
# stops at z = 2^49, inside the span of 1e15.
TAIL_REL = 1e-14


def c_alpha_quads(g: CMFunction, alphas, rel_tol: float = 1e-11) -> dict:
    """{alpha: c_alpha_quad(g, alpha)} for every alpha in alphas.

    The alphas not yet computed for (g, rel_tol) in this process share one
    quadrature, since the costly part of the integrand, the defect of g, is
    the same for all of them; the divergent alpha = 0 of a g with g(inf) > 0
    takes its own.  The values are stored, and later calls read them.
    """
    alphas = sorted({float(a) for a in alphas})
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha must lie in [0, 1]")
    todo = [a for a in alphas if (g, a, rel_tol) not in _C_ALPHA]
    batches = [todo]
    if g.limit_at_inf > 0.0 and 0.0 in todo:
        batches = [[0.0], todo[1:]]
    for batch in batches:
        if batch:
            values = _c_alpha_quadrature(g, tuple(batch), rel_tol)
            _C_ALPHA.update(((g, a, rel_tol), qv) for a, qv in zip(batch, values))
    return {a: _C_ALPHA[(g, a, rel_tol)] for a in alphas}


def _c_alpha_quadrature(g: CMFunction, alphas: tuple, rel_tol: float) -> list[QuadValue]:
    """One quadrature of int_0^inf D(z) z^{-1-alpha} dz, D = g - e^{-z}, for
    every alpha in alphas.  On the head panel [0, 1], z = x^2 turns
    z^{1-alpha} at 0 into the smooth x^{3-2 alpha}; beyond it z = x."""
    al = np.array(alphas)[:, None]
    c_inf = g.limit_at_inf
    z0 = 40.0
    # with c_inf > 0 and alpha = 0 the integral diverges (logarithmically):
    # the truncation at z = 1e6 is returned and flagged; for alpha > 0 the
    # constant c_inf/z^{1+alpha} beyond z0 is integrated analytically
    divergent = c_inf > 0.0 and alphas == (0.0,)
    tail_const = 0.0 if divergent else c_inf

    def integrand(x):
        head = x < 1.0
        z = np.where(head, x * x, x)
        num = g.defect(z)
        if tail_const > 0.0:
            far = z >= z0
            zt = z[far]
            num[far] = g(zt) - np.exp(-zt) - tail_const
        return np.where(head, 2.0 * x, 1.0) * num * z ** (-1.0 - al)

    res = quadrature.integrate_semi_infinite(integrand, (0.0, 1.0, z0), rel_tol=rel_tol,
                                             tail_rel=TAIL_REL,
                                             max_span=1e6 if divergent else 1e15)
    out = []
    for alpha, value, stopped in zip(alphas, res.value.tolist(), res.stopped.tolist()):
        analytic = tail_const * z0 ** (-alpha) / alpha if tail_const > 0.0 else 0.0
        converged = stopped and not divergent
        out.append(QuadValue((value + analytic) * (1.0 / math.gamma(2.0 - alpha)), converged,
                             "" if converged else "tail_divergent"))
    return out


def c_alpha(g: CMFunction, alpha: float) -> float:
    """c_alpha by the best available route (measure preferred)."""
    if g.measure is not None:
        return c_alpha_measure(g, alpha)
    qv = c_alpha_quad(g, alpha)
    if not qv.converged:
        raise DivergentError(f"c_{alpha}[{g.name}] diverges")
    return qv.value


# The large-n series below are summed at m = max(n, _SHIFT) and carried
# down to n by the recurrences of Gamma and psi; at m >= 32 the terms up
# to B_12 leave a truncation error far below one ulp.
_SHIFT = 32
# Bernoulli numbers B_0..B_12 (B_1 = -1/2)
_B = (1, -1/2, 1/6, 0, -1/30, 0, 1/42, 0, -1/30, 0, 5/66, 0, -691/2730)


def _log_gamma_ratio(n: int, a: float) -> float:
    """log(Gamma(n+a) / (n^a Gamma(n))) without the cancellation of log-gammas.

    At m: sum_k (-1)^{k+1} (B_{k+1}(a) - B_{k+1}) / (k(k+1) m^k); then
    Gamma(n+a)/Gamma(n) = Gamma(m+a)/Gamma(m) prod_{j=n}^{m-1} j/(j+a).
    """
    m = max(n, _SHIFT)
    series = 0.0
    for k in range(1, 12):
        bpoly = sum(math.comb(k + 1, i) * _B[i] * a ** (k + 1 - i) for i in range(k + 1))
        series += (-1) ** (k + 1) * bpoly / (k * (k + 1) * m ** k)
    j = np.arange(n, m, dtype=float)
    return series - float(np.sum(np.log1p(a / j))) + a * math.log(m / n)


def _log_minus_digamma(n: int) -> float:
    """log n - psi(n): 1/(2m) + sum_k B_2k / (2k m^2k) at m, then
    psi(n) = psi(m) - sum_{j=n}^{m-1} 1/j."""
    m = max(n, _SHIFT)
    series = 0.5 / m + sum(_B[2 * k] / (2 * k * m ** (2 * k)) for k in range(1, 7))
    j = np.arange(n, m, dtype=float)
    return series + float(np.sum(1.0 / j)) - math.log(m / n)


def euler_c_alpha_exact(n: int, alpha: float) -> float:
    """Closed form for Euler's scheme:

    c_alpha[g_n] = [1 - Gamma(n+alpha)/(n^alpha Gamma(n))]/(alpha(1-alpha)),
    with digamma endpoints c_0 = log n - psi(n), c_1 = psi(n+1) - log n.
    The ratio and the endpoints come from their large-n series, so the
    value keeps full relative accuracy however large n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha == 0.0:
        return _log_minus_digamma(n)
    if alpha == 1.0:
        return 1.0 / n - _log_minus_digamma(n)
    return -math.expm1(_log_gamma_ratio(n, alpha)) / (alpha * (1.0 - alpha))


# ----------------------------------------------------------------------
# b, d0, d1
# ----------------------------------------------------------------------

def a_of(g: CMFunction) -> float:
    """a[g] = (g''(0) - 1)/2, read from the log-defect L_n(z) = n L(z/n) as
    its z^2 coefficient c_2/n where g carries one: for g_n the moment
    g_n''(0) = 1 + (g''(0) - 1)/n would cancel."""
    if not check_bk(g, 2):
        raise ValueError(f"{g.name}: a[g] requires B2")
    L = g.log_defect
    if L is not None:
        return L.coeffs[0] / L.scale if L.coeffs else 0.0
    return 0.5 * (g.moments[2] - 1.0)


def b_of(g: CMFunction, route: str = "closed") -> float:
    """b[g] = int (1-s) G(s) ds = (3 g''(0) + g'''(0) - 2)/6."""
    if not check_bk(g, 3):
        raise ValueError(f"{g.name}: b[g] requires B3")
    if route == "closed":
        return (3.0 * g.moments[2] - g.moments[3] - 2.0) / 6.0
    if route == "measure":
        if g.measure is None:
            raise RequiresMeasureError(f"{g.name}: measure route needs a measure")
        return g.measure.kernel_integral(lambda tau: (1.0 - tau) ** 3 / 6.0)
    raise ValueError("route must be 'closed' or 'measure'")


def d0_of(g: CMFunction, route: str = "closed") -> float:
    """d0[g] = int (1-s)^2 G(s) ds = (-3 + 6 g''(0) + 4 g'''(0) + g''''(0))/12."""
    if not check_bk(g, 4):
        raise ValueError(f"{g.name}: d0[g] requires B4")
    if route == "closed":
        return (-3.0 + 6.0 * g.moments[2] - 4.0 * g.moments[3] + g.moments[4]) / 12.0
    if route == "measure":
        if g.measure is None:
            raise RequiresMeasureError(f"{g.name}: measure route needs a measure")
        return g.measure.kernel_integral(lambda tau: (1.0 - tau) ** 4 / 12.0)
    raise ValueError("route must be 'closed' or 'measure'")


def d1_of(g: CMFunction) -> float:
    """d1[g] = int (1-s)^2 (1+s) s^{-2} G(s) ds = c_0[g] - c_1[g] - b[g].

    Computed through the identity so that it is available for
    power-scaled functions without a materialized measure.  When g(inf) > 0,
    c_0 diverges: the measure route gives inf, and the quadrature route
    raises DivergentError rather than return a truncated value.
    """
    if not check_bk(g, 4):
        raise ValueError(f"{g.name}: d1[g] requires B4")
    if g.measure is None:
        c_alpha_quads(g, (0.0, 1.0))
    return c_alpha(g, 0.0) - c_alpha(g, 1.0) - b_of(g)


@dataclass(frozen=True)
class FunctionalValues:
    name: str
    L: float
    a: float
    b: float | None
    d0: float | None
    d1: float | None
    c: dict
    provenance: str


def functional_values(g: CMFunction, alphas=(0.0, 0.25, 0.5, 0.75, 1.0)) -> FunctionalValues:
    has_measure = g.measure is not None
    L = functional_L(g) if has_measure else math.nan
    a = a_of(g) if check_bk(g, 2) else math.nan
    b = b_of(g) if check_bk(g, 3) else None
    d0 = d0_of(g) if check_bk(g, 4) else None
    cs = {}
    if check_bk(g, 2) and g.tail_integrable:
        if has_measure:
            cs = {al: c_alpha(g, al) for al in alphas}
        else:
            cs = {al: qv.value for al, qv in c_alpha_quads(g, alphas).items()}
    d1 = d1_of(g) if (check_bk(g, 4) and g.tail_integrable) else None
    return FunctionalValues(
        name=g.name, L=L, a=a, b=b, d0=d0, d1=d1, c=cs,
        provenance="measure" if has_measure else "quadrature",
    )


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

def asymptotic_c_check(g: CMFunction, n_grid, alphas=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """Scaled residuals n^2 |c_alpha[g_n] - (g''(0)-1)/(2n)| over a grid.

    Returns a list of rows {n, alpha, c, resid_scaled, flag}; the caller
    asserts boundedness / reports the fitted constant.
    """
    if not check_bk(g, 2):
        raise ValueError("asymptotic check requires B2")
    lead = 0.5 * (g.moments[2] - 1.0)
    rows = []
    for n in n_grid:
        gn = power_scale(g, n)
        for al, qv in c_alpha_quads(gn, alphas).items():
            resid = n ** 2 * abs(qv.value - lead / n)
            rows.append({
                "n": n, "alpha": al, "c": qv.value,
                "resid_scaled": resid,
                "flag": qv.flag,
            })
    return rows


def check_polynomial_rate(g: CMFunction, gamma: float,
                          tau_grid=None, n_grid=None):
    """Fitted constants for the three equivalent polynomial-decay conditions:

    (i)   g''(tau) <= c1 tau^{gamma-1} on (0, 1],
    (ii)  int_0^s tau^2 nu(dtau) <= c2 s^{1-gamma},
    (iii) 1 + g'(1/n) <= c3 n^{-gamma}.
    """
    if tau_grid is None:
        tau_grid = np.logspace(-4, 0, 25)
    if n_grid is None:
        n_grid = [2 ** k for k in range(0, 15)]
    c1 = max(g.derivative(t, 2) * t ** (1.0 - gamma) for t in tau_grid)
    c2 = math.nan
    if g.measure is not None:
        c2 = max(
            g.measure.partial_moment(2, 0.0, s) * s ** (gamma - 1.0)
            for s in np.logspace(-2, 4, 25)
        )
    c3 = max((1.0 + g.derivative(1.0 / n, 1)) * n ** gamma for n in n_grid)
    return {"c_second_deriv": c1, "c_truncated_moment": c2, "c_scaled_slope": c3}
