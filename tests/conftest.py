"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import math
import os

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.special

from cmapprox import cmfun
from cmapprox.measures import PowerLawSegment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_env(**extra):
    """The environment of a fresh interpreter that imports the package from
    src/, with the variables in extra set."""
    src = os.path.join(ROOT, "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
                **extra)


def b2_builtins():
    """Every built-in with finite second moment and an explicit measure."""
    return [
        cmfun.exponential(),
        cmfun.euler(),
        cmfun.spline(),
        cmfun.kendall(0.5),
        cmfun.yosida(1.0),
        cmfun.hille(),
        cmfun.chung((0.25, 0.5, 0.25), 1.0),
    ]


# ----------------------------------------------------------------------
# the measure routes to c_alpha and L: references built from the measure
# or from values of g by scipy's quadrature, sharing no code with
# cmapprox.quadrature
# ----------------------------------------------------------------------

def density(seg, s):
    """The density of a measure segment at s, from its definition."""
    s = np.asarray(s, dtype=float)
    if isinstance(seg, PowerLawSegment):
        return seg.weight * (1.0 + s) ** -seg.exponent
    val = np.polynomial.polynomial.polyval(s, seg.coeffs) * np.exp(-seg.rate * s)
    return np.where((s >= seg.a) & (s <= seg.b), val, 0.0)


def kernel_integral(nu, kernel):
    """int kernel(tau) nu(dtau) for a kernel vectorized over tau >= 0: atoms
    summed exactly (inf when the kernel is not finite at one), segments by
    scipy's quad to 1e-12 relative (1e-15 absolute)."""
    total = 0.0
    for loc, w in nu.atoms:
        val = float(kernel(np.array([loc]))[0])
        if not math.isfinite(val):
            return math.inf
        total += w * val
    for seg in nu.segments:
        a, b = (0.0, math.inf) if isinstance(seg, PowerLawSegment) else (seg.a, seg.b)
        f = lambda s, seg=seg: float(kernel(np.array([s]))[0] * density(seg, s))
        total += scipy.integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
    return total


def c_alpha_measure(g, alpha):
    """c_alpha[g] = int K(tau) nu(dtau) through the measure of g (Fubini), with
    K(tau) the integral of |s - tau| s^{alpha-2} ds between tau and 1, one
    closed form on both sides of 1; inf for alpha = 0 and an atom at 0."""
    def kernel(t):
        with np.errstate(divide="ignore"):
            if alpha == 0.0:
                return t - 1.0 - np.log(t)
        if alpha == 1.0:
            return 1.0 - t + scipy.special.xlogy(t, t)
        return (1.0 - t ** alpha) / alpha - (t - t ** alpha) / (alpha - 1.0)

    return kernel_integral(g.measure, kernel)


def L_upper_bound(g):
    """(bound, flag): an upper bound on L[g] for g in B1 from values of g,
    sqrt((1+g'(1)) int_0^1 g / (1-g(1))^2 - 1) + 2e int_0^1 (g+g'), with
    int_0^1 g' = g(1) - 1; (inf, "degenerate") when g(1) = 1."""
    g1 = float(g(1.0))
    if g1 >= 1.0:
        return math.inf, "degenerate"
    beta = scipy.integrate.quad(lambda x: float(g(x)), 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]
    inner = (1.0 + g.derivative(1.0, 1)) * beta / (1.0 - g1) ** 2 - 1.0
    return math.sqrt(max(inner, 0.0)) + 2.0 * math.e * (beta + g1 - 1.0), "ok"


def L_scaled_bound(g, n):
    """An upper bound on L[g_n] from g'(1/n): 2e (1 + 1/|g'(1/n)|) sqrt(1 + g'(1/n))."""
    dg = g.derivative(1.0 / n, 1)
    if dg == 0.0:
        return math.inf
    return 2.0 * math.e * (1.0 + 1.0 / abs(dg)) * math.sqrt(max(1.0 + dg, 0.0))


def mp_eval_map():
    """High-precision closed-form evaluators, independent of the package's
    own evaluation code, keyed by the built-in names."""
    one = mpmath.mpf(1)

    def mp_spline(z):
        if z == 0:
            return one
        return (1 - mpmath.exp(-2 * z)) / (2 * z)

    def mp_chung(z, a=(mpmath.mpf("0.25"), mpmath.mpf("0.5"), mpmath.mpf("0.25")), t=one):
        x = t / (t + z)
        return sum(ak * x ** k for k, ak in enumerate(a))

    def mp_frac_tail(z, gamma=mpmath.mpf("0.5")):
        # int_0^inf e^{-zs}(1+s)^{-p} ds = e^z z^{p-1} Gamma(1-p, z), z > 0
        if z == 0:
            return one
        p = 2 + gamma
        F = mpmath.exp(z) * z ** (p - 1) * mpmath.gammainc(1 - p, z)
        return (1 - gamma) + gamma * (gamma + 1) * F

    return {
        "exp": lambda z: mpmath.exp(-z),
        "euler": lambda z: 1 / (1 + z),
        "spline": mp_spline,
        "kendall(t=0.5)": lambda z: mpmath.mpf("0.5") + mpmath.mpf("0.5") * mpmath.exp(-2 * z),
        "yosida(t=1)": lambda z: mpmath.exp(-z / (1 + z)),
        "hille": lambda z: mpmath.exp(mpmath.exp(-z) - 1),
        "chung(a=0.25+0.5+0.25,t=1)": mp_chung,
        "frac_tail(gamma=0.5)": mp_frac_tail,
    }


def mp_derivative_at_zero(f, order: int, h="1e-4", dps=60, one_sided=False):
    """Richardson-extrapolated finite differences of f at 0 in high precision.

    Central second-order stencils (or a one-sided stencil for functions
    only defined on [0, inf)) at steps h and h/2, combined by Richardson
    extrapolation to fourth order.
    """
    with mpmath.workdps(dps):
        hh = mpmath.mpf(h)

        def stencil(h):
            if order == 0:
                return f(mpmath.mpf(0))
            if one_sided:
                if order == 1:
                    return (-3 * f(0 * h) + 4 * f(h) - f(2 * h)) / (2 * h)
                raise ValueError("one-sided stencils implemented for order 1 only")
            if order == 1:
                return (f(h) - f(-h)) / (2 * h)
            if order == 2:
                return (f(h) - 2 * f(0 * h) + f(-h)) / h ** 2
            if order == 3:
                return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h ** 3)
            if order == 4:
                return (f(2 * h) - 4 * f(h) + 6 * f(0 * h) - 4 * f(-h) + f(-2 * h)) / h ** 4
            raise ValueError("orders 0..4 only")

        coarse = stencil(hh)
        fine = stencil(hh / 2)
        return float((4 * fine - coarse) / 3)


# ----------------------------------------------------------------------
# dense references: the gallery operators from their definitions and the
# schemes by expm and solves, sharing no code with cmapprox.opcalc
# ----------------------------------------------------------------------

def laplacian_matrix(d):
    """The Dirichlet Laplacian from its definition: tridiagonal (2, -1)."""
    return 2.0 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)


def advection_matrix(d):
    """Periodic upwind advection from its definition: d (I - S), S the cyclic lower shift."""
    return d * (np.eye(d) - np.roll(np.eye(d), 1, axis=0))


def diag_imag_matrix(k):
    """diag_imag:k=k with its default range [0.1, 100]."""
    return np.diag(1j * (-1.0) ** np.arange(k) * np.logspace(-1, 2, k))


def diag_pos_matrix(k):
    """diag_pos:k=k with its default range [0.01, 100]."""
    return np.diag(np.logspace(-2, 2, k))


def dense_g(g, B):
    """g(B) for a dense B with spectrum in the right half-plane: e^{-B} for exp,
    (1-t) I + t e^{-B/t} for kendall(t), (I + B)^{-1} for euler, and for the
    spline int_0^1 e^{-2sB} ds, the top-right block of expm([[-2B, I], [0, 0]]),
    which needs no inverse of B."""
    eye = np.eye(len(B))
    if g.name == "exp":
        return scipy.linalg.expm(-B)
    if g.name.startswith("kendall(t="):
        t = float(g.name[len("kendall(t="):-1])
        return (1.0 - t) * eye + t * scipy.linalg.expm(-B / t)
    if g.name == "euler":
        return np.linalg.solve(eye + B, eye)
    if g.name == "spline":
        aug = np.block([[-2.0 * B, eye], [np.zeros_like(B), np.zeros_like(B)]])
        return scipy.linalg.expm(aug)[:len(B), len(B):]
    raise ValueError(f"no dense reference for {g.name}")


def dense_scheme(g, M, t, n):
    """g_t(tM/n)^n for a dense M, g a function or a family."""
    return np.linalg.matrix_power(dense_g(g.at(t), t * M / n), n)
