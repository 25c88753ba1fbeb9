"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import scipy.linalg

from cmapprox import cmfun
from cmapprox.measures import PolyExpSegment, PositiveMeasure


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


def euler_power(n: int):
    """Euler's g_n = (1 + z/n)^{-n} with its explicit Gamma measure
    n^n s^{n-1} e^{-ns}/(n-1)! ds, which power_scale does not keep: a
    reference for the measure routes.  The coefficient grows like e^n, so n
    is limited to 64."""
    if n > 64:
        raise ValueError("explicit Gamma measure limited to n <= 64")
    coeffs = (0.0,) * (n - 1) + (math.exp(n * math.log(n) - math.lgamma(n)),)
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, math.inf, coeffs, float(n)),))
    return dataclasses.replace(cmfun.power_scale(cmfun.euler(), n), name=f"euler_gamma{n}",
                               measure=nu, deriv_real=None)


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
        "chung(t=1)": mp_chung,
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
