"""Double-exponential quadrature on panels (Takahasi and Mori 1974).

The trapezoid rule in t is applied after a change of variables that makes
the integrand decay double-exponentially at both ends of the t-range: on a
finite panel [a, b] the tanh-sinh map x = a + (b-a)/(1 + e^{-2u}), and on
[a, inf) the exp-sinh map x = a + e^u, both with u = (pi/2) sinh t.  An
algebraic singularity at a = 0, where the nodes keep their full relative
precision, such as the z^{1-alpha} of the c_alpha integrands, and an
algebraic decay towards infinity are handled by the map itself, with no
breakpoints or substitutions.

The step h halves from H_FIRST to at most H_LAST.  The first level takes
every node in one integrand call and compares its sum with the one at 2h,
which uses every other of its nodes; each later level adds the odd nodes of
the new step in one call.  An integral is `converged` once both the change
from the previous level and the terms at the two ends of the t-range are
within its tolerance.  A term that is not finite counts as 0: an integrand
may overflow where its true value, times the weight, is far below the
tolerance, as s^30 e^{-s} does far out in a tail.

An integrand may be vector-valued: given m points it returns k values for
each, as a (k, m) array, and each of the k components gets its own
tolerance, rel_tol times the integral of its absolute value over all the
panels.  A scalar integrand, returning m values, is the case k = 1.  So
several integrals of one costly function (the same defect divided by
different powers) share every evaluation of it.  Integrands are expected
to be vectorized over numpy arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

H_FIRST = 2.0 ** -5   # step of the first level
H_LAST = 2.0 ** -10   # smallest step
T_END = 4.25          # the t-range is [-T_END, T_END]


class Integral(NamedTuple):
    """For an f with k components, `value` and `converged` hold one entry per
    component (value as k x the panels' shape)."""

    value: float | np.ndarray
    converged: bool | np.ndarray


def _terms(f, t, lo, hi, step):
    """step * f(x(t)) dx/dt on each panel (row) at the points t, as (k, panels, m)."""
    u = 0.5 * np.pi * np.sinh(t)
    du = 0.5 * np.pi * np.cosh(t)
    lo, hi = lo[:, None], hi[:, None]
    with np.errstate(all="ignore"):
        width = hi - lo
        x = lo + width / (1.0 + np.exp(-2.0 * u))
        w = width * du / (2.0 * np.cosh(u) ** 2)
        semi = np.isinf(hi)
        x = np.where(semi, lo + np.exp(u), x)
        w = np.where(semi, np.exp(u) * du, np.where(hi > lo, w, 0.0))
        vals = np.asarray(f(x.ravel()), dtype=float)
        terms = step * w * vals.reshape(-1, *x.shape)
    return np.where(np.isfinite(terms), terms, 0.0), vals.ndim == 2


def integrate(f, a, b, rel_tol: float = 1e-12) -> Integral:
    """Integral of f over [a, b] (0 when b <= a; b may be inf).

    For arrays a and b, the integrals over the panels [a_i, b_i], shaped like
    them: every panel goes to f in each call, and all are refined together.
    `converged` is one flag for each component of f, over all the panels.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    h = H_FIRST
    steps = round(T_END / h)
    terms, vector = _terms(f, h * np.arange(-steps, steps + 1), lo, hi, h)
    ends = np.abs(terms[..., [0, -1]]).sum(axis=(1, 2)) / h   # f dx/dt at t = -T_END, T_END
    fine = terms.sum(axis=2)
    coarse = 2.0 * terms[..., ::2].sum(axis=2)
    mass = np.abs(terms).sum(axis=(1, 2)) / h    # h * mass is the integral of |f|
    while True:
        tol = rel_tol * h * mass
        converged = (np.abs(fine - coarse).sum(axis=1) <= tol) & (h * ends <= tol)
        if converged.all() or h <= H_LAST:
            break
        h /= 2.0
        steps *= 2
        new, _ = _terms(f, h * np.arange(1 - steps, steps, 2), lo, hi, h)
        coarse, fine = fine, 0.5 * fine + new.sum(axis=2)
        mass += np.abs(new).sum(axis=(1, 2)) / h
    value = fine.reshape(len(fine), *shape)
    if vector:
        return Integral(value, converged)
    return Integral(float(value[0]) if not shape else value[0], bool(converged[0]))
