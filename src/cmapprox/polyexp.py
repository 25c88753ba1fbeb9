"""Exact integrals of polynomial-times-exponential densities.

Everything here reduces to the monomial integral

    I(m, c; a, b) = int_a^b s^m exp(-c s) ds,

which has a closed form via the regularized upper incomplete gamma
function when c b >= m + 1, and otherwise the all-positive Kummer series
of int_0^x, which is the power rule at c = 0 and never forms the
c^-(m+1) Gamma(m+1) that overflows at small rates or high degrees.  The
Gamma prefactor is taken in the log domain so that large polynomial
degrees (Gamma densities of Euler powers) do not overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc, gammaln

__all__ = [
    "monomial_exp_integral",
    "polyexp_moment",
    "polyexp_laplace_complex",
]


def monomial_exp_integral(m: int, c: float, a: float, b: float) -> float:
    """int_a^b s^m exp(-c s) ds with 0 <= a <= b <= inf, c >= 0, m >= 0."""
    if b < a:
        raise ValueError("empty interval: b < a")
    if a == b:
        return 0.0
    if c < 0.0:
        raise ValueError("negative exponential rate")
    if c == 0.0 and math.isinf(b):
        return math.inf
    if c * b < m + 1:
        return _lower_series(m, c, b) - _lower_series(m, c, a)
    # Gamma(m+1)/c^(m+1) * (Q(m+1, c a) - Q(m+1, c b)): the upper tails keep
    # their relative accuracy where P(m+1, c a) and P(m+1, c b) both round to 1
    scale = math.exp(gammaln(m + 1) - (m + 1) * math.log(c))
    tail_b = 0.0 if math.isinf(b) else float(gammaincc(m + 1, c * b))
    return scale * (float(gammaincc(m + 1, c * a)) - tail_b)


def _lower_series(m: int, c: float, x: float) -> float:
    """int_0^x s^m e^{-cs} ds = x^{m+1} e^{-cx} sum_k (cx)^k / ((m+1)...(m+k+1)),
    for c x < m + 1, where the terms fall at least geometrically."""
    cx = c * x
    term = total = 1.0 / (m + 1)
    k = 1
    while term > 1e-17 * total:
        term *= cx / (m + 1 + k)
        total += term
        k += 1
    return x ** (m + 1) * math.exp(-cx) * total


def polyexp_moment(coeffs, rate: float, a: float, b: float, k: int) -> float:
    """int_a^b s^k p(s) exp(-rate s) ds."""
    return sum(
        cj * monomial_exp_integral(j + k, rate, a, b)
        for j, cj in enumerate(coeffs)
        if cj != 0.0
    )


def polyexp_laplace_complex(coeffs, rate: float, a: float, b: float, z: complex) -> complex:
    """int_a^b p(s) exp(-(rate + z) s) ds for complex z with Re z >= 0.

    Uses the upward recurrence I_m = (a^m e^{-la} - b^m e^{-lb})/l + (m/l) I_{m-1}
    with l = rate + z.  Intended for modest polynomial degree; falls back to
    high-precision incomplete gammas when the recurrence is unreliable.
    """
    lam = complex(rate) + complex(z)
    if lam == 0:
        raise ValueError("zero decay rate on an unbounded segment")
    deg = len(coeffs) - 1
    if abs(lam) < 0.25 * max(deg, 1) and deg > 2:
        import mpmath

        total = mpmath.mpc(0)
        la = mpmath.mpc(lam)
        for j, cj in enumerate(coeffs):
            if cj == 0.0:
                continue
            if math.isinf(b):
                g = mpmath.gammainc(j + 1, la * a)
            else:
                g = mpmath.gammainc(j + 1, la * a, la * b)
            total += cj * g / la ** (j + 1)
        return complex(total)

    ea = np.exp(-lam * a)
    eb = 0.0 if math.isinf(b) else np.exp(-lam * b)
    vals = np.empty(deg + 1, dtype=complex)
    vals[0] = (ea - eb) / lam
    pa, pb = 1.0, 1.0
    for m in range(1, deg + 1):
        pa *= a
        pb = 0.0 if math.isinf(b) else pb * b
        vals[m] = (pa * ea - pb * eb) / lam + (m / lam) * vals[m - 1]
    return complex(sum(cj * vals[j] for j, cj in enumerate(coeffs) if cj != 0.0))
