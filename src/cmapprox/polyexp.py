"""Exact integrals of polynomial-times-exponential densities.

Everything here reduces to the monomial integral

    I(m, c; a, b) = int_a^b s^m exp(-c s) ds,

which has a closed form via the regularized upper incomplete gamma
function when c b >= m + 1, and otherwise the all-positive Kummer series
of int_0^x, which is the power rule at c = 0 and never forms the
c^-(m+1) Gamma(m+1) that overflows at small rates or high degrees.  The
Gamma prefactor is taken in the log domain so that large polynomial
degrees (Gamma densities of Euler powers) do not overflow.  Complex
rates (Laplace transforms) run on whole arrays: the same Kummer series
inside |c| b < m + 1, an upward recurrence outside.
"""

from __future__ import annotations

import math

import numpy as np

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
        return float(_lower_series(m, c, b) - _lower_series(m, c, a))
    # Gamma(m+1)/c^(m+1) * (Q(m+1, c a) - Q(m+1, c b)): the upper tails keep
    # their relative accuracy where P(m+1, c a) and P(m+1, c b) both round to 1
    from scipy.special import gammaincc

    scale = math.exp(math.lgamma(m + 1) - (m + 1) * math.log(c))
    tail_b = 0.0 if math.isinf(b) else float(gammaincc(m + 1, c * b))
    return scale * (float(gammaincc(m + 1, c * a)) - tail_b)


def _lower_series(m: int, lam, x: float):
    """int_0^x s^m e^{-lam s} ds = x^{m+1} e^{-lam x} sum_k (lam x)^k / ((m+1)...(m+k+1)),
    for |lam| x < m + 1, where the terms fall at least geometrically; lam is a
    real rate or an array of complex ones."""
    lx = lam * x
    # ratio >= |lam x| of every entry, so bound >= |term| of every entry
    ratio = abs(lx) if np.isscalar(lx) else float(np.abs(lx).max(initial=0.0))
    term = total = bound = 1.0 / (m + 1)
    k = 1
    while bound > 1e-17 / (m + 1):
        term = term * (lx / (m + 1 + k))
        total = total + term
        bound *= ratio / (m + 1 + k)
        k += 1
    return x ** (m + 1) * np.exp(-lx) * total


def polyexp_moment(coeffs, rate: float, a: float, b: float, k: int) -> float:
    """int_a^b s^k p(s) exp(-rate s) ds."""
    return sum(
        cj * monomial_exp_integral(j + k, rate, a, b)
        for j, cj in enumerate(coeffs)
        if cj != 0.0
    )


def polyexp_laplace_complex(coeffs, rate: float, a: float, b: float, z) -> np.ndarray:
    """int_a^b p(s) exp(-(rate + z) s) ds on an array of complex z with Re z >= 0.

    Per monomial I_m = int_a^b s^m e^{-lam s} ds with lam = rate + z:
    I_0 = e^{-lam a} (-expm1(-lam (b-a)))/lam; above it, on a finite segment
    where |lam| b < m+1, the Kummer series of int_0^b minus that of int_0^a,
    and elsewhere the upward recurrence
    I_m = (a^m e^{-lam a} - b^m e^{-lam b})/lam + (m/lam) I_{m-1}.
    """
    z = np.asarray(z, dtype=complex)
    lam = rate + z.ravel()
    finite = not math.isinf(b)
    if not finite and np.any(lam == 0):
        raise ValueError("zero decay rate on an unbounded segment")
    safe = np.where(lam == 0, 1.0, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        ea = np.exp(-lam * a)
        if finite:
            eb = np.exp(-lam * b)
            I = ea * np.where(lam == 0, b - a, -np.expm1(-safe * (b - a)) / safe)
        else:
            eb = 0.0
            I = ea / lam
        total = coeffs[0] * I
        pa = pb = 1.0
        for m in range(1, len(coeffs)):
            pa *= a
            pb = pb * b if finite else 0.0
            I = (pa * ea - pb * eb) / safe + (m / safe) * I
            if coeffs[m] == 0.0:
                continue  # entries left to the series below only feed further series
            if finite:
                series = np.abs(lam) * b < m + 1
                near = lam[series]
                I[series] = _lower_series(m, near, b) - _lower_series(m, near, a)
            total = total + coeffs[m] * I
    return total.reshape(z.shape)
