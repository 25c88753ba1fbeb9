"""Exact integrals of polynomial-times-exponential densities.

One kernel, `polyexp_laplace_complex`, gives

    int_a^b p(s) exp(-(rate + z) s) ds

on whole arrays of complex z, from the monomials
I_m = int_a^b s^m e^{-lam s} ds at lam = rate + z: on a finite segment
inside |lam| b < m + 1 the all-positive Kummer series of int_0^x, which
is the power rule at lam = 0 and never forms the lam^-(m+1) Gamma(m+1)
that overflows at small rates or high degrees, and an upward recurrence
elsewhere.  Moments are the kernel at z = 0 on the stack of rows s^k p(s),
and the derivatives of a Laplace transform the kernel on (-s)^k p(s).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "polyexp_moment",
    "polyexp_laplace_complex",
]

# below |lam| (b-a) = 2^-53, -expm1(-lam (b-a))/lam is b - a to half an ulp,
# while 1/lam may overflow (a subnormal rate)
_FLAT = 2.0 ** -53


def _lower_series(m: int, lam, x: float):
    """int_0^x s^m e^{-lam s} ds = x^{m+1} e^{-lam x} sum_k (lam x)^k / ((m+1)...(m+k+1)),
    for |lam| x < m + 1, where the terms fall at least geometrically; lam is an
    array of complex rates.  Each entry stops once its bound on the terms,
    with ratio |lam x|, falls below 1e-17 of the first."""
    lx = lam * x
    ratio = np.abs(lx)
    term = total = 1.0 / (m + 1)
    bound = np.full(lx.shape, term)
    k = 1
    while (live := bound > 1e-17 / (m + 1)).any():
        term = term * (lx / (m + 1 + k))
        total = total + np.where(live, term, 0.0)
        bound = bound * (ratio / (m + 1 + k))
        k += 1
    return x ** (m + 1) * np.exp(-lx) * total


def polyexp_moment(coeffs, rate: float, a: float, b: float, ks) -> np.ndarray:
    """int_a^b s^k p(s) exp(-rate s) ds for each k of ks: the kernel at z = 0
    for the stack of rows s^k p(s), in one pass."""
    rows = [(0.0,) * k + tuple(coeffs) + (0.0,) * (max(ks) - k) for k in ks]
    return polyexp_laplace_complex(rows, rate, a, b, 0.0).real


def polyexp_laplace_complex(coeffs, rate: float, a: float, b: float, z) -> np.ndarray:
    """int_a^b p(s) exp(-(rate + z) s) ds on an array of complex z with Re z >= 0,
    for one row of coefficients p or for each row of a stack, in one pass.

    Per monomial I_m = int_a^b s^m e^{-lam s} ds with lam = rate + z:
    I_0 = e^{-lam a} (-expm1(-lam (b-a)))/lam, or e^{-lam a} (b-a) where
    |lam| (b-a) < _FLAT; above it, on a finite segment where |lam| b < m+1,
    the Kummer series of int_0^b minus that of int_0^a (none at a = 0), and
    elsewhere the upward recurrence
    I_m = (a^m e^{-lam a} - b^m e^{-lam b})/lam + (m/lam) I_{m-1}.
    A row skips its zero coefficients, so that none takes the nan of 0 times
    an overflowed I_m: each row is the one-row call bit for bit.  Real z keeps
    each I_m's imaginary part 0, not the nan of 0 * inf that an overflowed real
    part would give it and pass on to the next real part.
    """
    rows = np.array(coeffs, dtype=float, ndmin=2)
    real = not np.iscomplexobj(z)
    z = np.asarray(z, dtype=complex)
    lam = rate + z.ravel()
    finite = not math.isinf(b)
    if not finite and np.any(lam == 0):
        raise ValueError("zero decay rate on an unbounded segment")
    safe = np.where(lam == 0, 1.0, lam)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ea = np.exp(-lam * a)
        if finite:
            eb = np.exp(-lam * b)
            flat = np.abs(lam) * (b - a) < _FLAT
            I = ea * np.where(flat, b - a, -np.expm1(-safe * (b - a)) / safe)
        else:
            eb = 0.0
            I = ea / lam
        total = rows[:, :1] * I
        pa = pb = 1.0
        for m in range(1, rows.shape[1]):
            pa *= a
            pb = pb * b if finite else 0.0
            I = (pa * ea - pb * eb) / safe + (m / safe) * I
            if real:
                I.imag = 0.0
            live = rows[:, m] != 0.0
            if not live.any():
                continue  # entries left to the series below only feed further series
            if finite:
                series = np.abs(lam) * b < m + 1
                near = lam[series]
                I[series] = _lower_series(m, near, b)
                if a:   # the series of int_0^a, which is exactly 0 at a = 0
                    I[series] -= _lower_series(m, near, a)
            total[live] += rows[live, m:m + 1] * I
    return total.reshape(np.shape(coeffs)[:-1] + z.shape)
