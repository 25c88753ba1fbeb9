"""Adaptive Gauss-Legendre panel quadrature.

Panels are refined by bisection using the difference between a 20-point
and a 40-point rule as the error estimate.  Semi-infinite integrals are
handled by dyadically widening panels until the running contribution
drops below a relative tail threshold.  Integrands are expected to be
vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULES:
        x, w = np.polynomial.legendre.leggauss(order)
        _RULES[order] = (x, w)
    return _RULES[order]


def _panel(f, a: float, b: float, order: int) -> float:
    x, w = _rule(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * x)))


def integrate(f, a: float, b: float, rel_tol: float = 1e-12,
              abs_tol: float = 1e-15, max_depth: int = 40) -> float:
    """Integral of f over the finite interval [a, b]."""
    if b <= a:
        return 0.0
    total = 0.0
    stack = [(a, b, 0)]
    rough = abs(_panel(f, a, b, 20)) + abs_tol
    while stack:
        lo, hi, depth = stack.pop()
        coarse = _panel(f, lo, hi, 20)
        fine = _panel(f, lo, hi, 40)
        err = abs(fine - coarse)
        if err <= max(abs_tol, rel_tol * max(rough, abs(total))) or depth >= max_depth:
            total += fine
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total


@dataclass
class TailResult:
    value: float
    converged: bool
    upper_limit: float


def integrate_semi_infinite(f, a: float, rel_tol: float = 1e-12,
                            tail_rel: float = 1e-13,
                            first_width: float = 1.0,
                            max_span: float = 1e15) -> TailResult:
    """Integral of f over [a, inf).

    Dyadic panels [a, a+w], [a+w, a+3w], ... are accumulated until two
    consecutive panel contributions fall below tail_rel times the running
    total, or the span cap is hit (converged=False, for integrands whose
    tail decays too slowly or not at all).
    """
    total = 0.0
    lo = a
    width = first_width
    quiet = 0
    while lo - a < max_span:
        hi = lo + width
        piece = integrate(f, lo, hi, rel_tol=rel_tol)
        total += piece
        if abs(piece) <= tail_rel * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 2:
                return TailResult(total, True, hi)
        else:
            quiet = 0
        lo = hi
        width *= 2.0
    return TailResult(total, False, lo)
