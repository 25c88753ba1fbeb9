"""Adaptive Gauss-Legendre panel quadrature.

Panels are refined by bisection using the difference between a 20-point
and a 40-point rule as the error estimate (the QUADPACK pattern of a rule
pair per panel).  Refinement is batched: the 20 + 40 nodes of up to
_BATCH pending panels go to the integrand in one call, the panels whose
estimate passes are accepted, and the rest are bisected and queued.  One
call per batch instead of two per panel removes the per-call overhead that
dominates when thousands of panels are needed.  The batch is capped rather
than taking a whole refinement level at once, so the node array, and with
it the peak memory of the integrand's temporaries, stays the same size
however many panels a level holds.

Semi-infinite integrals are handled by dyadically widening panels until
the running contribution drops below a relative tail threshold.
Integrands are expected to be vectorized over numpy arrays.
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


_BATCH = 128   # panels per integrand call


def integrate(f, a: float, b: float, rel_tol: float = 1e-12,
              abs_tol: float = 1e-15, max_depth: int = 40) -> float:
    """Integral of f over the finite interval [a, b]."""
    if b <= a:
        return 0.0
    x20, w20 = _rule(20)
    x40, w40 = _rule(40)
    nodes = np.concatenate([x20, x40])
    total = 0.0
    rough = None
    # pending panels, taken from the end as a stack
    pend_lo, pend_hi, pend_depth = np.array([a], float), np.array([b], float), np.zeros(1, int)
    while pend_lo.size:
        lo, hi, depth = pend_lo[-_BATCH:], pend_hi[-_BATCH:], pend_depth[-_BATCH:]
        pend_lo, pend_hi, pend_depth = pend_lo[:-_BATCH], pend_hi[:-_BATCH], pend_depth[:-_BATCH]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * nodes
        vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        coarse = half * np.sum(w20 * vals[:, :20], axis=1)
        fine = half * np.sum(w40 * vals[:, 20:], axis=1)
        if rough is None:  # the first batch is the root panel alone
            rough = abs(coarse[0]) + abs_tol
        tol = max(abs_tol, rel_tol * max(rough, abs(total)))
        done = (np.abs(fine - coarse) <= tol) | (depth >= max_depth)
        for v in fine[done].tolist():
            total += v
        split = ~done
        pend_lo = np.concatenate([pend_lo, lo[split], mid[split]])
        pend_hi = np.concatenate([pend_hi, mid[split], hi[split]])
        pend_depth = np.concatenate([pend_depth, depth[split] + 1, depth[split] + 1])
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
