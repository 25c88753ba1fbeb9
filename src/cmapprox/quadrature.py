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

`integrate` takes one interval or arrays of panel edges.  Given panels, it
refines them all together against one tolerance, relative to the whole
integral, and returns the integral over each.  A semi-infinite integral is
one such call: the caller's head breakpoints and dyadically widening tail
panels up to a span cap, summed until two consecutive tail panels fall
below a relative threshold.  A panel whose rule sums are not finite (an
integrand that overflows far out in a tail) is accepted as it is rather
than bisected.  Integrands are expected to be vectorized over numpy arrays.
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


_BATCH = 128   # panels per integrand call after the first, which takes every root panel


def integrate(f, a, b, rel_tol: float = 1e-12, abs_tol: float = 1e-15, max_depth: int = 40):
    """Integral of f over [a, b] (0 when b <= a).

    For arrays a and b, the integrals over the panels [a_i, b_i] as an
    array: the root panels go to f in one call, and every panel is accepted
    once its estimate is within rel_tol of the sum over all of them.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    totals = np.zeros(lo.size)
    x20, w20 = _rule(20)
    x40, w40 = _rule(40)
    nodes = np.concatenate([x20, x40])
    # pending panels, taken from the end as a stack, each with its root index
    pend_root = np.flatnonzero(hi.ravel() > lo.ravel())
    pend_lo, pend_hi = lo.ravel()[pend_root], hi.ravel()[pend_root]
    pend_depth = np.zeros(pend_root.size, int)
    rough = None
    batch = pend_root.size
    while pend_lo.size:
        lo_b, hi_b, depth, root = (v[-batch:] for v in (pend_lo, pend_hi, pend_depth, pend_root))
        pend_lo, pend_hi, pend_depth, pend_root = (
            v[:-batch] for v in (pend_lo, pend_hi, pend_depth, pend_root))
        mid = 0.5 * (lo_b + hi_b)
        half = 0.5 * (hi_b - lo_b)
        x = mid[:, None] + half[:, None] * nodes
        with np.errstate(all="ignore"):
            vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
            coarse = half * np.sum(w20 * vals[:, :20], axis=1)
            fine = half * np.sum(w40 * vals[:, 20:], axis=1)
            finite = np.isfinite(fine) & np.isfinite(coarse)
            if rough is None:  # the first batch holds every root panel
                rough = float(np.sum(np.abs(coarse[finite]))) + abs_tol
            total = float(np.sum(totals[np.isfinite(totals)]))
            tol = max(abs_tol, rel_tol * max(rough, abs(total)))
            done = (np.abs(fine - coarse) <= tol) | (depth >= max_depth) | ~finite
            np.add.at(totals, root[done], fine[done])
        split = ~done
        pend_lo = np.concatenate([pend_lo, lo_b[split], mid[split]])
        pend_hi = np.concatenate([pend_hi, mid[split], hi_b[split]])
        pend_depth = np.concatenate([pend_depth, depth[split] + 1, depth[split] + 1])
        pend_root = np.concatenate([pend_root, root[split], root[split]])
        batch = _BATCH
    return float(totals[0]) if lo.ndim == 0 else totals.reshape(lo.shape)


@dataclass
class TailResult:
    value: float
    converged: bool
    upper_limit: float


def integrate_semi_infinite(f, a, rel_tol: float = 1e-12,
                            tail_rel: float = 1e-13,
                            first_width: float = 1.0,
                            max_span: float = 1e15) -> TailResult:
    """Integral of f over [a, inf), or over [a[0], inf) for a sequence of breakpoints a.

    The panels between the breakpoints and the dyadic panels [b, b+w],
    [b+w, b+3w], ... beyond the last breakpoint b, as long as they start
    less than max_span past it, are integrated by one call of `integrate`.
    The result sums the breakpoint panels and then the dyadic ones up to
    the first two consecutive dyadic panels that each fall below tail_rel
    times the running total.  If no two do (a tail that decays too slowly
    or not at all), every panel is summed and converged=False.
    """
    breaks = np.atleast_1d(np.asarray(a, dtype=float))
    starts = first_width * (2.0 ** np.arange(64) - 1.0)
    edges = np.concatenate([breaks, breaks[-1] + starts[1:np.searchsorted(starts, max_span) + 1]])
    pieces = integrate(f, edges[:-1], edges[1:], rel_tol=rel_tol)
    with np.errstate(invalid="ignore"):   # panels past the stop may hold inf or nan
        running = np.cumsum(pieces)
    head = breaks.size - 1
    quiet = np.abs(pieces[head:]) <= tail_rel * np.maximum(np.abs(running[head:]), 1e-300)
    stop = np.flatnonzero(quiet[1:] & quiet[:-1])
    if stop.size:
        last = head + stop[0] + 1
        return TailResult(float(running[last]), True, float(edges[last + 1]))
    return TailResult(float(running[-1]), False, float(edges[-1]))
