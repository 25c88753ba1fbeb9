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

An integrand may be vector-valued: given m points it returns k values for
each, as a (k, m) array, and each of the k components gets its own
tolerance, relative to its own sum.  A panel is accepted once every
component passes.  A scalar integrand, returning m values, is the case
k = 1.  So several integrals of one costly function (the same defect
divided by different powers) share every evaluation of it.

`integrate` takes one interval or arrays of panel edges.  Given panels, it
refines them all together and returns the integral over each.  A
semi-infinite integral sends the caller's head breakpoints and every
dyadically widening tail panel up to a span cap to one such call, and sums
the panels in order up to its stop rule (two consecutive tail panels below
a relative threshold), each component on its own.  A panel whose rule sums
are not finite (an integrand that overflows far out in a tail) is accepted
as it is rather than bisected.  Integrands are expected to be vectorized
over numpy arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_order(x) and P_order'(x) by the three-term recurrence (|x| < 1)."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, order + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, order * (x * p1 - p0) / (x * x - 1.0)


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton on
    the recurrence from Tricomi's starting values, w = 2/((1-x^2) P'(x)^2),
    symmetrized."""
    if order not in _RULES:
        k = np.arange(order, 0, -1)
        x = np.cos(np.pi * (k - 0.25) / (order + 0.5))
        for _ in range(100):
            p, dp = _legendre(order, x)
            step = p / dp
            x = x - step
            if np.all(np.abs(step) <= 1e-16):
                break
        _, dp = _legendre(order, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        _RULES[order] = (0.5 * (x - x[::-1]), 0.5 * (w + w[::-1]))
    return _RULES[order]


_BATCH = 128   # panels per integrand call after the first, which takes every root panel
_ABS_TOL = 1e-15   # an error estimate this small passes, however small the sums
_MAX_DEPTH = 40   # bisections after which a panel is accepted as it is


def integrate(f, a, b, rel_tol: float = 1e-12):
    """Integral of f over [a, b] (0 when b <= a).

    For arrays a and b, the integrals over the panels [a_i, b_i] as an
    array: the root panels go to f in one call, and every panel is accepted
    once its estimate is within rel_tol of the sum over all of them.  For an
    f with k components the result has a leading axis of length k.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    x20, w20 = _rule(20)
    x40, w40 = _rule(40)
    nodes = np.concatenate([x20, x40])
    # pending panels, taken from the end as a stack, each with its root index
    pend_root = np.flatnonzero(hi.ravel() > lo.ravel())
    pend_lo, pend_hi = lo.ravel()[pend_root], hi.ravel()[pend_root]
    pend_depth = np.zeros(pend_root.size, int)
    totals = rough = None
    vector = False
    batch = pend_root.size
    while pend_lo.size:
        lo_b, hi_b, depth, root = (v[-batch:] for v in (pend_lo, pend_hi, pend_depth, pend_root))
        pend_lo, pend_hi, pend_depth, pend_root = (
            v[:-batch] for v in (pend_lo, pend_hi, pend_depth, pend_root))
        mid = 0.5 * (lo_b + hi_b)
        half = 0.5 * (hi_b - lo_b)
        x = mid[:, None] + half[:, None] * nodes
        with np.errstate(all="ignore"):
            vals = np.asarray(f(x.ravel()), dtype=float)
            vector = vals.ndim == 2
            vals = vals.reshape(-1, *x.shape)
            coarse = half * (vals[..., :20] @ w20)
            fine = half * (vals[..., 20:] @ w40)
            finite = np.isfinite(fine) & np.isfinite(coarse)
            if totals is None:  # the first batch holds every root panel
                totals = np.zeros((len(vals), lo.size))
                rough = np.sum(np.abs(np.where(finite, coarse, 0.0)), axis=1) + _ABS_TOL
            total = np.sum(np.where(np.isfinite(totals), totals, 0.0), axis=1)
            tol = np.maximum(_ABS_TOL, rel_tol * np.maximum(rough, np.abs(total)))
            passed = (np.abs(fine - coarse) <= tol[:, None]) | ~finite
            done = np.all(passed, axis=0) | (depth >= _MAX_DEPTH)
            np.add.at(totals.T, root[done], fine[:, done].T)
        split = ~done
        pend_lo = np.concatenate([pend_lo, lo_b[split], mid[split]])
        pend_hi = np.concatenate([pend_hi, mid[split], hi_b[split]])
        pend_depth = np.concatenate([pend_depth, depth[split] + 1, depth[split] + 1])
        pend_root = np.concatenate([pend_root, root[split], root[split]])
        batch = _BATCH
    if totals is None:   # no panel of positive width: f is never called
        totals = np.zeros((1, lo.size))
    out = totals.reshape(len(totals), *lo.shape)
    if vector:
        return out
    return float(out[0]) if lo.ndim == 0 else out[0]


class TailResult(NamedTuple):
    """A semi-infinite integral: for a k-component integrand, `value`,
    `stopped` and `upper_limit` hold one entry per component."""

    value: float | np.ndarray
    stopped: bool | np.ndarray      # whether the stop rule was met
    upper_limit: float | np.ndarray


_FIRST_WIDTH = 1.0   # width of the first dyadic tail panel


def integrate_semi_infinite(f, a, rel_tol: float = 1e-12,
                            tail_rel: float = 1e-13,
                            max_span: float = 1e15) -> TailResult:
    """Integral of f over [a, inf), or over [a[0], inf) for a sequence of breakpoints a.

    The panels between the breakpoints and the dyadic panels [b, b+w],
    [b+w, b+3w], ... beyond the last breakpoint b, as long as they start
    less than max_span past it, go to one call of `integrate`.  They are
    summed in order up to the first two consecutive dyadic panels that each
    fall below tail_rel times the running total; the panels past those are
    evaluated but not summed.  If no two do (a tail that decays too slowly
    or not at all), every panel is summed and the component is not stopped.
    For an f with k components every component stops on its own.
    """
    breaks = np.atleast_1d(np.asarray(a, dtype=float))
    starts = _FIRST_WIDTH * (2.0 ** np.arange(64) - 1.0)
    edges = np.concatenate([breaks, breaks[-1] + starts[1:np.searchsorted(starts, max_span) + 1]])
    pieces = integrate(f, edges[:-1], edges[1:], rel_tol=rel_tol)
    value, stopped, upper = [], [], []
    for p in np.atleast_2d(pieces):
        stop = _stop(p, breaks.size - 1, tail_rel)
        last = p.size - 1 if stop is None else stop
        with np.errstate(invalid="ignore"):
            value.append(float(np.cumsum(p)[last]))
        stopped.append(stop is not None)
        upper.append(float(edges[last + 1]))
    if pieces.ndim == 1:
        return TailResult(value[0], stopped[0], upper[0])
    return TailResult(np.array(value), np.array(stopped), np.array(upper))


def _stop(pieces: np.ndarray, head: int, tail_rel: float) -> int | None:
    """Index of the second of the first two consecutive quiet tail panels
    (panels from `head` on), or None."""
    with np.errstate(invalid="ignore"):   # panels past the stop may hold inf or nan
        running = np.cumsum(pieces)
        quiet = np.abs(pieces[head:]) <= tail_rel * np.maximum(np.abs(running[head:]), 1e-300)
    stop = np.flatnonzero(quiet[1:] & quiet[:-1])
    return head + int(stop[0]) + 1 if stop.size else None
