"""Rate functionals of completely monotone approximations.

The functionals are those of the scheme g_n(z) = g(z/n)^n, given as the
pair (g, n): no function g_n is built.  With nu_n the measure of g_n,
D(z) = g_n(z) - e^{-z} its defect and L_n(z) = log g_n(z) + z =
sum_{k>=2} l_k z^k / (mn)^{k-1} its log-defect, l_k those of the log-defect
of g and m = `rational_n` (1 for a g not of Euler type):

    L[g_n]   = int_0^1 (1-s) nu_n(ds)          (operator-norm driver)
    a[g_n]   = (g_n''(0)-1)/2                  = l_2/(mn)
    b[g_n]   = int (1-s)^3/6 nu_n(ds)          = l_3/(mn)^2
    d0[g_n]  = int (1-s)^4/12 nu_n(ds)         = a^2 + 2 l_4/(mn)^3
    c_a[g_n] = Gamma(2-a)^{-1} int_0^inf D(z) z^{-1-a} dz
    d1[g_n]  = c_0 - c_1 - b

a, b and d0 are read from the series of L_n, which carries no
cancellation; the moments of nu_n are O(1) while b and d0 are O(1/n^2).
Only L reads a measure, that of g at n = 1; the integrals of the measure
for b, d0 and c_alpha are the tests' oracles.
c_alpha integrates D from `g.defect(z, n)`, e^{-z} expm1(L_n(z)), which
keeps full relative precision at small z.  All the alphas asked for one
g_n share one double-exponential quadrature over [0, inf) of a
vector-valued integrand: the defect is evaluated once per point and
divided by each power of z; the rule takes the integrand's z^{1-alpha} at
0 and its algebraic tail as they are.  `c_alpha_quads` returns its values
and keeps none: a caller asks once per g_n for every alpha it needs and
holds on to the dict, and d1 reads c_0 and c_1 from such a dict.

`table(g, ns, alphas)` gives the rows of FIELDS, every functional of each
(g, n) over an (n, alpha) grid: which functional applies to which g_n, and
why a cell is nan, is decided there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import quadrature
from .cmfun import CMFunction, check_bk, require_b1

__all__ = [
    "functional_L",
    "c_alpha_quads",
    "euler_c_alpha_exact",
    "a_of",
    "b_of",
    "d0_of",
    "d1_of",
    "euler_power_L",
    "table",
]


# ----------------------------------------------------------------------
# L
# ----------------------------------------------------------------------

def functional_L(g: CMFunction) -> float:
    """L[g] = int_0^1 (1-s) nu(ds), from the partial moments of the measure."""
    m0, m1 = g.measure.partial_moment((0, 1), 0.0, 1.0)
    return float(m0 - m1)


def euler_power_L(n: int) -> float:
    """Exact L[g_n] for Euler's scheme from the Gamma measure of g_n.

    With nu_n = n^n s^{n-1} e^{-ns}/(n-1)! ds one has
    int_0^1 nu_n = P(n, n) and int_0^1 s nu_n = P(n+1, n), so
    L[g_n] = P(n, n) - P(n+1, n) = n^n e^{-n}/n! (regularized lower
    incomplete gamma P).  Below _SHIFT the factorial is exact; above it
    Stirling's series n!/(n^n e^{-n}) = sqrt(2 pi n) exp(sum_k B_2k /
    (2k(2k-1) n^{2k-1})) keeps full relative accuracy.
    """
    if n < _SHIFT:
        return n ** n / math.factorial(n) * math.exp(-n)
    series = sum(_B[2 * k] / (2 * k * (2 * k - 1) * n ** (2 * k - 1)) for k in range(1, 7))
    return math.exp(-series) / math.sqrt(2.0 * math.pi * n)


# ----------------------------------------------------------------------
# c_alpha: by quadrature, Euler's closed form
# ----------------------------------------------------------------------

class QuadValue(NamedTuple):
    value: float
    converged: bool
    flag: str = ""


# the relative tolerance of each alpha's c_alpha quadrature
REL_TOL = 1e-11


def c_alpha_quads(g: CMFunction, n: int, alphas) -> dict:
    """{alpha: c_alpha[g_n]} for the alphas asked, ascending, each a QuadValue
    of Gamma(2-alpha)^{-1} int_0^inf D(z) z^{-1-alpha} dz.

    The alphas share one quadrature: its costly part, the defect of g_n, is
    the same for all of them.  Only values of g_n are read (through
    g.defect(z, n)), never a measure; a g without a log-defect gets nan,
    flagged no_log_defect, since g_n(z) - e^{-z} is roundoff at small z.
    When g(inf) > 0, so is g_n(inf) = g(inf)^n, even where it underflows:
    c_0 diverges, it is nan, flagged tail_divergent, and no quadrature is
    run for it.  A value whose quadrature did not converge is flagged
    unconverged.
    """
    alphas = sorted({float(a) for a in alphas})
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha must lie in [0, 1]")
    if g.log_defect is None:
        return {a: QuadValue(math.nan, False, "no_log_defect") for a in alphas}
    out = {}
    if not g.tail_integrable and alphas[:1] == [0.0]:
        out[0.0] = QuadValue(math.nan, False, "tail_divergent")
        alphas = alphas[1:]
    if alphas:
        out.update(zip(alphas, _c_alpha_quadrature(g, n, tuple(alphas))))
    return out


def _c_alpha_quadrature(g: CMFunction, n: int, alphas: tuple) -> list[QuadValue]:
    """One quadrature of int_0^inf D(z) z^{-1-alpha} dz, D = g_n - e^{-z}, over
    [0, inf) for every alpha in alphas.  When g_n(inf) = c > 0, c z^2/(1+z)^2,
    which has D's z^2 at 0 and its limit c at inf, is taken out of D and its
    integral c Gamma(2-alpha) Gamma(alpha) added back, so that the integrand
    decays like z^{-2-alpha}."""
    al = np.array(alphas)[:, None]
    c_inf = g.limit_at_inf ** n

    def integrand(z):
        return (g.defect(z, n) - c_inf * (z / (1.0 + z)) ** 2) * z ** (-1.0 - al)

    res = quadrature.integrate(integrand, 0.0, math.inf, rel_tol=REL_TOL)
    out = []
    for alpha, value, converged in zip(alphas, res.value.tolist(), res.converged.tolist()):
        value /= math.gamma(2.0 - alpha)
        if c_inf:
            value += c_inf * math.gamma(alpha)
        out.append(QuadValue(value, converged, "" if converged else "unconverged"))
    return out


# The large-n series below are summed at m = max(n, _SHIFT) and carried
# down to n by the recurrences of Gamma and psi; at m >= 32 the terms up
# to B_12 leave a truncation error far below one ulp.
_SHIFT = 32
# Bernoulli numbers B_0..B_12 (B_1 = -1/2)
_B = (1, -1/2, 1/6, 0, -1/30, 0, 1/42, 0, -1/30, 0, 5/66, 0, -691/2730)


def _log_gamma_ratio(n: int, a: float) -> float:
    """log(Gamma(n+a) / (n^a Gamma(n))) without the cancellation of log-gammas.

    At m: sum_k (-1)^{k+1} (B_{k+1}(a) - B_{k+1}) / (k(k+1) m^k); then
    Gamma(n+a)/Gamma(n) = Gamma(m+a)/Gamma(m) prod_{j=n}^{m-1} j/(j+a).
    """
    m = max(n, _SHIFT)
    series = 0.0
    for k in range(1, 12):
        bpoly = sum(math.comb(k + 1, i) * _B[i] * a ** (k + 1 - i) for i in range(k + 1))
        series += (-1) ** (k + 1) * bpoly / (k * (k + 1) * m ** k)
    j = np.arange(n, m, dtype=float)
    return series - float(np.sum(np.log1p(a / j))) + a * math.log(m / n)


def _log_minus_digamma(n: int) -> float:
    """log n - psi(n): 1/(2m) + sum_k B_2k / (2k m^2k) at m, then
    psi(n) = psi(m) - sum_{j=n}^{m-1} 1/j."""
    m = max(n, _SHIFT)
    series = 0.5 / m + sum(_B[2 * k] / (2 * k * m ** (2 * k)) for k in range(1, 7))
    j = np.arange(n, m, dtype=float)
    return series + float(np.sum(1.0 / j)) - math.log(m / n)


def euler_c_alpha_exact(n: int, alpha: float) -> float:
    """Closed form for Euler's scheme:

    c_alpha[g_n] = [1 - Gamma(n+alpha)/(n^alpha Gamma(n))]/(alpha(1-alpha)),
    with digamma endpoints c_0 = log n - psi(n), c_1 = psi(n+1) - log n.
    The ratio and the endpoints come from their large-n series, so the
    value keeps full relative accuracy however large n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha == 0.0:
        return _log_minus_digamma(n)
    if alpha == 1.0:
        return 1.0 / n - _log_minus_digamma(n)
    return -math.expm1(_log_gamma_ratio(n, alpha)) / (alpha * (1.0 - alpha))


# ----------------------------------------------------------------------
# a, b, d0, d1
# ----------------------------------------------------------------------

def _log_defect_terms(g: CMFunction, n: int, k: int, what: str) -> list:
    """[l_2/(mn), ..., l_k/(mn)^{k-1}], the z^2..z^k coefficients of the
    log-defect L_n of g_n, m = g.rational_n or 1, for g in B_k (so is g_n).
    ValueError for a g outside B_k, and for one without a log-defect."""
    if not check_bk(g, k):
        raise ValueError(f"{g.name}: {what} requires B{k}")
    L = g.log_defect
    if L is None:
        raise ValueError(f"{g.name}: {what} is read from the log-defect, which it does not carry")
    coeffs = L.coeffs[:k - 1] + (0.0,) * max(k - 1 - len(L.coeffs), 0)
    m = float((g.rational_n or 1) * n)
    return [c / m ** (j - 1) for j, c in enumerate(coeffs, start=2)]


def a_of(g: CMFunction, n: int) -> float:
    """a[g_n] = (g_n''(0) - 1)/2 = kappa_2/2 = l_2/(mn)."""
    return _log_defect_terms(g, n, 2, "a[g]")[0]


def b_of(g: CMFunction, n: int) -> float:
    """b[g_n] = int (1-s)^3/6 nu_n(ds) = -kappa_3/6 = l_3/(mn)^2."""
    return _log_defect_terms(g, n, 3, "b[g]")[1]


def d0_of(g: CMFunction, n: int) -> float:
    """d0[g_n] = int (1-s)^4/12 nu_n(ds) = (kappa_4 + 3 kappa_2^2)/12 = a^2 + 2 l_4/(mn)^3."""
    a, _, l4 = _log_defect_terms(g, n, 4, "d0[g]")
    return a * a + 2.0 * l4


def d1_of(g: CMFunction, n: int, c: dict) -> float:
    """d1[g_n] = c_0[g_n] - c_1[g_n] - b[g_n], with c_0 and c_1 read from c, the
    dict `c_alpha_quads(g, n, alphas)` returns for some alphas that include 0
    and 1.  nan where c_0 or c_1 has not converged, whose flag says why: c_0
    diverges when g(inf) > 0 (tail_divergent)."""
    b = _log_defect_terms(g, n, 4, "d1[g]")[1]
    if not (c[0.0].converged and c[1.0].converged):
        return math.nan
    return c[0.0].value - c[1.0].value - b


# ----------------------------------------------------------------------
# the functionals of g_n over an (n, alpha) grid
# ----------------------------------------------------------------------

FIELDS = ["g", "n", "alpha", "L", "a", "b", "c_alpha_quadrature", "c_alpha_exact",
          "d0", "d1", "residual_flags"]


def table(g: CMFunction, ns, alphas) -> list[dict]:
    """One row of FIELDS for each g_n, n in ns, and alpha in alphas, sorted by
    (n, alpha), for g in B1 (a ValueError otherwise); g_n is in B_k when g
    is.  A nan cell names its cause in residual_flags: no_measure for L at
    n >= 2 (only g's own measure is at hand) but for g_n of Euler type,
    whose L is exact, tail_divergent for d1 when c_0 diverges (g(inf) > 0),
    unconverged for d1 when the quadrature of c_0 or c_1 did not converge,
    and c_alpha's own flag; a, b and d0 are nan outside B2, B3 and B4, and
    with d1 for a g without a log-defect, flagged no_log_defect as c_alpha is."""
    require_b1(g)

    def series(k):   # a, b, d0 and d1 read the log-defect series of a g in B_k
        return g.log_defect is not None and check_bk(g, k)

    rows = []
    for n in sorted(ns):
        rational = g.rational_n and g.rational_n * n   # g_n = Euler's g_{Nn}
        why_L = "" if rational or n == 1 else "no_measure"
        why_d1 = "" if g.tail_integrable else "tail_divergent"
        L = euler_power_L(rational) if rational else math.nan if why_L else functional_L(g)
        a = a_of(g, n) if series(2) else math.nan
        b = b_of(g, n) if series(3) else math.nan
        d0 = d0_of(g, n) if series(4) else math.nan
        with_d1 = series(4) and not why_d1
        # one quadrature for every alpha of g_n: the grid's, and 0 and 1 for d1
        c = c_alpha_quads(g, n, [*alphas, 0.0, 1.0] if with_d1 else alphas)
        d1 = math.nan
        if with_d1:   # nan, and flagged, where c_0 or c_1 did not converge
            d1, why_d1 = d1_of(g, n, c), c[0.0].flag or c[1.0].flag
        for alpha in sorted(alphas):
            qv = c[alpha]
            exact = euler_c_alpha_exact(rational, alpha) if rational else math.nan
            flags = dict.fromkeys(f for f in (why_L, qv.flag, why_d1) if f)
            rows.append({
                "g": g.name, "n": n, "alpha": alpha, "L": L, "a": a, "b": b,
                "c_alpha_quadrature": qv.value, "c_alpha_exact": exact,
                "d0": d0, "d1": d1, "residual_flags": ";".join(flags),
            })
    return rows
