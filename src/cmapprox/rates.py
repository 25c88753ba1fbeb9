"""Verification harness: errors vs. theoretical bounds, order fits, sharpness.

Each bound suite of SUITES states its theorem once: the error of g_n it
bounds, the n-exponent of its orders fit, what it asks of g, A and alpha, and
the bound terms(t, n) of every cell.  Calling it checks its inputs, then gives
the rows (dicts with the keys BOUND_FIELDS) of every (t, n) cell of a grid, on
one fixed g, or on a family g_t one t at a time, on the member g_t; every row's
pass flag applies the floating-point slack policy

    pass  <=>  error <= bound * (1 + 1e-9) + 1e-13.

Errors and norms are those of functions of the generator, read from
GeneratorMatrix.norms and .opnorm (see opcalc), with the errors and the
powers lambda^alpha given as stacks of functions of a spectral point.
The defect g_t(t lambda/n)^n - e^{-t lambda} and the second-order residual
are those of g_n, the pair (g_t, n), given by g_t.defect(t lambda, n) and
g_t.residual(t lambda, n) (see cmfun): for a g with a log-defect they come
from it without cancellation.  A run of a fixed g evaluates them on
(cells x d) stacks of its grid, each cut to at most STACK_POINTS values,
and takes every norm from one `norms` call, so that the test vectors go to
the eigenbasis and each ||A^p x|| is computed once; the bound scalars are
still per cell.

Order fits are least-squares slopes on (log n, log error).  spectral_order
fits the n-exponent of ||E_n A^{-alpha}|| with E_n a suite's error on the
eigenvalues; on a normal generator with a dense spectral grid that norm is
the scalar supremum whose decay the paper's optimal rates describe.
Suite.orders passes or fails each fit against the rate the spectrum admits,
once order_suite has checked the flags of the run.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import functionals, opcalc, quadrature
from .cmfun import CMFunction, check_bk, euler, require_b1
from .opcalc import GeneratorMatrix, frac_on_spectrum

__all__ = [
    "within_bound", "OrderFit", "fit_order", "order_verdict", "suite", "first_order_bounds",
    "non_b2_bounds", "second_order_bounds", "holomorphic_bounds", "holomorphic_second_order",
    "order_suite", "spectral_order", "euler_scalar_sharpness", "shift_second_order_sharpness",
]

SLACK_REL = 1e-9
SLACK_ABS = 1e-13
# an order fit passes when r^2 >= R2_MIN and |fitted - expected| <= EXPONENT_TOL
R2_MIN = 0.98
EXPONENT_TOL = 0.1
# the fewest points a fit takes, and so the fewest --n values of orders
FIT_POINTS = 4
ORDER_ALPHA = (0.0, 4.0)
# values (cells x points) of one evaluation of a scheme's errors: 0.5 MB per
# complex array, of which about ten are alive at once
STACK_POINTS = 1 << 15


def within_bound(error: float, bound: float) -> bool:
    """The slack policy: error <= bound * (1 + SLACK_REL) + SLACK_ABS."""
    return error <= bound * (1.0 + SLACK_REL) + SLACK_ABS


def check_alphas(alphas, lo: float, hi: float, what: str) -> None:
    """ValueError naming the first alpha outside [lo, hi], the range of `what`."""
    for alpha in alphas:
        if not lo <= alpha <= hi:
            raise ValueError(f"--alpha {alpha:g} is outside [{lo:g}, {hi:g}], the range of {what}")


class OrderFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    used_points: int
    flag: str = ""


def fit_order(points) -> OrderFit:
    """Least-squares slope of log(error) against log(n)."""
    pts = [(n, e) for n, e in points if e > 0.0 and math.isfinite(e)]
    if len(pts) < FIT_POINTS:
        return OrderFit(math.nan, math.nan, 0.0, len(pts), "exact" if not pts else "too-few-points")
    ln = np.log([p[0] for p in pts])
    le = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(ln, le, 1)
    resid = le - (slope * ln + intercept)
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return OrderFit(float(slope), float(intercept), r2, len(pts))


def order_verdict(fit: OrderFit, expected: float) -> tuple[str, bool]:
    """(flag, pass): the fit's flag, or "inconclusive" when r^2 < R2_MIN; it passes
    "exact", or unflagged with its slope within EXPONENT_TOL of `expected`."""
    flag = fit.flag or ("inconclusive" if fit.r_squared < R2_MIN else "")
    return flag, flag == "exact" or (not flag and abs(fit.slope - expected) <= EXPONENT_TOL)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _errors(g: CMFunction, ts, ns, dim: int, error=CMFunction.defect) -> list:
    """The error of every (t, n) cell, t-major, as functions of a spectrum of
    `dim` points, each lam -> the stack of error(g, t lam, n) of a block of
    consecutive cells, the defect g_n(t lam) - e^{-t lam} or CMFunction.residual.
    The cells are cut into blocks of at most STACK_POINTS values (and at least
    one cell), so that an evaluation's temporaries do not grow with the grid; a
    ValueError when g is not in B1."""
    require_b1(g)
    cells = [(t, n) for t in ts for n in ns]
    size = max(1, STACK_POINTS // dim)
    blocks = [cells[i:i + size] for i in range(0, len(cells), size)]
    return [partial(_stack, g, error, np.array([t for t, _ in block])[:, None],
                    np.array([n for _, n in block])[:, None]) for block in blocks]


def _stack(g: CMFunction, error, t, n, lam):
    """error(g, t lam, n), one row per entry of the columns t and n."""
    return error(g, t * lam, n)


BOUND_FIELDS = ["scheme", "generator", "t", "n", "alpha", "vector_id",
                "error", "bound", "slack", "tag", "pass"]


def _row(scheme, generator, t, n, alpha, vector_id, error, bound, tag) -> dict:
    """A verify-bounds row: slack = bound - error, and pass by within_bound."""
    return dict(zip(BOUND_FIELDS, (scheme, generator, t, n, alpha, vector_id, error, bound,
                                   bound - error, tag, within_bound(error, bound))))


def _grid(g, A: GeneratorMatrix, ts, ns, vectors, error, terms, scheme: str) -> list[dict]:
    """The rows of every (t, n) cell, t-major, named `scheme`: for each term
    (alpha, tag, factor[, norm]) of terms(t, n), with E = error(g, t ., n), one
    row per test vector x, of ||E(A) x|| against factor * ||A^alpha x||, or
    factor * sum_p w ||A^p x|| where the norm is its (p, w) pairs; a norm of
    None bounds ||E(A)||, in one row with vector_id -1.  The errors of every
    cell, their operator norms and each power A^p come from one `norms` call."""
    cells = [(t, n) for t in ts for n in ns]
    if not cells:
        return []
    blocks = _errors(g, ts, ns, A.dim, error)
    cell_terms = [terms(t, n) for t, n in cells]
    pairs = [[term[3] if len(term) > 3 else ((term[0], 1.0),) for term in tt]
             for tt in cell_terms]
    powers = sorted({p for cell in pairs for ws in cell if ws for p, _ in ws})
    xs, tops = A.norms([*blocks, lambda lam: [frac_on_spectrum(lam, p) for p in powers]],
                       vectors)
    errors, ops = np.vstack(xs[:-1]).tolist(), np.concatenate(tops[:-1]).tolist()
    nx = dict(zip(powers, xs[-1].tolist()))
    rows = []
    for (t, n), tt, weights, errs, op in zip(cells, cell_terms, pairs, errors, ops):
        for (alpha, tag, factor, *_), ws in zip(tt, weights):
            if ws is None:
                rows.append(_row(scheme, A.name, t, n, alpha, -1, op, factor, tag))
                continue
            rows += [_row(scheme, A.name, t, n, alpha, i, err,
                          factor * sum(w * nx[p][i] for p, w in ws), tag)
                     for i, err in enumerate(errs)]
    return rows


# ----------------------------------------------------------------------
# bound suites
# ----------------------------------------------------------------------

ORDER_FIELDS = ["scheme", "generator", "t", "alpha", "slope", "expected_exponent",
                "intercept", "r_squared", "used_points", "flag", "tag", "pass"]


class Suite(NamedTuple):
    """A bound suite: terms(g, Mc, ns, alphas) gives the bound terms(t, n) of
    every cell of one fixed g, Mc = semigroup_constants(A).  Calling it checks
    what its theorem asks of the inputs, once, and runs _grid on g, or on a
    family g_t one t at a time on the member g_t, in rows that keep the
    family's name."""

    name: str
    terms: object
    error: object = CMFunction.defect   # error(g, z, n): the defect or the residual of g_n
    order: float | None = None          # orders expects n^-order on a sector; None: no fit
    alpha: tuple = (-math.inf, math.inf)   # the alpha range of the theorem
    moment: int = 0           # g_t in B_k: g_t^(k)(0) finite
    fixed: bool = False       # one function g, not a family g_t
    tail: bool = False        # g(inf) = 0, else d1[g_n] = inf
    sectorial: bool = False   # finite M_1 and M_2
    rows_alpha: tuple = ()    # the alphas of the rows where the theorem fixes them: no --alpha

    def admit(self, gt) -> CMFunction:
        """g_t, once it is in B1 and in B_k, k = moment, and carries a log-defect
        where the suite bounds the residual; a ValueError naming its m_0 and m_1
        when it is outside B1, else naming the suite."""
        require_b1(gt)
        if self.moment and not check_bk(gt, self.moment):
            raise ValueError(f"suite {self.name!r} needs a B{self.moment} function, with g"
                             + "'" * self.moment + f"(0) finite, and {gt.name} is not one")
        if self.error is CMFunction.residual and gt.log_defect is None:
            raise ValueError(f"suite {self.name!r} needs a function with a log-defect, from "
                             f"which it takes the second-order residual, and {gt.name} has none")
        return gt

    def __call__(self, g, A: GeneratorMatrix, ts, ns, alphas, vectors) -> list[dict]:
        """The rows of every (t, n) cell, sorted by (t, n, alpha, vector_id); a
        ValueError naming the suite and the first input its theorem refuses."""
        name = self.name
        check_alphas(alphas, *self.alpha, f"suite {name!r}")
        fixed = isinstance(g, CMFunction)
        if self.fixed and not fixed:
            raise ValueError(f"suite {name!r} needs a fixed function: give t, as in {g.name}:t=0.5")
        if self.tail and not g.tail_integrable:
            raise ValueError(f"suite {name!r} needs g(inf) = 0, and {g.name} has "
                             f"g(inf) = {g.limit_at_inf:g}")
        runs = [(self.admit(g), ts)] if fixed else [(self.admit(g.at(t)), [t]) for t in ts]
        Mc = opcalc.semigroup_constants(A)
        if self.sectorial and not (math.isfinite(Mc[1]) and math.isfinite(Mc[2])):
            raise ValueError(f"suite {name!r} needs a sectorial generator; the spectrum of "
                             f"{A.name!r} is not sectorial (M_1 = {Mc[1]}, M_2 = {Mc[2]})")
        rows = [r for gt, tt in runs for r in _grid(gt, A, tt, ns, vectors, self.error,
                                                    self.terms(gt, Mc, ns, alphas), g.name)]
        return sorted(rows, key=lambda r: (r["t"], r["n"], r["alpha"], r["vector_id"]))

    def orders(self, g, A: GeneratorMatrix, ts, ns, alphas) -> list[dict]:
        """The orders rows, sorted by (t, alpha): the spectral_order fit of each
        member g_t, admitted as a call admits it, against the rate the spectrum
        admits, n^-order on a sector (finite M_1) and n^-min(alpha/2, order) off
        one, as on the imaginary axis, passed or failed by order_verdict."""
        members = {t: self.admit(g.at(t)) for t in ts}
        sector = math.isfinite(opcalc.semigroup_constants(A)[1])
        rows = []
        for t in sorted(members):
            for alpha in sorted(alphas):
                fit = spectral_order(members[t], A, t, ns, alpha, self.error)
                expected = -self.order if sector else 0.0 - min(alpha / 2.0, self.order)
                flag, ok = order_verdict(fit, expected)
                rows.append({**fit._asdict(), "scheme": g.name, "generator": A.name, "t": t,
                             "alpha": alpha, "expected_exponent": expected, "flag": flag,
                             "tag": f"order-{self.name}", "pass": ok})
        return rows


def _first_order(g, Mc, ns, alphas):
    """First-order bounds for g in B2, with M = M_0 and h = g''(0) - 1:

    alpha=2:       M h/2 * t^2/n * ||A^2 x||
    alpha=1:       M sqrt(h) * t/sqrt(n) * ||A x||
    alpha in [0,2): 4M (h t^2/n)^{alpha/2} * ||A^alpha x||

    (alpha = 0 gives 4M ||x||, which holds since ||g(tA/n)^n|| <= M.)
    """
    M, h = Mc[0], g.moments[2] - 1.0

    def terms(t, n):
        return [(alpha, "first-order-A2", M * 0.5 * h * t ** 2 / n) if alpha == 2.0
                else (alpha, "first-order-A1", M * math.sqrt(h) * t / math.sqrt(n))
                if alpha == 1.0
                else (alpha, "first-order-frac", 4.0 * M * (h * t ** 2 / n) ** (alpha / 2.0))
                for alpha in alphas]

    return terms


def _non_b2(g, Mc, ns, alphas):
    """Bounds driven by g'(1/n) for B1 functions with g''(0) = inf, M = M_0:

    alpha=1:       4eM (1 + 1/|g'(1/n)|) sqrt(1+g'(1/n)) t ||Ax||
    alpha in [0,1): 16eM (1 + 1/|g'(1/n)|) (1+g'(1/n))^{alpha/2} t^alpha ||A^alpha x||

    g'(1/n) is taken once per n.
    """
    dg = {n: g.derivative(1.0 / n, 1) for n in ns}

    def terms(t, n):
        lead = 4.0 * math.e * Mc[0] * (1.0 + 1.0 / abs(dg[n]))
        root = max(1.0 + dg[n], 0.0)
        return [(alpha, "slope-A1", lead * math.sqrt(root) * t) if alpha == 1.0
                else (alpha, "slope-frac", 4.0 * lead * root ** (alpha / 2.0) * t ** alpha)
                for alpha in alphas]

    return terms


def _second_order(g, Mc, ns, alphas):
    """Residual R = scheme - e^{-tA} - (2n)^{-1}(g''(0)-1) t^2 e^{-tA} A^2 for g
    in B4, with M = M_0; `alphas` is not read:

    ||Rx|| <= M C t^3 n^{-3/2} ||A^3 x||,  C = sqrt((g''(0)-1)(g''''(0)-1)/2)
    ||Rx|| <= M C1 t^3 n^{-2} (||A^3 x|| + t ||A^4 x||),  C1 = g''''(0)-1
    """
    M, h2, h4 = Mc[0], g.moments[2] - 1.0, g.moments[4] - 1.0
    C, C1 = math.sqrt(h2 * h4 / 2.0), h4

    def terms(t, n):
        return [(3.0, "second-order-A3", M * C * t ** 3 * n ** -1.5),
                (4.0, "second-order-A4", M * C1 * t ** 3 * n ** -2.0, ((3.0, 1.0), (4.0, t)))]

    return terms


def _holomorphic(g, Mc, ns, alphas):
    """Bounds for sectorial generators, with h = g''(0) - 1:

    op-norm:       K h/n,                    K = 3M0 + 3M1 + M2/2
    alpha=1:       (2M0 + 3M1/2) h/n * t ||Ax||
    alpha in (0,1): 3 M0 K h/n * t^alpha ||A^alpha x||
    sharp:         M_{2-alpha} c_alpha[g_n] t^alpha ||A^alpha x||

    c_alpha[g_n] is Euler's r_{alpha,Nn} for g.rational_n = N, else the
    quadrature where g(inf) = 0 and g has a log-defect; no sharp row otherwise.
    """
    M0, M1, h = Mc[0], Mc[1], g.moments[2] - 1.0
    K = 3.0 * M0 + 3.0 * M1 + Mc[2] / 2.0
    quad = g.rational_n is None and g.tail_integrable and g.log_defect is not None
    # one quadrature for every alpha of the suite, per n
    c = {n: functionals.c_alpha_quads(g, n, alphas) for n in set(ns)} if quad else {}

    def terms(t, n):
        out = [(0.0, "holo-opnorm", K * h / n, None)]
        for alpha in alphas:
            if alpha == 1.0:
                out.append((alpha, "holo-A1", (2.0 * M0 + 1.5 * M1) * h / n * t))
            elif 0.0 < alpha < 1.0:
                out.append((alpha, "holo-frac", 3.0 * M0 * K * h / n * t ** alpha))
            if g.rational_n is not None:
                r = euler_sharp_r(g.rational_n * n, alpha)
            elif quad:   # nan, which fails the row, where the quadrature did not converge
                r = c[n][alpha].value if c[n][alpha].converged else math.nan
            else:
                continue
            out.append((alpha, "holo-sharp", Mc[2.0 - alpha] * r * t ** alpha))
        return out

    return terms


def euler_sharp_r(n: int, alpha: float) -> float:
    """r_{alpha,n} for Euler's scheme: 1/(2n) + (1-2 alpha)/(12 n^2) below
    alpha = 1/2, and 1/(2n) from alpha = 1/2 on."""
    return 1.0 / (2.0 * n) + max(1.0 - 2.0 * alpha, 0.0) / (12.0 * n * n)


def _holomorphic_second(g, Mc, ns, alphas):
    """Second-order residual bound on sectorial generators, g in B4 with g(inf) = 0:

    ||R_n x|| <= (|b[g_n]| M_{3-alpha} + d1[g_n]/2 M_{4-alpha}) t^alpha ||A^alpha x||

    for alpha in [0, 3], where both M indices are >= 0.
    """
    b_d1 = {}
    for n in set(ns):
        c = functionals.c_alpha_quads(g, n, (0, 1))   # c_0 and c_1 of d1 in one quadrature
        b_d1[n] = functionals.b_of(g, n), functionals.d1_of(g, n, c)   # a nan fails the rows

    def terms(t, n):
        b_n, d1_n = b_d1[n]
        return [(alpha, "holo-second",
                 (abs(b_n) * Mc[3.0 - alpha] + 0.5 * d1_n * Mc[4.0 - alpha]) * t ** alpha)
                for alpha in alphas]

    return terms


first_order_bounds = Suite("first", _first_order, order=1.0, alpha=(0.0, 2.0), moment=2)
non_b2_bounds = Suite("nonb2", _non_b2, alpha=(0.0, 1.0), fixed=True)
second_order_bounds = Suite("second", _second_order, CMFunction.residual, order=2.0, moment=4,
                            rows_alpha=(3.0, 4.0))
holomorphic_bounds = Suite("holo", _holomorphic, alpha=(0.0, 1.0), moment=2, sectorial=True)
holomorphic_second_order = Suite("holo2", _holomorphic_second, CMFunction.residual,
                                 alpha=(0.0, 3.0), moment=4, fixed=True, tail=True,
                                 sectorial=True)
SUITES = {s.name: s for s in (first_order_bounds, non_b2_bounds, second_order_bounds,
                              holomorphic_bounds, holomorphic_second_order)}


def suite(name: str, alphas) -> Suite:
    """SUITES[name], once every alpha lies in its theorem's range, and alphas is None
    (no --alpha) where it has rows_alpha; a ValueError naming the suite otherwise."""
    if name not in SUITES:
        raise ValueError(f"--suite {name!r}: unknown suite; available: {', '.join(SUITES)}")
    if SUITES[name].rows_alpha and alphas is not None:
        raise ValueError(f"suite {name!r} takes no --alpha: its rows are at alpha "
                         + " and ".join(f"{a:g}" for a in SUITES[name].rows_alpha))
    check_alphas(alphas or (), *SUITES[name].alpha, f"suite {name!r}")
    return SUITES[name]


def order_suite(name: str, alphas, ns) -> Suite:
    """SUITES[name] for an orders run, once it has an order, every alpha lies in
    ORDER_ALPHA and ns has FIT_POINTS values; a ValueError naming the flag otherwise."""
    fits = [s.name for s in SUITES.values() if s.order is not None]
    if name not in fits:
        raise ValueError(f"--suite {name!r} is not a suite of orders, which takes "
                         + " or ".join(fits))
    check_alphas(alphas, *ORDER_ALPHA, "orders")
    if len(ns) < FIT_POINTS:
        raise ValueError(f"--n {','.join(map(str, ns))} has {len(ns)} distinct values, "
                         f"and an orders fit needs at least {FIT_POINTS}")
    return SUITES[name]


# ----------------------------------------------------------------------
# order fits on the spectrum
# ----------------------------------------------------------------------

def spectral_order(g: CMFunction, A: GeneratorMatrix, t: float, ns, alpha: float,
                   error=CMFunction.defect) -> OrderFit:
    """Fit of the n-exponent of ||E_n A^{-alpha}|| over the grid ns, where E_n is
    error(g, ., n) of a fixed g on the spectrum and the weight lambda^{-alpha}
    is 0 at lambda = 0, where E_n vanishes.  A g with a log-defect has E_n to a
    few ulp of itself, so only exact zeros are left out; without one, E_n is
    the direct difference, and points at or below 100 eps ||e^{-tA} A^{-alpha}||,
    the size of either of its terms, are roundoff and left out too.  With no
    point left the flag is "exact"."""
    def weight(lam):
        zero = lam == 0
        return np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, frac_on_spectrum(lam, alpha)))

    norms = [e for f in _errors(g, [t], ns, A.dim, error)
             for e in A.opnorm(lambda lam, f=f: f(lam) * weight(lam))]
    floor = 0.0 if g.log_defect is not None else 100.0 * np.finfo(float).eps * A.opnorm(
        lambda lam: np.exp(-t * lam) * weight(lam))[0]
    return fit_order([(n, e) for n, e in zip(ns, norms) if e > floor])


# ----------------------------------------------------------------------
# sharp-constant experiments
# ----------------------------------------------------------------------

def _golden_max(f, a, b, tol: float = 1e-10):
    """The maxima of unimodal functions on the intervals [a, b] (arrays) by
    one golden-section search: f takes an array of points, one per interval,
    and an entry whose interval is within tol stays frozen while the others
    go on."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    state = np.array([a, b, x1, x2, f(x1), f(x2)])
    while (going := state[1] - state[0] > tol).any():
        a, b, x1, x2, f1, f2 = state
        up = f1 < f2
        a, b = np.where(up, x1, a), np.where(up, b, x2)
        x = np.where(up, a + phi * (b - a), b - phi * (b - a))
        fx = f(x)
        state[:, going] = np.where(up, [a, b, x2, x, f2, fx], [a, b, x, x1, fx, f1])[:, going]
    return f(0.5 * (state[0] + state[1]))


SHARPNESS_FIELDS = ["experiment", "n", "value", "scaled", "reference", "pass"]


def euler_scalar_sharpness(n_grid) -> list[dict]:
    """The euler-scalar rows: the sup over t of Euler's `defect(t, n)` =
    (1 + t/n)^{-n} - e^{-t} > 0 as `value`, n sup as `scaled` against its limit
    2 e^{-2}, and `pass` from `within_bound(sup, M_2 r_{0,n})`, the holo-sharp
    bound at alpha = 0 on a positive spectrum (rho = 1)."""
    defect = euler().defect
    m2 = opcalc.SemigroupConstants(rho=1.0)[2.0]
    ns = np.array(n_grid)
    sups = _golden_max(lambda t: defect(t, ns), np.full(ns.shape, 1e-6), np.full(ns.shape, 20.0))
    return [{"experiment": "euler-scalar", "n": n, "value": sup, "scaled": n * sup,
             "reference": 2.0 * math.exp(-2.0),
             "pass": within_bound(sup, m2 * euler_sharp_r(n, 0.0))}
            for n, sup in zip(n_grid, sups.tolist())]


def _shift_integrals(n: int):
    """[I_{1,n}, I_{2,n}] as an Integral, one `converged` flag each, for n >= 2.

    Euler's second-order density is W_n(tau) = int (tau-s)_+ nu_n(ds) at and
    below 1 and int (s-tau)_+ nu_n(ds) above, nu_n the Gamma(n, n) measure of
    g_n, so integrating over tau first (Fubini) gives

        I_{1,n} = -int_0^2 W_n |tau-1| dtau = -int k(s) nu_n(ds),
                  k = |s-1|^3/6 for s <= 2, (s-1)/2 - 1/3 beyond,
        I_{2,n} = -int_2^inf W_n dtau = -int (s-2)_+^2/2 nu_n(ds),

    with nu_n(ds) = n L[g_n] e^{-n D(s-1)} ds/s = n L[g_n] e^{-x - (n-1) D(x)} ds
    at s = 1 + x, L[g_n] from `functionals.euler_power_L` and D Euler's
    log-defect, which does not cancel.  Both are one quadrature in v = |s-1|,
    the two sides of s = 1 summed at each v, on the panels [0, w, 1, inf),
    w = min(1/2, 10/sqrt(n)): nu_n peaks at s = 1 with a width of about
    n^{-1/2}, and the nodes near v = 0 keep their full relative precision."""
    D = euler().log_defect
    lead = n * functionals.euler_power_L(n)

    def f(v):
        u = np.minimum(v, 1.0)    # the side s = 1 - v ends at s = 0, where D = inf
        both = np.exp(u - (n - 1) * D(-u)) + np.exp(-v - (n - 1) * D(v))
        k = np.where(v <= 1.0, v ** 3 / 6.0, v / 2.0 - 1.0 / 3.0)
        return lead * np.array([k * both, 0.5 * np.maximum(v - 1.0, 0.0) ** 2 * both])

    w = min(0.5, 10.0 / math.sqrt(n))
    res = quadrature.integrate(f, [0.0, w, 1.0], [w, 1.0, math.inf])
    return res._replace(value=(-res.value.sum(axis=1)).tolist())


def shift_second_order_sharpness(n_grid) -> list[dict]:
    """The shift-I1I2 rows (see `_shift_integrals`): I_{1,n} as `value` and
    n^{3/2} |I_{1,n}| as `scaled`, against its liminf bound 1/(3 sqrt(2 pi));
    a row passes when |I_{2,n}| <= 2/n^2 and both integrals converged."""
    if min(n_grid, default=2) < 2:
        raise ValueError("n >= 2 required")
    rows = []
    for n in n_grid:
        (i1, i2), converged = _shift_integrals(n)
        rows.append({"experiment": "shift-I1I2", "n": n, "value": i1, "scaled": n ** 1.5 * abs(i1),
                     "reference": 1.0 / (3.0 * math.sqrt(2.0 * math.pi)),
                     "pass": bool(converged.all()) and within_bound(abs(i2), 2.0 / n ** 2)})
    return rows
