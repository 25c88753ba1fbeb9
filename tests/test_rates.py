"""Verification harness: order fits, slack policy, bound suites, sharpness."""

import csv
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from cmapprox import cli, cmfun, functionals, opcalc, quadrature, rates
from cmapprox.rates import (
    first_order_bounds,
    fit_order,
    second_order_bounds,
)

from conftest import dense_scheme, diag_imag_matrix, laplacian_matrix


# ----------------------------------------------------------------------
# fit_order
# ----------------------------------------------------------------------

def test_fit_order_synthetic():
    ns = [2 ** k for k in range(2, 10)]
    fit = fit_order([(n, 3.0 / n) for n in ns])
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = fit_order([(n, 0.7 * n ** -1.5) for n in ns])
    assert fit.slope == pytest.approx(-1.5, abs=1e-10)


def test_fit_order_degenerate():
    assert fit_order([(n, 0.0) for n in (2, 4, 8, 16)]).flag == "exact"
    fit = fit_order([(2, 1.0), (4, 0.5)])
    assert fit.flag == "too-few-points" and math.isnan(fit.slope)


def test_spectral_order_floor_follows_the_semigroup_scale():
    # e^{-z} without its log-defect takes the direct difference, so its
    # weighted defect is roundoff at every n, spread over a decade: against
    # the largest point it looks like a rate, against ||e^{-tA} A^{-alpha}||
    # it is exact
    A = opcalc.laplacian_dirichlet_1d(16)
    g = cmfun.exponential()._replace(name="exp-direct", log_defect=None)
    ns = (4, 8, 16, 32)
    [errors] = rates._errors(g, [1.0], ns, A.dim)
    pts = list(zip(ns, A.opnorm(lambda lam: errors(lam) * (1.0 / lam))))
    assert fit_order(pts).used_points == 4
    fit = rates.spectral_order(g, A, 1.0, ns, alpha=1.0)
    assert fit.flag == "exact" and fit.used_points == 0
    # exp itself carries L = 0, and its defect is an exact zero
    [errors] = rates._errors(cmfun.exponential(), [1.0], [4], A.dim)
    assert not np.any(errors(A.eigs))
    # a genuine rate stays above the floor
    fit = rates.spectral_order(cmfun.euler(), A, 1.0, ns, alpha=1.0)
    assert fit.used_points == 4 and fit.slope == pytest.approx(-1.0, abs=0.1)


def test_exact_scheme_order_is_exact(tmp_path):
    # exp is the semigroup itself: its defect is roundoff at every n, which the
    # fit must not read as a slope
    out = tmp_path / "o.csv"
    assert cli.main(["orders", "--scheme", "exp", "--generator", "laplacian:d=16",
                     "--n", "4,8,16,32", "--out", str(out)]) == 0
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    assert row["flag"] == "exact" and row["pass"] == "true"


def test_slack_policy_boundary():
    mk = lambda err, bound: rates._row("g", "A", 1.0, 2, 1.0, 0, err, bound, "t")
    assert mk(1.0, 1.0)["pass"]
    assert mk(1.0 + 5e-10, 1.0)["pass"]          # inside relative slack
    assert not mk(1.0 + 1e-8, 1.0)["pass"]       # outside
    assert mk(5e-14, 0.0)["pass"]                # inside absolute slack
    assert not mk(1e-12, 0.0)["pass"]
    row = mk(0.5, 1.0)
    assert row["pass"] is True and row["slack"] == pytest.approx(0.5)
    assert list(row) == rates.BOUND_FIELDS


# ----------------------------------------------------------------------
# bound suites on small generators
# ----------------------------------------------------------------------

def test_bound_functions_read_constants_not_a_generator():
    # each suite's bound function takes g, M_beta, the n grid and the alphas, and
    # gives terms(t, n): no generator, t grid or test vector reaches it.  On a positive spectrum (rho = 1) M_0 = 1,
    # M_1 = 1/e and M_2 = 4/e^2; Euler's g has g''(0) - 1 = 1 and g''''(0) - 1 = 23
    Mc = opcalc.SemigroupConstants(rho=1.0)
    e, t, n = math.e, 0.5, 8
    euler, tail = cmfun.euler(), cmfun.frac_tail(0.5)
    dg = tail.derivative(1.0 / n, 1)
    b, d1 = functionals.b_of(euler, n), functionals.d1_of(
        euler, n, functionals.c_alpha_quads(euler, n, (0, 1)))
    cases = {   # suite: (g, alphas, the tag of the first term on x, its closed form)
        "first": (euler, (2.0,), "first-order-A2", t ** 2 / (2 * n)),
        "nonb2": (tail, (1.0,), "slope-A1", 4 * e * (1 + 1 / abs(dg)) * math.sqrt(1 + dg) * t),
        "second": (euler, (), "second-order-A3", math.sqrt(23 / 2) * t ** 3 / n ** 1.5),
        "holo": (euler, (1.0,), "holo-A1", (2 + 1.5 / e) / n * t),
        "holo2": (euler, (1.0,), "holo-second", (abs(b) * Mc[2.0] + d1 / 2 * Mc[3.0]) * t),
    }
    assert set(cases) == set(rates.SUITES)
    for name, (g, alphas, tag, want) in cases.items():
        terms = rates.SUITES[name].terms(g, Mc, [n], alphas)(t, n)
        # a term whose norm is None bounds the operator norm ||E(A)||: holo's
        # first, K h/n with K = 3 M_0 + 3 M_1 + M_2/2, and no other suite's
        opnorm = [term for term in terms if len(term) > 3 and term[3] is None]
        if name == "holo":
            K = 3.0 + 3.0 / e + 2.0 / e ** 2
            assert opnorm == [terms[0]] == [(0.0, "holo-opnorm", pytest.approx(K / n, rel=1e-14),
                                              None)]
        else:
            assert not opnorm, name
        _, got_tag, factor, *_ = terms[len(opnorm)]
        assert (got_tag, factor) == (tag, pytest.approx(want, rel=1e-14)), name


def test_first_order_exponential_zero_error():
    A = opcalc.diag_imag(16)
    vecs = opcalc.test_vectors(A)[:4]
    reports = first_order_bounds(cmfun.exponential(), A, [1.0], [4],
                                 (2.0, 1.0, 0.5), vecs)
    for r in reports:
        assert r["error"] <= 1e-12 and r["pass"]


def test_first_order_requires_b2():
    A = opcalc.diag_imag(8)
    vecs = opcalc.test_vectors(A)[:2]
    with pytest.raises(ValueError):
        first_order_bounds(cmfun.frac_tail(0.5), A, [1.0], [4], (1.0,), vecs)


def test_first_order_kendall_alpha2_is_exact_on_diagonal():
    # kendall at parameter t has g_t''(0) - 1 = t(1-t)/... : the alpha = 2
    # bound reduces to t(1-t)/(2n) ||A^2 x|| on unitary diagonal generators,
    # with A^2 the square of the dense diagonal matrix
    fam = cmfun.make_builtin("kendall")
    A = opcalc.diag_imag(32)
    vecs = opcalc.test_vectors(A)[:4]
    tt, n = 0.5, 8
    gt = fam.at(tt)
    h = gt.moments[2] - 1.0
    reports = first_order_bounds(fam, A, [tt], [n], (2.0,), vecs)
    M = diag_imag_matrix(32)
    for r, x in zip(reports, vecs):
        want = 0.5 * h * tt ** 2 / n * float(np.linalg.norm(M @ (M @ x)))
        assert r["bound"] == pytest.approx(want, rel=1e-12)
        assert r["pass"]


def test_second_order_exponential_zero_residual():
    A = opcalc.diag_positive(16)
    vecs = opcalc.test_vectors(A)[:4]
    for r in second_order_bounds(cmfun.exponential(), A, [1.0], [4], (), vecs):
        assert r["error"] <= 1e-10 and r["pass"]


def test_second_order_requires_b4():
    A = opcalc.diag_positive(8)
    vecs = opcalc.test_vectors(A)[:2]
    with pytest.raises(ValueError):
        second_order_bounds(cmfun.frac_tail(0.5), A, [1.0], [4], (), vecs)


SUITE_CASES = [
    ("first", "euler", (0.5, 1.0, 2.0)),
    ("nonb2", "frac_tail:gamma=0.5", (0.5, 1.0)),
    ("second", "euler", ()),
    ("holo", "spline", (0.0, 0.5, 1.0)),
    ("holo2", "spline", (0.0, 1.0, 3.0)),
]


@pytest.mark.parametrize("suite, scheme, alphas", SUITE_CASES)
def test_one_basis_solve_per_run(suite, scheme, alphas, monkeypatch):
    # every norm of a run, the errors of all its (t, n) cells and the bounds
    # alike, reads the test vectors from one trip to the eigenbasis
    A = opcalc.laplacian_dirichlet_1d(16)
    vecs = opcalc.test_vectors(A)
    calls = []
    inner = A.basis.solve

    def solve(X):
        calls.append(X.shape)
        return inner(X)

    monkeypatch.setattr(A.basis, "solve", solve)
    run, g = rates.SUITES[suite], cmfun.make_builtin(scheme)
    rows = run(g, A, (0.5, 2.0), (4, 16, 64), alphas, vecs)
    assert {(r["t"], r["n"]) for r in rows} == {(t, n) for t in (0.5, 2.0) for n in (4, 16, 64)}
    assert calls == [(16, len(vecs))]


def test_frac_tail_grid_is_one_array_evaluation(monkeypatch):
    # the nonb2 suite on a 3 x 4 grid evaluates frac_tail's power-law transform
    # on one stack of every cell's points, and g'(1/n) once per n (two
    # binomial terms of a scalar each)
    from cmapprox import measures

    A = opcalc.make_generator("diag_imag:k=32,min=0.1,max=100")
    calls = []
    inner = measures.powerlaw_laplace

    def spy(p, z):
        calls.append(np.shape(z))
        return inner(p, z)

    monkeypatch.setattr(measures, "powerlaw_laplace", spy)
    g = cmfun.frac_tail(0.5)
    rows = rates.non_b2_bounds(g, A, (0.25, 1.0, 4.0), (4, 16, 64, 256), (0.5, 1.0),
                               opcalc.test_vectors(A))
    assert len(rows) == 12 * 2 * 8
    assert [s for s in calls if s] == [(12, 32)]
    assert len([s for s in calls if not s]) == 2 * 4
    # a grid of more than STACK_POINTS values is evaluated in blocks of at
    # most that many, with every row as it was
    calls.clear()
    monkeypatch.setattr(rates, "STACK_POINTS", 5 * 32)
    assert rates.non_b2_bounds(g, A, (0.25, 1.0, 4.0), (4, 16, 64, 256), (0.5, 1.0),
                               opcalc.test_vectors(A)) == rows
    assert [s for s in calls if s] == [(5, 32), (5, 32), (2, 32)]


def test_family_blocks_stay_within_one_t(monkeypatch):
    # a family is run per t, on its member; blocks cut each t's cells, never join two t
    A = opcalc.laplacian_dirichlet_1d(16)
    vecs = opcalc.test_vectors(A)
    g, ts, ns = cmfun.make_builtin("kendall"), (0.25, 1.0), (2, 4, 16, 64, 256)
    rows = rates.first_order_bounds(g, A, ts, ns, (0.5, 1.0), vecs)
    monkeypatch.setattr(rates, "STACK_POINTS", 2 * 16)
    blocks = [f for t in ts for f in rates._errors(g.at(t), [t], ns, A.dim)]
    assert [f.args[3].ravel().tolist() for f in blocks] == [[2, 4], [16, 64], [256]] * 2
    assert rates.first_order_bounds(g, A, ts, ns, (0.5, 1.0), vecs) == rows


@pytest.mark.parametrize("suite, scheme, alphas", SUITE_CASES + [
    ("first", "kendall", (0.5, 1.0, 2.0)),
    ("second", "yosida", ()),
    ("holo", "kendall", (0.0, 0.5, 1.0)),
])
def test_suite_rows_equal_the_per_cell_reference(suite, scheme, alphas):
    # the errors of a grid run are those of each cell's g_n, the pair (g_t, n),
    # through A.norms and A.opnorm, bit for bit, and every row is that of the
    # cell run alone, in t-major cell order
    A = opcalc.laplacian_dirichlet_1d(16)
    vecs = opcalc.test_vectors(A)
    run, g = rates.SUITES[suite], cmfun.make_builtin(scheme)
    ts, ns = (0.25, 1.0), (2, 4, 64)
    rows = run(g, A, ts, ns, alphas, vecs)
    assert rows == [r for t in ts for n in ns for r in run(g, A, [t], [n], alphas, vecs)]
    for t in ts:
        for n in ns:
            gt = g.at(t)
            f = gt.residual if suite in ("second", "holo2") else gt.defect
            [[errors]], _ = A.norms([lambda lam: f(t * lam, n)], vecs)
            cell = [r for r in rows if (r["t"], r["n"]) == (t, n)]
            assert cell
            for r in cell:
                want = A.opnorm(lambda lam: f(t * lam, n)) if r["vector_id"] < 0 else (
                    errors[r["vector_id"]])
                assert r["error"] == want, (t, n, r["tag"], r["vector_id"])


def test_first_order_opnorm_slope_euler_laplacian():
    # on a fixed positive-spectrum generator the operator-norm error of
    # Euler's scheme decays like 1/n: dense solves and expm on the tridiagonal
    # matrix, against which the suites' eigenvalue-array fit must agree
    M = laplacian_matrix(32)
    g = cmfun.euler()
    E = scipy.linalg.expm(-M)
    ns = [2 ** k for k in range(2, 10)]
    pts = [(n, np.linalg.norm(dense_scheme(g, M, 1.0, n) - E, 2)) for n in ns]
    fit = fit_order(pts)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)
    assert fit.r_squared > 0.999
    got = rates.spectral_order(g, opcalc.laplacian_dirichlet_1d(32), 1.0, ns, alpha=0.0)
    assert got.used_points == fit.used_points == len(ns)
    assert got.slope == pytest.approx(fit.slope, rel=1e-9)
    assert got.intercept == pytest.approx(fit.intercept, rel=1e-9)


def test_holomorphic_sharp_euler_closed_form_bounds():
    A = opcalc.diag_positive(32)
    vecs = opcalc.test_vectors(A)[:4]
    g = cmfun.euler()
    for n in (4, 32):
        reports = rates.holomorphic_bounds(g, A, [1.0], [n], (0.0, 0.5, 1.0),
                                           vecs)
        assert reports and all(r["pass"] for r in reports)
        sharp = [r for r in reports if r["tag"] == "holo-sharp"]
        assert sharp
        for r in sharp:
            assert r["bound"] <= 2.0 / n + 1.0  # r_{alpha,n} ~ 1/(2n) scale


def test_holo_sharp_rows_of_a_power_scaled_function():
    # euler_pow4 at n is Euler's scheme at 4n: its defect reads Euler's
    # log-defect at 4n through rational_n, so the quadrature of c_alpha[(g_4)_n],
    # which holo's sharp rows take for a g without a closed form, is that of
    # c_alpha[g_{4n}] of Euler's g
    g, g4 = cmfun.euler(), cmfun.euler_pow(4)
    for n in (4, 16):
        got = functionals.c_alpha_quads(g4, n, (0.0, 0.5, 1.0))
        want = functionals.c_alpha_quads(g, 4 * n, (0.0, 0.5, 1.0))
        assert got.keys() == want.keys()
        for alpha, qv in got.items():
            assert qv.converged and want[alpha].converged
            assert qv.value == pytest.approx(want[alpha].value, rel=1e-12, abs=0.0), (n, alpha)


def test_optimality_inconclusive_flag():
    # orders refuses fewer than FIT_POINTS --n values before any work (golden
    # record orders-short-grid), so only points below the roundoff floor leave
    # a fit that short: it is flagged, and its row fails
    fit = fit_order([(4, 1e-3), (8, 5e-4), (16, 0.0), (32, 0.0)])
    assert (fit.flag, fit.used_points) == ("too-few-points", 2)
    assert rates.order_verdict(fit, -1.0) == ("too-few-points", False)


def test_residual_suites_refuse_a_function_without_log_defect():
    # kendall at t = 1e-10 is in B4 but carries no log-defect (its m_32 is past
    # the largest float): the suites that bound the residual refuse it when
    # they admit it, naming themselves and the function, and the defect suites
    # take it
    g = cmfun.kendall(1e-10)
    assert g.log_defect is None and cmfun.check_bk(g, 4)
    for s in (rates.second_order_bounds, rates.holomorphic_second_order):
        with pytest.raises(ValueError, match=rf"suite '{s.name}' needs a function with a "
                                             r"log-defect.*kendall\(t=1e-10\) has none"):
            s.admit(g)
    assert rates.first_order_bounds.admit(g) is g


def test_second_order_fit_needs_finite_second_moment(capsys):
    # g''(0) = inf leaves the residual undefined: a usage error, not an "exact" row
    assert cli.main(["orders", "--scheme", "frac_tail:gamma=0.5", "--generator",
                     "laplacian:d=16", "--n", "4,8,16,32", "--suite", "second"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "frac_tail(gamma=0.5)" in captured.err


# ----------------------------------------------------------------------
# sharpness experiments
# ----------------------------------------------------------------------

def test_euler_scalar_sharpness_limit():
    rows = rates.euler_scalar_sharpness([64, 256, 1024])
    lead = 2.0 * math.exp(-2.0)
    assert all(r["reference"] == pytest.approx(lead) for r in rows)
    assert rows[-1]["scaled"] == pytest.approx(lead, rel=2e-3)
    # n * sup increases towards the limit from below
    n_sups = [r["scaled"] for r in rows]
    assert n_sups[0] < n_sups[1] < n_sups[2] <= lead + 1e-9
    assert [r["n"] * r["value"] for r in rows] == n_sups


@pytest.mark.parametrize("n", [1024, 4096, 65536, 2 ** 20])
def test_euler_scalar_sup_matches_mpmath(n):
    # the maximum of (1+t/n)^{-n} - e^{-t}, where its derivative
    # e^{-t} - (1+t/n)^{-n-1} vanishes, at 40 digits; the sup taken as the
    # difference of the two terms was off by 1.0e-13 relative at n = 1024
    # and 5.3e-11 at 2^20
    with mpmath.workdps(40):
        t = mpmath.findroot(lambda t: mpmath.exp(-t) - (1 + t / n) ** (-n - 1), 2)
        want = float((1 + t / n) ** -n - mpmath.exp(-t))
    [row] = rates.euler_scalar_sharpness([n])
    assert row["value"] == pytest.approx(want, rel=1e-14, abs=0.0)


def _mp_shift_integrals(n):
    # I_{1,n} = -int k(s) nu(ds), k = |s-1|^3/6 up to 2 and (s-1)/2 - 1/3 beyond,
    # and I_{2,n} = -int (s-2)_+^2/2 nu(ds) under nu = Gamma(n, n), at 40 digits.
    # mpmath's quad stops on an absolute error, so each integrand is scaled to
    # its size: I_1 by n^{-3/2}, I_2 (in t = n (s - 2)) by the density at 2
    with mpmath.workdps(40):
        N = mpmath.mpf(n)
        log_c = N * mpmath.log(N) - mpmath.loggamma(N)

        def density(s):
            return mpmath.exp(log_c + (N - 1) * mpmath.log(s) - N * s)

        sd = 1 / mpmath.sqrt(N)
        near = [1 + j * sd for j in (-40, -10, -3, -1, 0, 1, 3, 10, 40) if 0 < 1 + j * sd < 2]
        i1 = (mpmath.quad(lambda s: abs(s - 1) ** 3 / 6 * density(s) / sd ** 3, [0, *near, 2])
              + mpmath.quad(lambda s: ((s - 1) / 2 - mpmath.mpf(1) / 3) * density(s) / sd ** 3,
                            [2, 3, mpmath.inf]))
        scale = density(2) / N ** 3
        i2 = mpmath.quad(lambda t: (t / N) ** 2 / 2 * density(2 + t / N) / N / scale,
                         [0, 1, 4, 16, 64, mpmath.inf])
        return float(-i1 * sd ** 3), float(-i2 * scale)


@pytest.mark.parametrize("n", [2, 16, 1024, 2 ** 20, 2 ** 32])
def test_shift_integrals_match_mpmath(n):
    # both integrals of Euler's second-order density over the Gamma(n, n)
    # measure; through W_n, a difference of incomplete gammas, I_{1,n} was
    # 4.6e-13 relative off at n = 2^20 and 1.7e-13 at 2^32, and I_{2,n}
    # 8e-10 at n = 1024.  I_{2,n} lies at s >= 2, where the exponent
    # (n-1) D(s-1) of the density is about 0.3 n and its rounding moves the
    # density by about n eps relative (2.1e-14 at n = 1024); from n = 2^20
    # on it is below the smallest double
    want = _mp_shift_integrals(n)
    (i1, i2), converged = rates._shift_integrals(n)
    assert converged.all()
    assert i1 == pytest.approx(want[0], rel=1e-14, abs=0.0)
    assert i2 == pytest.approx(want[1], rel=max(1e-14, n * np.finfo(float).eps), abs=0.0)
    [row] = rates.shift_second_order_sharpness([n])
    assert row["value"] == i1 and row["pass"]


def test_shift_second_order_rows():
    # a row passes when |I_{2,n}| <= 2/n^2 under the slack policy
    rows = rates.shift_second_order_sharpness([4, 16, 64])
    for row in rows:
        assert row["pass"]
        assert row["scaled"] == pytest.approx(row["n"] ** 1.5 * abs(row["value"]))
    assert rows[-1]["scaled"] >= rows[-1]["reference"]
    with pytest.raises(ValueError):
        rates.shift_second_order_sharpness([1])


def test_shift_row_passes_only_when_both_integrals_converged(monkeypatch):
    # I_{1,n} and I_{2,n} are the two components of one quadrature: a row
    # whose I_{1,n} or I_{2,n} did not converge fails
    inner = quadrature.integrate
    assert [r["pass"] for r in rates.shift_second_order_sharpness([16])] == [True]
    for component in (0, 1):
        def integrate(f, a, b, **kwargs):
            res = inner(f, a, b, **kwargs)
            assert res.converged.shape == (2,)
            converged = res.converged.copy()
            converged[component] = False
            return res._replace(converged=converged)

        monkeypatch.setattr(quadrature, "integrate", integrate)
        assert [r["pass"] for r in rates.shift_second_order_sharpness([16])] == [False]


def test_shift_I1_keeps_its_limit_at_large_n():
    # n^{3/2} |I_{1,n}| -> 2/(3 sqrt(2 pi)); the peak of the Gamma(n, n)
    # measure at 1 is about n^{-1/2} wide, so the quadrature needs nodes on it
    # at any n, up to the largest n the CLI takes
    limit = 2.0 / (3.0 * math.sqrt(2.0 * math.pi))
    for r in rates.shift_second_order_sharpness([2 ** 28, 2 ** 32, 2 ** 40, 2 ** 53]):
        assert r["scaled"] == pytest.approx(limit, rel=1e-6)
        assert r["pass"]
