"""Verification harness: order fits, slack policy, bound suites, sharpness."""

import csv
import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from cmapprox import cli, cmfun, opcalc, rates
from cmapprox.rates import (
    BoundReport,
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
    # values at the noise floor relative to the max are dropped
    fit = fit_order([(2, 1.0), (4, 1e-17), (8, 1e-18), (16, 1e-19)])
    assert fit.flag == "too-few-points"


def test_spectral_order_floor_follows_the_semigroup_scale():
    # e^{-z} without its log-defect takes the direct difference, so its
    # weighted defect is roundoff at every n, spread over a decade: against
    # the largest point it looks like a rate, against ||e^{-tA} A^{-alpha}||
    # it is exact
    A = opcalc.laplacian_dirichlet_1d(16)
    g = dataclasses.replace(cmfun.exponential(), name="exp-direct", log_defect=None)
    ns, weight = (4, 8, 16, 32), 1.0 / A.eigs
    pts = [(n, rates._opnorm(rates._defect(g, A, 1.0, n) * weight)) for n in ns]
    assert fit_order(pts).used_points == 4
    fit = rates.spectral_order(g, A, 1.0, ns, alpha=1.0)
    assert fit.flag == "exact" and fit.used_points == 0
    # exp itself carries L = 0, and its defect is an exact zero
    assert not np.any(rates._defect(cmfun.exponential(), A, 1.0, 4))
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
    mk = lambda err, bound: BoundReport("g", "A", 1.0, 2, 1.0, 0, err, bound, "t")
    assert mk(1.0, 1.0).passed
    assert mk(1.0 + 5e-10, 1.0).passed          # inside relative slack
    assert not mk(1.0 + 1e-8, 1.0).passed       # outside
    assert mk(5e-14, 0.0).passed                # inside absolute slack
    assert not mk(1e-12, 0.0).passed
    row = mk(0.5, 1.0).row()
    assert row["pass"] is True and row["slack"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# bound suites on small generators
# ----------------------------------------------------------------------

def test_first_order_exponential_zero_error():
    A = opcalc.diag_imag(16)
    vecs = opcalc.test_vectors(A, count=4)
    reports = first_order_bounds(cmfun.exponential(), A, 1.0, 4,
                                 (2.0, 1.0, 0.5), vecs)
    for r in reports:
        assert r.error <= 1e-12 and r.passed


def test_first_order_requires_b2():
    A = opcalc.diag_imag(8)
    vecs = opcalc.test_vectors(A, count=2)
    with pytest.raises(ValueError):
        first_order_bounds(cmfun.frac_tail(0.5), A, 1.0, 4, (1.0,), vecs)


def test_first_order_kendall_alpha2_is_exact_on_diagonal():
    # kendall at parameter t has g_t''(0) - 1 = t(1-t)/... : the alpha = 2
    # bound reduces to t(1-t)/(2n) ||A^2 x|| on unitary diagonal generators,
    # with A^2 the square of the dense diagonal matrix
    fam = cmfun.make_builtin("kendall")
    A = opcalc.diag_imag(32)
    vecs = opcalc.test_vectors(A, count=4)
    tt, n = 0.5, 8
    gt = fam.at(tt)
    h = gt.moments[2] - 1.0
    reports = first_order_bounds(fam, A, tt, n, (2.0,), vecs)
    M = diag_imag_matrix(32)
    for r, x in zip(reports, vecs):
        want = 0.5 * h * tt ** 2 / n * float(np.linalg.norm(M @ (M @ x)))
        assert r.bound == pytest.approx(want, rel=1e-12)
        assert r.passed


def test_second_order_exponential_zero_residual():
    A = opcalc.diag_positive(16)
    vecs = opcalc.test_vectors(A, count=4)
    for r in second_order_bounds(cmfun.exponential(), A, 1.0, 4, (), vecs):
        assert r.error <= 1e-10 and r.passed


def test_second_order_requires_b4():
    A = opcalc.diag_positive(8)
    vecs = opcalc.test_vectors(A, count=2)
    with pytest.raises(ValueError):
        second_order_bounds(cmfun.frac_tail(0.5), A, 1.0, 4, (), vecs)


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
    vecs = opcalc.test_vectors(A, count=4)
    g = cmfun.euler()
    for n in (4, 32):
        reports = rates.holomorphic_bounds(g, A, 1.0, n, (0.0, 0.5, 1.0),
                                           vecs)
        assert reports and all(r.passed for r in reports)
        sharp = [r for r in reports if r.tag == "holo-sharp"]
        assert sharp
        for r in sharp:
            assert r.bound <= 2.0 / n + 1.0  # r_{alpha,n} ~ 1/(2n) scale


def test_optimality_inconclusive_flag(tmp_path):
    # one point cannot support a fit: the row fails and orders exits 1
    out = tmp_path / "o.csv"
    assert cli.main(["orders", "--scheme", "euler", "--generator", "diag_pos:k=400",
                     "--n", "4", "--out", str(out)]) == 1
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    assert row["flag"] == "too-few-points" and row["pass"] == "false"


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
    res = rates.euler_scalar_sharpness([64, 256, 1024])
    lead = 2.0 * math.exp(-2.0)
    assert res["limit"] == pytest.approx(lead)
    last = res["rows"][-1]
    assert last["n_sup"] == pytest.approx(lead, rel=2e-3)
    # the scalar sup of |(1+t/n)^{-n} - e^{-t}| sits near t = 2
    assert last["t_star"] == pytest.approx(2.0, abs=0.05)
    # n * sup increases towards the limit from below
    n_sups = [r["n_sup"] for r in res["rows"]]
    assert n_sups[0] < n_sups[1] < n_sups[2] <= lead + 1e-9


@pytest.mark.parametrize("n, tau", [(64, 2.0), (64, 3.0), (1024, 1.2), (1024, 2.0),
                                    (16384, 1.05), (16384, 1.2), (65536, 1.02), (65536, 1.05)])
def test_w_density_above_one_from_the_upper_tails(n, tau):
    # W_n(tau) = Q(n+1, n tau) - tau Q(n, n tau) for tau > 1, against 150 digits;
    # forming Q as 1 - P lost up to 9e-5 of W here, or all of it (W = 0)
    with mpmath.workdps(150):
        x = n * mpmath.mpf(tau)
        want = float(mpmath.gammainc(n + 1, a=x, regularized=True)
                     - mpmath.mpf(tau) * mpmath.gammainc(n, a=x, regularized=True))
    assert float(rates._W_density(n, tau)) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_shift_second_order_rows():
    res = rates.shift_second_order_sharpness([4, 16, 64])
    for row in res["rows"]:
        assert abs(row["I2"]) <= row["I2_bound"] * (1.0 + 1e-9) + 1e-13
        assert row["I1_scaled"] == pytest.approx(row["n"] ** 1.5 * abs(row["I1"]))
    assert res["rows"][-1]["I1_scaled"] >= res["target"]
    with pytest.raises(ValueError):
        rates.shift_second_order_sharpness([1])
