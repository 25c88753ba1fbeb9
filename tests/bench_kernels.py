"""Micro-benchmarks of the quadrature kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_kernels.py --benchmark-only

The file name is outside the default `test_*.py` pattern, so a plain
`pytest` run does not collect it.  The quadrature cases are the costliest
quadrature of the `functionals` command: c_1 of the spline scheme at
n = 1024, its head [0, 1] and the whole integral, whose 52 root panels
(head breakpoints and dyadic tail) take 3,120 integrand points in one
call.  The frac_tail case is the evaluation the non-B2 suite makes of
g(t lambda/n) on the 256 eigenvalues of `diag_imag:k=256,min=0.1,max=100`
at t = 1, n = 4, which puts points on both sides of the power-law
kernel's series/continued-fraction switch.
The holomorphic case is one (t, n) cell of the `holo` suite on
`laplacian:d=2048` with Euler's scheme and its closed-form r_{alpha,n}, so
that it times the operator side only: the DST-I eigenbasis and the
eigenvalue-array norms.  The generator case builds `laplacian:d=4096`,
its eigenvalues and DST-I basis without a dense matrix.
"""

import pytest

from cmapprox import cmfun, opcalc, quadrature, rates
from cmapprox import functionals as F

N = 1024
ALPHA = 1.0


@pytest.fixture(scope="module")
def spline_n():
    return cmfun.power_scale(cmfun.spline(), N)


def test_bench_integrate_spline_defect(benchmark, spline_n):
    # the head [0, 1] of c_1[g_1024]: Delta_2 of the spline power
    value = benchmark(quadrature.integrate, lambda z: F.delta(spline_n, 1.0 + ALPHA, z),
                      0.0, 1.0, rel_tol=1e-11)
    assert value > 0.0


def test_bench_c_alpha_quad(benchmark, spline_n):
    # clear the per-process cache so that every round runs the quadrature
    def run():
        F._c_alpha_quadrature.cache_clear()
        return F.c_alpha_quad(spline_n, ALPHA)

    qv = benchmark(run)
    assert qv.converged


def test_bench_frac_tail_eval_at(benchmark):
    g = cmfun.frac_tail(0.5)
    t, n = 1.0, 4
    z = t * opcalc.make_generator("diag_imag:k=256,min=0.1,max=100").eigs / n
    values = benchmark(g.eval_at, z)
    assert values.shape == (256,)


def test_bench_holomorphic_bounds_cell(benchmark):
    A = opcalc.make_generator("laplacian:d=2048")
    vectors = opcalc.test_vectors(A)
    rows = benchmark(rates.holomorphic_bounds, cmfun.euler(), A, 1.0, 16, (0.0, 0.5, 1.0),
                     vectors)
    assert len(rows) == 41 and all(r.passed for r in rows)


def test_bench_make_generator(benchmark):
    A = benchmark(opcalc.make_generator, "laplacian:d=4096")
    assert A.dim == 4096
