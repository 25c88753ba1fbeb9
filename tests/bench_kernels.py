"""Micro-benchmarks of the quadrature kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_kernels.py --benchmark-only

The file name is outside the default `test_*.py` pattern, so a plain
`pytest` run does not collect it.  The quadrature cases come from the
spline scheme at n = 1024.  The first integrates Delta_{3/2} over [0, 1]
in z; the tanh-sinh map needs no refinement for its z^{1/2} at 0, so it
times the first level of `integrate`: 273 points in 1 call.  The second is the
three-alpha cell of the `functionals` command, c_0, c_{1/2} and c_1 in one
exp-sinh quadrature over [0, inf): 273 integrand points in 1 call.  The frac_tail case
is the evaluation the non-B2 suite makes of g(t lambda/n) on the 256 eigenvalues of `diag_imag:k=256,min=0.1,max=100`
at t = 1, n = 4, which puts points on both sides of the power-law
kernel's series/continued-fraction switch.
The shift case is the `sharpness --which shift` row at n = 2^32: both
integrals over Euler's Gamma(n, n) measure in one quadrature, whose cost
does not grow with n (a density summed as a series once took about
9 sqrt(n) terms per node there).
The build cases make each built-in from its --scheme string, all that its
constructor does: the moments of its measure, m_0..m_32 in one kernel pass
per segment where the log-defect series comes from them (exp, spline,
kendall, chung, frac_tail) and m_0..m_4 beside an exact series; for
yosida:t=30 also its truncated measure series, 91 polynomial-exponential
terms of one rate, as one segment, in about 1.1 ms (one segment per power
took about 80 ms on the same 2-core machine).
The holomorphic case is a 3 t x 4 n grid of the `holo` suite on
`laplacian:d=2048` with Euler's scheme and its closed-form r_{alpha,n}, so
that it times the operator side only: one trip of the vectors through the
DST-I eigenbasis, one evaluation of the defect on the (12, 2048) stack of
cells, and the eigenvalue-array norms.  The family case runs the `second`
suite on the yosida family over a 3 t x 4 n grid on `laplacian:d=128`: a
suite builds each member g_t once per run, one t at a time, so it times
those builds (yosida's measure series) with the operator side of each t.
The generator case builds `laplacian:d=4096`,
its eigenvalues and DST-I basis without a dense matrix.  The start-up case
is the fixed cost of every command: `import cmapprox.cli` in a fresh
interpreter with `PYTHONDONTWRITEBYTECODE=1`, so that `src/` is compiled
again, as the CLI benchmark (`perfbench/run.py`) runs it.
"""

import subprocess
import sys

import pytest

from cmapprox import cmfun, opcalc, quadrature, rates
from cmapprox import functionals as F

from conftest import src_env

N = 1024
ALPHAS = (0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def spline_n():
    """The spline scheme at n = N, the pair (g, n)."""
    return cmfun.spline(), N


def test_bench_integrate_spline_defect(benchmark, spline_n):
    # Delta_{3/2} of the spline power over [0, 1] in z
    g, n = spline_n
    res = benchmark(quadrature.integrate, lambda z: g.defect(z, n) / z ** 1.5,
                    0.0, 1.0, rel_tol=1e-11)
    assert res.converged and res.value > 0.0


def test_bench_c_alpha_quad(benchmark, spline_n):
    values = benchmark(F.c_alpha_quads, *spline_n, ALPHAS)
    assert all(qv.converged for qv in values.values())


def test_bench_frac_tail_eval_at(benchmark):
    g = cmfun.frac_tail(0.5)
    t, n = 1.0, 4
    z = t * opcalc.make_generator("diag_imag:k=256,min=0.1,max=100").eigs / n
    values = benchmark(g, z)
    assert values.shape == (256,)


def test_bench_shift_sharpness(benchmark):
    [row] = benchmark(rates.shift_second_order_sharpness, [2 ** 32])
    assert row["pass"]


@pytest.mark.parametrize("spec", ["exp", "euler", "euler_pow4", "spline", "kendall:t=0.5",
                                  "yosida:t=30", "hille", "chung:a=0.25+0.5+0.25,t=1",
                                  "frac_tail:gamma=0.5"])
def test_bench_build(benchmark, spec):
    # every B2 built-in carries its log-defect
    g = benchmark(cmfun.make_builtin, spec)
    assert cmfun.check_bk(g, 1) and (g.log_defect is None) == spec.startswith("frac_tail")


def test_bench_holomorphic_bounds_grid(benchmark):
    A = opcalc.make_generator("laplacian:d=2048")
    vectors = opcalc.test_vectors(A)
    rows = benchmark(rates.holomorphic_bounds, cmfun.euler(), A, (0.25, 1.0, 4.0),
                     (4, 16, 64, 256), (0.0, 0.5, 1.0), vectors)
    assert len(rows) == 12 * 41 and all(r["pass"] for r in rows)


def test_bench_second_order_family_grid(benchmark):
    A = opcalc.make_generator("laplacian:d=128")
    vectors = opcalc.test_vectors(A)
    rows = benchmark(rates.SUITES["second"], cmfun.make_builtin("yosida"), A, (0.25, 1.0, 4.0),
                     (4, 16, 64, 256), (), vectors)
    assert len(rows) == 12 * 2 * len(vectors) and all(r["scheme"] == "yosida" for r in rows)


def test_bench_make_generator(benchmark):
    A = benchmark(opcalc.make_generator, "laplacian:d=4096")
    assert A.dim == 4096


def test_bench_import_cli(benchmark):
    code = benchmark(subprocess.call, [sys.executable, "-c", "import cmapprox.cli"],
                     env=src_env(PYTHONDONTWRITEBYTECODE="1"))
    assert code == 0
