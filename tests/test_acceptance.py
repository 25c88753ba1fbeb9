"""Acceptance gate: one printed pass/fail line per criterion.

Each test evaluates one end-to-end criterion at its stated tolerance and
prints a single summary line; the assertion mirrors the printed verdict.
"""

from __future__ import annotations

import math

import numpy as np

from cmapprox import cmfun, functionals as F, opcalc, rates
from cmapprox import quadrature

from conftest import (
    b2_builtins,
    diag_imag_matrix,
    diag_pos_matrix,
    mp_derivative_at_zero,
    mp_eval_map,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_c01_euler_digamma_identity():
    g = cmfun.euler()
    worst = 0.0
    for n in range(1, 65):
        for alpha in (0.0, 1.0) + tuple(k / 10.0 for k in range(1, 10)):
            qv = F.c_alpha_quads(g, n, (alpha,))[alpha]
            exact = F.euler_c_alpha_exact(n, alpha)
            worst = max(worst, abs(qv.value - exact))
    _report(1, "Euler digamma/Gamma closed forms vs quadrature", worst <= 1e-8,
            f"max |quad - exact| = {worst:.3e}")


def _scaled_derivatives(g, n):
    """g_n^(k)(0) = (-1)^k m_k, k = 0..4, as the pair (g, n) gives them: the
    measure of g_n has mean 1 and cumulants kappa_2 = 2a, kappa_3 = -6b and
    kappa_4 = 12 d0 - 3 kappa_2^2 (a, b, d0 of g_n); outside B4 only
    m_0 = m_1 = 1."""
    if not cmfun.check_bk(g, 4):
        return [1.0, -1.0]
    k2, k3 = 2.0 * F.a_of(g, n), -6.0 * F.b_of(g, n)
    k4 = 12.0 * F.d0_of(g, n) - 3.0 * k2 ** 2
    m = [1.0, 1.0, 1.0 + k2, 1.0 + 3.0 * k2 + k3, 1.0 + 6.0 * k2 + 4.0 * k3 + 3.0 * k2 ** 2 + k4]
    return [(-1.0) ** k * mk for k, mk in enumerate(m)]


def test_c03_scaled_derivatives_vs_finite_differences():
    evals = mp_eval_map()
    gs = b2_builtins() + [cmfun.frac_tail(0.5)]
    worst_fd = 0.0
    for g in gs:
        mpg = evals[g.name]
        one_sided = g.name.startswith("frac_tail")
        for n in (1, 2, 3, 5, 8):
            def f(z, mpg=mpg, n=n):
                return mpg(z / n) ** n

            for k, closed in enumerate(_scaled_derivatives(g, n)):
                # the heavy tail has no m_2 and is not C^2 at 0 (a z^{1+gamma} term), so its
                # difference quotient converges like h^gamma: take a tiny
                # step, which the high-precision evaluation makes safe
                step = "1e-13" if one_sided else "1e-4"
                fd = mp_derivative_at_zero(f, k, h=step, one_sided=one_sided)
                worst_fd = max(worst_fd, abs(fd - closed) / max(1.0, abs(closed)))
    worst_b = worst_d0 = 0.0
    for g in b2_builtins():
        b1 = F.b_of(g, 1)
        g2, g3, g4 = g.moments[2], -g.moments[3], g.moments[4]
        for n in (1, 2, 3, 5, 8):
            worst_b = max(worst_b, abs(F.b_of(g, n) * n ** 2 - b1))
            d0_pred = (g2 - 1.0) ** 2 / (4.0 * n ** 2) + (
                -6.0 + 12.0 * g2 - 3.0 * g2 ** 2 + 4.0 * g3 + g4) / (12.0 * n ** 3)
            worst_d0 = max(worst_d0, abs(F.d0_of(g, n) - d0_pred))
    ok = worst_fd <= 1e-6 and worst_b <= 1e-10 and worst_d0 <= 1e-10
    _report(3, "power-scale derivative closed forms vs Richardson differences", ok,
            f"fd rel {worst_fd:.2e}, b scaling {worst_b:.2e}, d0 formula {worst_d0:.2e}")


def test_c04_c_alpha_asymptotics():
    n_grid = [4, 8, 16, 32, 64, 128, 256]
    alphas = (0.0, 0.5, 1.0)
    ok = True
    details = []
    for g in (cmfun.euler(), cmfun.spline(), cmfun.hille()):
        # n^2 |c_alpha[g_n] - a[g]/n| over the grid, with the quadrature's flag
        lead = 0.5 * (g.moments[2] - 1.0)
        rows = [{"alpha": alpha, "resid_scaled": n ** 2 * abs(qv.value - lead / n),
                 "flag": qv.flag}
                for n in n_grid
                for alpha, qv in F.c_alpha_quads(g, n, alphas).items()]
        clean = [r for r in rows if not r["flag"]]
        flagged = [r for r in rows if r["flag"]]
        # hille has g(inf) > 0, so c_0 genuinely diverges: those rows must
        # be flagged, and only those
        expect_flags = g.name == "hille"
        ok = ok and all(math.isfinite(r["resid_scaled"]) for r in clean)
        ok = ok and (bool(flagged) == expect_flags)
        ok = ok and all(r["alpha"] == 0.0 for r in flagged)
        const = max(r["resid_scaled"] for r in clean)
        details.append(f"{g.name}: C={const:.4f}")
        if g.name == "euler":
            euler_c0 = max(r["resid_scaled"] for r in clean if r["alpha"] == 0.0)
            ok = ok and euler_c0 <= 1.0 / 12.0 + 1e-6
            details.append(f"euler a=0 C={euler_c0:.6f}<=1/12")
    _report(4, "n^2 residual of c_alpha[g_n] - (g''(0)-1)/(2n) bounded", ok,
            "; ".join(details))


def _first_order_suite_rows():
    A = opcalc.diag_imag(128)
    vectors = opcalc.test_vectors(A)
    schemes = [cmfun.make_builtin("kendall"), cmfun.euler(), cmfun.make_builtin("yosida"),
               cmfun.spline(), cmfun.hille()]
    alphas = (2.0, 1.0, 0.5, 1.5)
    n_grid = [2 ** k for k in range(2, 13)]
    rows = []
    for g in schemes:
        ts = [0.25, 1.0, 4.0]
        if getattr(g, "name", "") == "kendall":
            ts = [0.25, 1.0]  # the Kendall family is defined for t <= 1 only
        rows.extend(rates.first_order_bounds(g, A, ts, n_grid, alphas, vectors))
    return A, vectors, rows


def test_c05_first_order_suite():
    A, vectors, rows = _first_order_suite_rows()
    failed = [r for r in rows if not r.passed]
    # Kendall's alpha=2 bound must be exactly t(1-t)/(2n) ||A^2 x||
    kend = cmfun.make_builtin("kendall")
    t, n = 0.25, 16
    reps = rates.first_order_bounds(kend, A, [t], [n], (2.0,), vectors)
    M = diag_imag_matrix(128)
    A2 = M @ M
    worst = 0.0
    for r in reps:
        ref = t * (1.0 - t) / (2.0 * n) * float(np.linalg.norm(A2 @ vectors[r.vector_id]))
        worst = max(worst, abs(r.bound - ref) / ref)
    ok = not failed and worst <= 1e-12
    _report(5, "first-order bounds on the skew gallery", ok,
            f"{len(rows)} reports, {len(failed)} failed; kendall form dev {worst:.1e}")


def test_c06_heavy_tail_suite():
    A = opcalc.diag_imag(64)
    vectors = opcalc.test_vectors(A)
    ok = True
    details = []
    for gamma in (0.3, 0.5, 0.8):
        g = cmfun.frac_tail(gamma)
        reps = rates.non_b2_bounds(g, A, (0.25, 1.0, 4.0), (16, 256, 4096), (1.0, 0.5), vectors)
        ok = ok and len(reps) == 9 * 2 * len(vectors) and all(r.passed for r in reps)
        # the rate-carrying factor sqrt(1+g'(1/n)) of the alpha=1 bound
        # must scale like n^{-gamma/2}; the remaining factor tends to a
        # constant and the error sup itself decays strictly faster
        pts = [(2 ** k, math.sqrt(1.0 + g.derivative(2.0 ** -k, 1)))
               for k in range(4, 15)]
        fit = rates.fit_order(pts)
        dev = abs(fit.slope + gamma / 2.0)
        ok = ok and dev <= 0.07
        details.append(f"g={gamma}: slope {fit.slope:.3f} (target {-gamma/2:.3f})")
    _report(6, "heavy-tail bounds and the n^{-gamma/2} envelope order", ok,
            "; ".join(details))


def test_c07_second_order_suite():
    A = opcalc.diag_imag(128)
    vectors = opcalc.test_vectors(A)
    ok = True
    for g in (cmfun.euler(), cmfun.spline()):
        reps = rates.second_order_bounds(g, A, (0.25, 1.0, 4.0), (4, 16, 64, 256), (), vectors)
        ok = ok and len(reps) == 12 * 2 * len(vectors) and all(r.passed for r in reps)

    def residual_slope(g, A, M, vecs):
        # normalize per vector by ||A^3 x||, the quantity the bound scales
        # with; otherwise the top-of-spectrum components (where the error
        # saturates) dominate the raw norm and mask the asymptotic order
        A3 = np.linalg.matrix_power(M, 3)
        norms = [float(np.linalg.norm(A3 @ x)) for x in vecs]
        ns = [2 ** k for k in range(2, 13)]
        xs, _ = A.norms(rates._errors(g, [1.0], ns, A.dim, cmfun.CMFunction.residual), vecs)
        residuals = np.vstack(xs)
        pts = []
        for k, errs in zip(range(2, 13), residuals):
            n = 2 ** k
            pts.append((n, max(e / norms[i] for i, e in enumerate(errs))))
        return rates.fit_order(pts).slope

    skew = residual_slope(cmfun.euler(), A, diag_imag_matrix(128), vectors)
    Ah = opcalc.diag_positive(128)
    holo = residual_slope(cmfun.euler(), Ah, diag_pos_matrix(128), opcalc.test_vectors(Ah))
    ok = ok and skew <= -1.4 and holo <= -1.85
    _report(7, "second-order residual bounds and orders", ok,
            f"skew slope {skew:.3f} <= -1.4, holomorphic slope {holo:.3f} <= -1.85")


def test_c08_holomorphic_suite():
    ok = True
    total = failed = 0
    for A in (opcalc.laplacian_dirichlet_1d(128), opcalc.diag_positive(128)):
        vectors = opcalc.test_vectors(A)
        Mc = opcalc.semigroup_constants(A)
        ok = ok and abs(Mc[0] - 1.0) < 1e-15
        ok = ok and abs(Mc[1] - math.exp(-1.0)) < 1e-15
        ok = ok and abs(Mc[2] - 4.0 * math.exp(-2.0)) < 1e-15
        alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
        ts, ns = (0.25, 1.0, 4.0), (4, 16, 64, 256)
        reps = rates.holomorphic_bounds(cmfun.euler(), A, ts, ns, alphas, vectors)
        reps += rates.holomorphic_bounds(cmfun.spline(), A, ts, ns, alphas, vectors)
        total += len(reps)
        failed += sum(not r.passed for r in reps)
    ok = ok and failed == 0
    _report(8, "holomorphic bounds incl. sharp Euler r_{alpha,n}", ok,
            f"{total} reports, {failed} failed")


def test_c09_euler_scalar_sharpness():
    last = rates.euler_scalar_sharpness([2 ** 10, 2 ** 12, 2 ** 14])[-1]
    rel = abs(last["scaled"] - last["reference"]) / last["reference"]
    ok = rel <= 0.01
    _report(9, "n sup_t |(1+t/n)^{-n} - e^{-t}| -> 2/e^2", ok,
            f"n=2^14: n*sup={last['scaled']:.6f}, limit={last['reference']:.6f}, rel {rel:.2%}")


def test_c10_optimality_exponents():
    # ||E_n A^{-alpha}|| on 400 log-spaced moduli of one axis is the scalar sup
    g = cmfun.euler()
    n_grid = [2 ** k for k in range(4, 13)]
    imag = opcalc.make_generator("diag_imag:k=400,min=0.01,max=1e5")
    pos = opcalc.make_generator("diag_pos:k=400,min=0.01,max=1e5")
    cases = [(imag, 0.5, "first"), (imag, 1.0, "first"), (pos, 0.0, "first"),
             (pos, 0.0, "second")]
    ok = True
    details = []
    for A, alpha, suite in cases:
        # the suite's own orders row: its error, fit and expected exponent
        [row] = rates.SUITES[suite].orders(g, A, [1.0], n_grid, [alpha])
        good = row["r_squared"] >= 0.98 and abs(row["slope"] - row["expected_exponent"]) <= 0.1
        ok = ok and good
        details.append(f"{A.name.split(':')[0]}/a={alpha}/{suite}: "
                       f"{row['slope']:.3f} vs {row['expected_exponent']:.2f}")
    _report(10, "lower-bound exponents on dense spectral grids", ok, "; ".join(details))


def test_c11_shift_sharpness():
    rows = rates.shift_second_order_sharpness([4, 16, 64, 256, 512, 1024])
    # a row passes when |I2| <= 2/n^2 under the slack policy and both integrals converged
    i2_ok = all(r["pass"] for r in rows)
    v_last, v_prev = rows[-1]["scaled"], rows[-2]["scaled"]
    target = rows[-1]["reference"]
    i1_ok = v_last >= target and abs(v_last - v_prev) <= 0.05 * v_last
    ok = i2_ok and i1_ok
    _report(11, "shift-semigroup sharpness integrals I1, I2", ok,
            f"|I2| <= 2/n^2 in {sum(r['pass'] for r in rows)} of {len(rows)} rows, "
            f"n^1.5|I1|@2^10={v_last:.4f}>={target:.4f}")


def _bspline(j: int, x: float) -> float:
    """Cardinal B-spline by the two-term recursion; B_0 = indicator [0,1)."""
    if x <= 0.0 or x >= j + 1:
        return 0.0
    if j == 0:
        return 1.0
    return (x / j) * _bspline(j - 1, x) + ((j + 1 - x) / j) * _bspline(j - 1, x - 1.0)


def test_c12_bspline_identity():
    g = cmfun.spline()
    worst = 0.0
    for n in range(1, 9):
        for z in (0.1, 1.0, 10.0):
            # g^n(z) = int_0^n e^{-2zs} B_{n-1}(s) ds (n-fold uniform convolution)
            val = 0.0
            for i in range(n):
                f = lambda s: np.array(
                    [math.exp(-2.0 * z * si) * _bspline(n - 1, si) for si in np.atleast_1d(s)])
                val += quadrature.integrate(f, float(i), float(i + 1)).value
            worst = max(worst, abs(val - float(g(z)) ** n))
    _report(12, "B-spline recursion reproduces the spline scheme powers",
            worst <= 1e-10, f"max dev {worst:.2e}")
