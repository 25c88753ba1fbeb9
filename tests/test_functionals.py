"""Rate functionals: the log-defect series, c_alpha quadrature against the
measure and closed forms, special functions."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmapprox import cmfun, quadrature
from cmapprox import functionals as F

from conftest import (L_scaled_bound, L_upper_bound, b2_builtins, c_alpha_measure, euler_power,
                      kernel_integral, mp_eval_map)

EULER_GAMMA = 0.5772156649015329


# ----------------------------------------------------------------------
# defect
# ----------------------------------------------------------------------

def test_defect_values():
    assert cmfun.exponential().defect(np.array([2.0]))[0] == 0.0
    assert cmfun.euler().defect(np.array([1.0]))[0] == pytest.approx(0.5 - math.exp(-1.0),
                                                                     rel=1e-13)
    # nonnegative on the positive axis, and so is Delta_alpha = defect / z^alpha
    for g in b2_builtins():
        for alpha in (0.0, 1.0, 2.0):
            z = np.array([5e-4, 9.9e-4, 1.1e-3, 0.5, 10.0])
            vals = g.defect(z) / z ** alpha
            assert np.all(vals >= -1e-13)


# the degree-4 bump (15/16) s^2 (2 - s)^2 on [0, 2], in B1 with g''(0) = 8/7
_BUMP = (0.0, 0.0, 3.75, -3.75, 0.9375)


def _mp_bump(z):
    # int_0^2 s^m e^{-zs} ds = gamma(m+1, 2z)/z^{m+1}
    return sum(c * mpmath.gammainc(m + 1, 0, 2 * z) / z ** (m + 1)
               for m, c in enumerate(_BUMP) if c)


# (function, 80-digit g, exact k2 = g''(0) - 1, ulp of the residual's leading
# term allowed) for every built-in that carries a log-defect L, whose series
# coefficients are exact to rounding, and for two from_measure functions,
# whose coefficients come from rounded raw moments: the bump's c_3, 0 in
# exact arithmetic, comes out 6e-16 against c_2 = 1/14, which leaves
# |c_3/c_2| |w| <= 64 ulp of the leading term below the series radius
_MP = mp_eval_map()
_WITH_L = [(g, _MP[g.name], k2, 0) for g, k2 in (
    (cmfun.euler(), 1), (cmfun.spline(), Fraction(1, 3)), (cmfun.kendall(0.5), 1),
    (cmfun.yosida(1.0), 2), (cmfun.hille(), 1), (cmfun.chung((0.25, 0.5, 0.25), 1.0), 1.5))]
_WITH_L += [
    (cmfun.from_measure(cmfun.PositiveMeasure(
        segments=(cmfun.PolyExpSegment(0.0, math.inf, (1.0,), 1.0),))), _MP["euler"], 1, 64),
    (cmfun.from_measure(cmfun.PositiveMeasure(
        segments=(cmfun.PolyExpSegment(0.0, 2.0, _BUMP),))), _mp_bump, Fraction(1, 7), 64),
]
_MODULI = st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e)
_Z = st.one_of(
    st.builds(lambda r, s: complex(0.0, s * r), _MODULI, st.sampled_from([1.0, -1.0])),
    st.builds(complex, _MODULI, st.just(0.0)),                              # positive axis
    st.builds(lambda r, th: r * cmath.exp(1j * th), _MODULI, st.floats(-1.5, 1.5)),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(k=st.integers(0, len(_WITH_L) - 1), n=st.integers(1, 2 ** 16),
       zs=st.lists(_Z, min_size=1, max_size=8))
def test_defect_and_residual_match_mpmath(k, n, zs):
    # g_n(z) - e^{-z} and g_n(z) - e^{-z} - k2/(2n) z^2 e^{-z} against 80 digits,
    # within 1e-12 relative.  Allowed on top: where |L_n(z)| > 1, the direct
    # difference of g_n(z) and e^{-z}, 4 ulp of them times 1 + |z| (the
    # exponent of g_n carries |z| ulp), which matters only near the zeros of
    # the defect; for the residual of a from_measure function, the ulp of its
    # leading term listed above.  Below the smallest normal double nothing is
    # relative.
    g, mp_g, k2, lead_ulp = _WITH_L[k]
    gn = cmfun.power_scale(g, n)
    z = np.array(zs)
    got_d, got_r = gn.defect(z), gn.residual(z)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    k2 = Fraction(k2)
    with mpmath.workdps(80):
        for zi, d, r in zip(zs, got_d, got_r):
            zm = mpmath.mpc(zi)
            gz, ez = mp_g(zm / n) ** n, mpmath.exp(-zm)
            lead = mpmath.mpf(k2.numerator) / k2.denominator / (2 * n) * zm ** 2 * ez
            direct = abs(n * (mpmath.log(mp_g(zm / n)) + zm / n)) > 1
            terms = 4 * eps * (1 + abs(zi)) * float(abs(gz) + abs(ez) + abs(lead)) if direct else 0.0
            want_d, want_r = complex(gz - ez), complex(gz - ez - lead)
            assert abs(d - want_d) <= 1e-12 * abs(want_d) + terms + tiny, (g.name, n, zi)
            assert abs(r - want_r) <= (1e-12 * abs(want_r) + lead_ulp * eps * float(abs(lead))
                                       + terms + tiny), (g.name, n, zi)


def test_zero_log_defect_is_exact():
    # exp, kendall:t=1 and the measure delta_1 are e^{-z}: L = 0, so defect and
    # residual are exact zeros
    z = np.array([1e-8, 0.5, 30.0, 2.0j, 1e3 * cmath.exp(0.7j)])
    delta_1 = cmfun.from_measure(cmfun.PositiveMeasure(atoms=((1.0, 1.0),)))
    for g in (cmfun.exponential(), cmfun.kendall(1.0), delta_1):
        for n in (1, 7, 2 ** 16):
            gn = cmfun.power_scale(g, n)
            assert not np.any(gn.defect(z)) and not np.any(gn.residual(z))


# ----------------------------------------------------------------------
# L
# ----------------------------------------------------------------------

def test_functional_L_values():
    assert F.functional_L(cmfun.exponential()) == pytest.approx(0.0, abs=1e-15)
    assert F.functional_L(cmfun.euler()) == pytest.approx(math.exp(-1.0), rel=1e-13)
    assert F.functional_L(cmfun.spline()) == pytest.approx(0.25, rel=1e-13)
    with pytest.raises(F.RequiresMeasureError):
        F.functional_L(cmfun.power_scale(cmfun.spline(), 3))


def test_L_upper_bound_dominates():
    for g in (cmfun.euler(), cmfun.spline(), cmfun.yosida(1.0)):
        bound, flag = L_upper_bound(g)
        assert flag == "ok"
        assert bound >= F.functional_L(g)
    # g identically 1 (measure delta_0) degenerates the denominator
    g1 = cmfun.from_measure(cmfun.PositiveMeasure(atoms=((0.0, 1.0),)))
    bound, flag = L_upper_bound(g1)
    assert flag == "degenerate" and math.isinf(bound)


def test_L_scaled_bound_dominates_euler_exact():
    g = cmfun.euler()
    for n in (1, 4, 16, 64):
        assert L_scaled_bound(g, n) >= F.euler_power_L(n)


def test_euler_power_L_matches_measure_route():
    for n in (2, 8, 32):
        assert F.euler_power_L(n) == pytest.approx(
            F.functional_L(euler_power(n)), abs=1e-12)


def test_euler_power_L_matches_mpmath():
    # L[g_n] = n^n e^{-n}/n!; the tolerance was fixed at 1e-15 relative up front
    with mpmath.workdps(50):
        for n in (*range(1, 41), 1024, 2 ** 16, 10 ** 6):
            want = mpmath.mpf(n) ** n * mpmath.exp(-n) / mpmath.factorial(n)
            assert F.euler_power_L(n) == pytest.approx(float(want), rel=1e-15, abs=0.0)


def test_bernoulli_numbers_are_exact():
    assert len(F._B) == 13
    for k, b in enumerate(F._B):
        p, q = mpmath.bernfrac(k)
        assert b == float(Fraction(int(p), int(q)))


# ----------------------------------------------------------------------
# c_alpha
# ----------------------------------------------------------------------

def test_c_alpha_euler_anchors():
    g = cmfun.euler()
    assert F.c_alpha_quads(g, (0.0,))[0.0].value == pytest.approx(EULER_GAMMA, abs=1e-10)
    assert F.c_alpha_quads(g, (1.0,))[1.0].value == pytest.approx(1.0 - EULER_GAMMA, abs=1e-10)
    assert F.euler_c_alpha_exact(1, 0.5) == pytest.approx(4.0 - 2.0 * math.sqrt(math.pi),
                                                          rel=1e-13)
    assert F.c_alpha_quads(cmfun.exponential(), (0.5,))[0.5].value == pytest.approx(0.0, abs=1e-13)


def test_c_alpha_routes_agree():
    for g in (cmfun.euler(), cmfun.spline(), cmfun.kendall(0.5)):
        # kendall has an atom at 0 (g(inf) = 1/2), so c_0 diverges there
        alphas = (0.3, 1.0) if g.limit_at_inf > 0 else (0.0, 0.3, 1.0)
        for alpha in alphas:
            qv = F.c_alpha_quads(g, (alpha,))[alpha]
            assert qv.converged
            assert qv.value == pytest.approx(c_alpha_measure(g, alpha), rel=1e-8)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(atoms=st.lists(st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 1.0)), min_size=1,
                      max_size=3),
       zero=st.one_of(st.just(0.0), st.floats(0.05, 0.5)),
       coeffs=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=1,
                       max_size=3).filter(any),
       rate=st.floats(0.0, 2.0), a=st.floats(0.0, 1.0),
       width=st.one_of(st.just(math.inf), st.floats(0.5, 4.0)))
def test_c_alpha_quads_match_the_measure_route(atoms, zero, coeffs, rate, a, width):
    # a random B1 measure: 1 to 3 atoms, sometimes one at 0 (g(inf) > 0), and
    # a polynomial-exponential segment, scaled to mass 1 and mean 1.  Weights
    # and coefficients stay above 0.05: a segment of mass 1e-8 beside an atom
    # at 1 leaves a variance of 1e-7, which from_measure's cumulants, taken
    # from the raw moments, hold to only about 1e-8 (c_alpha then reports
    # unconverged)
    if math.isinf(width):
        rate += 0.5   # an unbounded segment needs a positive rate
    nu = cmfun.PositiveMeasure(
        atoms=tuple(atoms) + (((0.0, zero),) if zero else ()),
        segments=(cmfun.PolyExpSegment(a, a + width, tuple(coeffs), rate),))
    mass = nu.moment(0)
    mean = nu.moment(1) / mass
    scaled = tuple(c * mean ** (j + 1) / mass for j, c in enumerate(coeffs))
    nu = cmfun.PositiveMeasure(
        atoms=tuple((loc / mean, w / mass) for loc, w in nu.atoms),
        segments=(cmfun.PolyExpSegment(a / mean, (a + width) / mean, scaled, rate * mean),))
    g = cmfun.from_measure(nu)
    for alpha, qv in F.c_alpha_quads(g, (0.25, 0.5, 1.0)).items():
        assert qv.converged
        assert qv.value == pytest.approx(c_alpha_measure(g, alpha), rel=1e-9)


def test_c_alpha_convexity_in_alpha():
    for g in (cmfun.euler(), cmfun.spline()):
        c = {alpha: qv.value for alpha, qv in F.c_alpha_quads(g, (0.0, 0.25, 0.5, 0.75, 1.0)).items()}
        for alpha in (0.25, 0.5, 0.75):
            assert c[alpha] <= (1 - alpha) * c[0.0] + alpha * c[1.0] + 1e-12


@pytest.mark.parametrize("n", [1, 4, 1024, 65536])
def test_euler_exact_against_mpmath(n):
    # 50-digit reference; the tolerance was fixed at 1e-12 relative up front
    with mpmath.workdps(50):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = mpmath.mpf(alpha)
            if alpha == 0.0:
                want = mpmath.log(n) - mpmath.digamma(n)
            elif alpha == 1.0:
                want = mpmath.digamma(n + 1) - mpmath.log(n)
            else:
                log_ratio = mpmath.loggamma(n + a) - a * mpmath.log(n) - mpmath.loggamma(n)
                want = -mpmath.expm1(log_ratio) / (a * (1 - a))
            assert F.euler_c_alpha_exact(n, alpha) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("n", [4 ** k for k in range(7)])
@pytest.mark.parametrize("g", [cmfun.euler(), cmfun.from_measure(cmfun.PositiveMeasure(
    segments=(cmfun.PolyExpSegment(0.0, math.inf, (1.0,), 1.0),)))], ids=["euler", "measure"])
def test_c_alpha_quadrature_matches_euler_closed_form(g, n):
    # the quadrature of the cancellation-free defect of g_n against the closed
    # form, for Euler's g and for the Laplace transform of its measure e^{-s} ds
    for alpha in (0.0, 0.5, 1.0):
        qv = F.c_alpha_quads(cmfun.power_scale(g, n), (alpha,))[alpha]
        assert qv.converged
        assert qv.value == pytest.approx(F.euler_c_alpha_exact(n, alpha), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("n", [4 ** k for k in range(7)] + [2 ** 40, 2 ** 53])
def test_c_alpha_quadrature_interior_alphas(n):
    # the exp-sinh rule takes the z^{1-alpha} of the integrand at 0 as it is,
    # for every alpha of one quadrature
    gn = cmfun.power_scale(cmfun.euler(), n)
    alphas = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    for alpha, qv in F.c_alpha_quads(gn, alphas).items():
        assert qv.converged
        assert qv.value == pytest.approx(F.euler_c_alpha_exact(n, alpha), rel=1e-13, abs=0.0)


def test_c_alpha_three_alphas_share_one_quadrature(monkeypatch):
    # the spline at n = 1024: one semi-infinite quadrature for alphas 0, 0.5
    # and 1, in a few integrand calls
    gn = cmfun.power_scale(cmfun.spline(), 1024)
    points = []
    inner = quadrature.integrate

    def counted(f, *args, **kwargs):
        def g(x):
            points.append(x.size)
            return f(x)
        return inner(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counted)
    values = F.c_alpha_quads(gn, (1.0, 0.0, 0.5, 0.0))
    assert list(values) == [0.0, 0.5, 1.0]
    assert len(points) <= 6 and sum(points) <= 6000
    assert all(qv.converged for qv in values.values())
    # c_0 >= c_alpha >= c_1 and each near a[g_n] = (1/3)/(2n)
    c = [qv.value for qv in values.values()]
    assert c[0] > c[1] > c[2]
    assert c == pytest.approx([1.0 / 6144.0] * 3, rel=1e-3)


def test_a_of_power_reads_the_log_defect():
    # g_n''(0) = 1 + (g''(0) - 1)/n cancels in (g_n''(0) - 1)/2; c_2/n does not
    for n in (1024, 65536):
        gn = cmfun.power_scale(cmfun.spline(), n)
        assert F.a_of(gn) == pytest.approx(float(Fraction(1, 6 * n)), rel=1e-15, abs=0.0)
    assert F.a_of(cmfun.exponential()) == 0.0


def test_euler_exact_envelopes():
    for n in (1, 2, 7, 33, 64):
        c0 = F.euler_c_alpha_exact(n, 0.0)
        c1 = F.euler_c_alpha_exact(n, 1.0)
        half = 0.5 / n
        twelfth = 1.0 / (12.0 * n * n)
        assert half - twelfth - 1e-15 <= c1 <= half <= c0 <= half + twelfth + 1e-15
        for alpha in (0.1, 0.25, 0.4):
            assert F.euler_c_alpha_exact(n, alpha) <= half + (1 - 2 * alpha) * twelfth + 1e-15
        for alpha in (0.6, 0.8, 0.95):
            assert F.euler_c_alpha_exact(n, alpha) <= half + 1e-12


def test_c_alpha_divergence_flags():
    hille = cmfun.hille()  # g(inf) = 1/e > 0, so c_0 diverges
    assert math.isinf(c_alpha_measure(hille, 0.0))
    qv = F.c_alpha_quads(hille, (0.0,))[0.0]
    assert not qv.converged and qv.flag == "tail_divergent"
    assert F.c_alpha_quads(hille, (0.5,))[0.5].converged
    qv = F.c_alpha_quads(cmfun.power_scale(cmfun.hille(), 2), (0.0,))[0.0]
    assert not qv.converged and qv.flag == "tail_divergent"


def test_c_alpha_without_log_defect_is_flagged():
    # frac_tail carries no log-defect: its direct difference g(z) - e^{-z} is
    # roundoff at small z, so no quadrature is run and the value is nan
    for gn in (cmfun.frac_tail(0.5), cmfun.power_scale(cmfun.frac_tail(0.5), 4)):
        for alpha, qv in F.c_alpha_quads(gn, (0.0, 0.5, 1.0)).items():
            assert math.isnan(qv.value) and not qv.converged and qv.flag == "no_log_defect"


# ----------------------------------------------------------------------
# b, d0, d1
# ----------------------------------------------------------------------

def test_b_d0_d1_closed_values():
    e = cmfun.exponential()
    assert F.b_of(e) == pytest.approx(0.0, abs=1e-14)
    assert F.d0_of(e) == pytest.approx(0.0, abs=1e-14)
    assert F.d1_of(e, F.c_alpha_quads(e, (0, 1))) == pytest.approx(0.0, abs=1e-10)
    g = cmfun.euler()
    assert F.b_of(g) == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert F.d0_of(g) == pytest.approx(0.75, rel=1e-14)
    for n in (2, 5, 11):
        assert F.b_of(cmfun.power_scale(g, n)) == pytest.approx(-1.0 / (3.0 * n * n),
                                                                rel=1e-12)
    assert cmfun.kendall(0.5).moments[4] == pytest.approx(8.0)


def test_b_d0_routes_agree():
    # the log-defect series against the measure: b = int (1-tau)^3/6 nu(dtau),
    # d0 = int (1-tau)^4/12 nu(dtau)
    for g in b2_builtins():
        assert F.b_of(g) == pytest.approx(
            kernel_integral(g.measure, lambda tau: (1.0 - tau) ** 3 / 6.0), abs=1e-8)
        assert F.d0_of(g) == pytest.approx(
            kernel_integral(g.measure, lambda tau: (1.0 - tau) ** 4 / 12.0), abs=1e-8)


@pytest.mark.parametrize("n", [1, 1024, 65536])
def test_b_d0_of_power_are_exact(n):
    # closed forms: Euler b = -1/(3n^2), d0 = 1/(4n^2) + 1/(2n^3); spline
    # b = 0, d0 = 1/(36n^2) - 1/(90n^3).  The moment formula for d0 cancels
    # O(1) moments down to O(1/n^2) and missed the spline's by 1.4e-10 at n = 1024
    cases = [(cmfun.euler(), Fraction(-1, 3 * n * n), Fraction(1, 4 * n * n) + Fraction(1, 2 * n ** 3)),
             (cmfun.spline(), Fraction(0), Fraction(1, 36 * n * n) - Fraction(1, 90 * n ** 3))]
    for g, b, d0 in cases:
        gn = cmfun.power_scale(g, n)
        assert F.b_of(gn) == pytest.approx(float(b), rel=1e-13, abs=0.0), g.name
        assert F.d0_of(gn) == pytest.approx(float(d0), rel=1e-13, abs=0.0), g.name


def test_b_requires_class():
    ft = cmfun.frac_tail(0.5)
    with pytest.raises(ValueError):
        F.b_of(ft)
    with pytest.raises(ValueError):
        F.a_of(ft)


def test_functionals_need_the_log_defect():
    # a B4 function without a log-defect: a, b, d0 and d1 raise, naming it
    g = cmfun.euler()._replace(name="euler-without-L", log_defect=None)
    d1_of = lambda g: F.d1_of(g, F.c_alpha_quads(g, (0, 1)))
    for functional in (F.a_of, F.b_of, F.d0_of, d1_of):
        with pytest.raises(ValueError, match="euler-without-L"):
            functional(g)


def test_scaled_b_d0_inequalities():
    for g in b2_builtins():
        cap = g.moments[4] - 1.0
        for n in (1, 2, 4, 8):
            gn = cmfun.power_scale(g, n)
            assert abs(F.b_of(gn)) <= cap / n ** 2 + 1e-12
            d0 = F.d0_of(gn)
            assert -1e-12 <= d0 <= cap / n ** 2 + 1e-12


def test_d1_scaling_euler():
    g = cmfun.euler()
    vals = []
    for n in (4, 8, 16):
        gn = euler_power(n)
        d1 = F.d1_of(gn, F.c_alpha_quads(gn, (0, 1)))
        assert d1 >= -1e-12
        vals.append(d1 * n * n)
    # d1[g_n] <= C n^{-2}: the scaled sequence stays bounded
    assert max(vals) <= 4.0 * min(vals) + 1.0


def test_moment_chain_b4():
    for g in b2_builtins():
        m2, m3, m4 = g.moments[2], g.moments[3], g.moments[4]
        assert 1.0 - 1e-12 <= m2 <= math.sqrt(m4) + 1e-12
        assert abs(m3) <= math.sqrt(m2 * m4) + 1e-12


# ----------------------------------------------------------------------
# integral identities
# ----------------------------------------------------------------------

def test_c0_plus_c1_equals_sg_integral():
    for g in (cmfun.euler(), cmfun.spline()):
        lhs = F.c_alpha_quads(g, (0.0,))[0.0].value + F.c_alpha_quads(g, (1.0,))[1.0].value

        def sg(z):
            z = np.asarray(z, dtype=float)
            gp = np.array([g.derivative(float(zz), 1) for zz in np.atleast_1d(z)])
            return (np.atleast_1d(g(z)) + gp) / z

        eps = 1e-6
        head = quadrature.integrate(sg, eps, 40.0, rel_tol=1e-10).value
        tail = quadrature.integrate(sg, 40.0, math.inf).value
        # (g + g')/z -> m2 - 1 as z -> 0; account for the clipped [0, eps]
        origin = (g.moments[2] - 1.0) * eps
        assert lhs == pytest.approx(head + tail + origin, rel=1e-6)


def test_g_plus_gprime_envelope():
    for g in b2_builtins():
        h = g.moments[2] - 1.0
        for z in np.logspace(-3, 1, 12):
            s = float(np.atleast_1d(g(z))[0]) + g.derivative(float(z), 1)
            assert s >= -1e-11
            assert s <= h * z + 1e-10


def test_power_integrability_euler():
    # g^{k+1}(z) <= k ||g^k||_L1 |g'(z)| with k = 2: for 1/(1+z) this is
    # (1+z)^{-3} <= 2 * 1 * (1+z)^{-2}
    g = cmfun.euler()
    norm_g2 = quadrature.integrate(lambda z: np.atleast_1d(g(z)) ** 2, 0.0, math.inf).value
    assert norm_g2 == pytest.approx(1.0, rel=1e-10)
    for z in np.logspace(-2, 2, 9):
        assert float(np.atleast_1d(g(z))[0]) ** 3 <= 2.0 * norm_g2 * abs(g.derivative(float(z), 1)) + 1e-14


def test_interpolation_sup_bound():
    # the transform-mass bound ||Delta_alpha|| <= 8 L^alpha dominates the
    # boundary sup of |Delta_alpha|; assert that consequence on a grid
    for g in (cmfun.euler(), cmfun.kendall(0.5)):
        L = F.functional_L(g)
        for alpha in (0.25, 0.5, 0.75):
            cap = 8.0 * L ** alpha
            for z in np.logspace(-2, 2, 12):
                assert abs(g.defect(np.array([z]))[0] / z ** alpha) <= cap
            for s in np.logspace(-1, 2, 8):
                iz = 1j * float(s)
                val = (g(iz) - np.exp(-iz)) / iz ** alpha
                assert abs(val) <= cap


def test_c_alpha_of_exponential_powers_is_zero():
    for n in (2, 8):
        for qv in F.c_alpha_quads(cmfun.power_scale(cmfun.exponential(), n), (0.0, 1.0)).values():
            assert abs(qv.value) <= 1e-10 and n ** 2 * abs(qv.value) <= 1e-8


@pytest.mark.parametrize("g", [cmfun.hille(), cmfun.kendall(0.5), cmfun.yosida(1.0)])
def test_d1_diverges_when_g_has_an_atom_at_zero(g):
    # g(inf) > 0: c_0 diverges, and d1 raises instead of returning a value,
    # for g itself and for g_n
    for n in (1, 2):
        with pytest.raises(F.DivergentError):
            gn = cmfun.power_scale(g, n)
            F.d1_of(gn, F.c_alpha_quads(gn, (0, 1)))
