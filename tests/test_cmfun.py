"""Completely monotone built-ins: classes, scaling, pointwise invariants."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmapprox import cmfun, quadrature
from cmapprox import functionals as F
from cmapprox.measures import PolyExpSegment, PositiveMeasure

from conftest import b2_builtins, mp_eval_map


# ----------------------------------------------------------------------
# construction and classes
# ----------------------------------------------------------------------

def test_from_measure_dirac_is_exponential():
    g = cmfun.from_measure(PositiveMeasure(atoms=((1.0, 1.0),)))
    assert all(cmfun.check_bk(g, k) for k in (1, 2, 3, 4))
    z = np.array([0.0, 0.5, 3.0])
    assert np.allclose(g(z), np.exp(-z), atol=1e-14)


def test_from_measure_exponential_density():
    g = cmfun.from_measure(PositiveMeasure(
        segments=(PolyExpSegment(0.0, math.inf, (1.0,), 1.0),)))
    assert float(np.atleast_1d(g(1.0))[0]) == pytest.approx(0.5, rel=1e-12)
    assert g.moments[:2] == (1.0, 1.0)


def test_from_measure_kendall_atoms():
    nu = PositiveMeasure(atoms=((0.0, 0.5), (2.0, 0.5)))
    g = cmfun.from_measure(nu)
    z = 1.3
    assert float(np.atleast_1d(g(z))[0]) == pytest.approx(0.5 + 0.5 * math.exp(-2 * z), rel=1e-13)
    assert g.moments[2] == pytest.approx(2.0)
    assert g.limit_at_inf == 0.5


def test_class_tags():
    assert cmfun.check_bk(cmfun.euler(), 4)
    ft = cmfun.frac_tail(0.5)
    assert cmfun.check_bk(ft, 1) and not cmfun.check_bk(ft, 2)
    assert all(cmfun.check_bk(cmfun.exponential(), k) for k in (1, 2, 3, 4))


def test_eval_imag():
    assert cmfun.exponential()(1j * math.pi) == pytest.approx(-1.0, abs=1e-14)
    assert cmfun.euler()(1j * 1.0) == pytest.approx((1 - 1j) / 2, abs=1e-14)
    assert cmfun.kendall(0.5)(1j * math.pi) == pytest.approx(1.0, abs=1e-12)
    for g in b2_builtins():
        assert abs(g(1j * 7.3)) <= 1.0 + 1e-12


# ----------------------------------------------------------------------
# power scaling: g_n = g(./n)^n is the pair (g, n), and euler_pow<N> is
# Euler's g_N as a built-in of its own
# ----------------------------------------------------------------------

def test_power_scale_fixed_point():
    # exp is the fixed point of the scaling: its g_n is e^{-z} and its
    # log-defect an exact 0 at every n
    g = cmfun.exponential()
    z = np.array([0.2, 1.0, 9.0])
    assert not np.any(g.defect(z, 7)) and not np.any(g.residual(z, 7))
    assert F.a_of(g, 7) == F.b_of(g, 7) == F.d0_of(g, 7) == 0.0
    assert g.moments == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_power_scale_euler_n2():
    g2 = cmfun.make_builtin("euler_pow2")
    z = 0.7
    assert float(np.atleast_1d(g2(z))[0]) == pytest.approx((1 + z / 2) ** -2, rel=1e-13)
    assert g2.moments[2] == pytest.approx(1.5)
    assert (-1.0) ** 2 * g2.moments[2] == pytest.approx(1.5)  # g''(0) = (-1)^2 m_2
    # euler_pow2 is Euler's g at n = 2
    zs = np.array([1e-3, 0.7, 5.0, 40.0])
    assert np.allclose(g2.defect(zs), cmfun.euler().defect(zs, 2), rtol=1e-14, atol=0.0)


def test_power_scale_spline_second_derivative():
    # g_4''(0) = 1 + (g''(0) - 1)/4 = 13/12 for the spline: a[g_4] = 1/24
    assert F.a_of(cmfun.spline(), 4) == pytest.approx(1.0 / 24.0, rel=1e-14)


def test_power_scale_rejects():
    not_b1 = cmfun.from_measure(PositiveMeasure(atoms=((2.0, 1.0),)))
    with pytest.raises(ValueError, match="power scaling requires a B1 function"):
        F.table(not_b1, [2], [0.5])
    for N in (0, cmfun.EULER_POW_MAX + 1):
        with pytest.raises(ValueError, match=f"--scheme 'euler_pow{N}': N = {N} is outside"):
            cmfun.make_builtin(f"euler_pow{N}")
    assert cmfun.make_builtin(f"euler_pow{cmfun.EULER_POW_MAX}").rational_n == cmfun.EULER_POW_MAX


@pytest.mark.parametrize("N", [2, 4, 16])
def test_euler_pow_moments_are_those_of_g_n(N):
    # the raw moments of Euler's g_N from its derivatives at 0: m_2 = 1 + 1/N,
    # m_3 = m_2 (1 + 2/N), m_4 = m_3 (1 + 3/N), exact in binary at these N
    m2 = 1.0 + 1.0 / N
    m3 = m2 * (1.0 + 2.0 / N)
    assert cmfun.euler_pow(N).moments == (1.0, 1.0, m2, m3, m3 * (1.0 + 3.0 / N))


def test_euler_pow_limit_is_where_h_leaves_1e_12():
    # every first-order bound reads h = m_2 - 1 = 1/N: up to EULER_POW_MAX the
    # Gamma measure holds it within 1e-12 relative, one N more it does not
    def h_error(m2, N):
        return abs(m2 - 1.0 - 1.0 / N) * N

    top = cmfun.EULER_POW_MAX
    assert max(h_error(cmfun.euler_pow(N).moments[2], N) for N in range(1, top + 1)) <= 1e-12
    past = PositiveMeasure(segments=(PolyExpSegment(
        0.0, math.inf, (0.0,) * top + ((top + 1) ** (top + 1) / math.factorial(top),),
        float(top + 1)),))
    assert h_error(past.partial_moment((2,), 0.0, math.inf)[0], top + 1) > 1e-12


def test_rational_n_reads_the_power_not_the_name():
    # the CLI and the holo suite read rational_n (Euler's closed-form r_{alpha,n}),
    # so it must survive a rename
    assert cmfun.make_builtin("euler_pow4")._replace(name="x").rational_n == 4
    assert cmfun.spline().rational_n is None


@pytest.mark.parametrize("N", [4, 16])
@pytest.mark.parametrize("n", [4, 64, 1024, 4096, 16384, 65536])
def test_power_scaled_derivative_by_the_chain_rule(N, n):
    # 1 + g'(1/n) of euler_pow<N>, the factor the nonb2 suite reads, from its
    # Gamma measure against the chain rule in 40-digit mpmath:
    # g_N'(z) = -(1 + z/N)^{-N-1}, g_N''(z) = (N+1)/N (1 + z/N)^{-N-2};
    # 1 + g' is about (N+1)/(N n), so a few ulp of g' are ~1e-11 of it at n = 65536
    g = cmfun.make_builtin(f"euler_pow{N}")
    with mpmath.workdps(40):
        z = mpmath.mpf(1) / n
        first = float(1 - (1 + z / N) ** (-N - 1))
        second = float((N + 1) * (1 + z / N) ** (-N - 2) / N)
    assert 1.0 + g.derivative(1.0 / n, 1) == pytest.approx(first, rel=1e-10, abs=0.0)
    assert g.derivative(1.0 / n, 2) == pytest.approx(second, rel=1e-14, abs=0.0)


def test_derivative_needs_a_measure():
    # every CMFunction carries its measure: one without is not built
    with pytest.raises(TypeError, match="measure"):
        cmfun.CMFunction(name="bare", evaluate=lambda z: 1.0 / (1.0 + z))
    # every order comes from the measure: the third derivative of (1 + z/4)^{-4}
    # is -(5/4)(6/4) (1 + z/4)^{-7}
    assert cmfun.make_builtin("euler_pow4").derivative(0.5, 3) == pytest.approx(
        -1.875 * 1.125 ** -7, rel=1e-14, abs=0.0)


_DERIVATIVE_POINTS = (1e-3, 1.0 / 64.0, 0.5, 4.0, 10.0)


@pytest.mark.parametrize("g", b2_builtins() + [cmfun.frac_tail(0.5)], ids=lambda g: g.name)
def test_derivatives_from_the_measure_match_mpmath(g, monkeypatch):
    # g'(z) and g''(z) are the closed-form transforms int (-s)^k e^{-zs} nu(ds),
    # against 40-digit derivatives of the closed forms; the power-law kernel
    # of frac_tail is good to about 2e-13, every other kernel to a few ulp
    def no_quadrature(*args, **kwargs):
        raise AssertionError("derivative reached a quadrature")

    monkeypatch.setattr(quadrature, "integrate", no_quadrature)
    rel = 1e-12 if g.name.startswith("frac_tail") else 1e-13
    f = mp_eval_map()[g.name]
    for z in _DERIVATIVE_POINTS:
        for order in (1, 2):
            with mpmath.workdps(40):
                want = float(mpmath.diff(f, mpmath.mpf(z), order))
            assert g.derivative(z, order) == pytest.approx(want, rel=rel, abs=0.0), (z, order)


def test_euler_power_measure_matches_rational_form():
    for n in (2, 8, 32, cmfun.EULER_POW_MAX):
        g = cmfun.euler_pow(n)
        for z in (0.3, 2.0, 0.5 + 1.5j):
            assert g.measure.laplace(z) == pytest.approx((1 + z / n) ** -n, rel=1e-11)


# ----------------------------------------------------------------------
# pointwise invariants on a grid
# ----------------------------------------------------------------------

GRID = np.logspace(-6, 6, 40)


def test_b1_pointwise_bounds():
    for g in b2_builtins() + [cmfun.frac_tail(0.3)]:
        vals = np.atleast_1d(g(GRID))
        assert np.all(vals >= -1e-15) and np.all(vals <= 1.0 + 1e-12)
        diff = vals - np.exp(-GRID)
        assert np.all(diff >= -1e-12)
        assert np.all(diff <= np.minimum(1.0, GRID) + 1e-12)
        for z in (1e-3, 0.5, 4.0):
            d1 = g.derivative(z, 1)
            assert -1.0 - 1e-10 <= d1 <= 1e-12


def test_scalar_convergence_bounds():
    for g in b2_builtins() + [cmfun.frac_tail(0.5)]:
        h = g.moments[2] - 1.0
        for t in (0.1, 1.0, 5.0):
            for k in range(0, 11):
                n = 2 ** k
                gn_t = float(np.atleast_1d(g(t / n))[0]) ** n
                diff = gn_t - math.exp(-t)
                assert diff >= -1e-12
                assert diff <= t * (1.0 + g.derivative(t / n, 1)) + 1e-10
                if math.isfinite(h):
                    assert diff <= h * t * t / (2.0 * n) + 1e-10


def _flush(x):
    """Components below 1e-12 become 0: the mpmath reference would need
    hundreds of digits there to beat the cancellation in spline."""
    return 0.0 if abs(x) < 1e-12 else x


# small points reach both sides of spline's series cutoff |z| = 1e-8
_SMALL = st.one_of(st.just(0.0), st.floats(1e-12, 1e-4))
_COMPLEX_POINTS = st.lists(st.one_of(
    st.builds(complex, st.floats(0.0, 30.0).map(_flush), st.floats(-30.0, 30.0).map(_flush)),
    st.builds(complex, _SMALL, _SMALL),
    st.builds(complex, _SMALL, _SMALL.map(lambda y: -y)),
), min_size=1, max_size=6)
_REAL_POINTS = st.lists(st.one_of(st.floats(0.0, 30.0).map(_flush), _SMALL),
                        min_size=1, max_size=6)


def _mp_reference(name, z):
    # enough digits to survive the cancellation in (1 - e^{-2z})/(2z) at tiny z
    digits = 40 + (int(-math.log10(abs(z))) if 0 < abs(z) < 1 else 0)
    with mpmath.workdps(digits):
        return complex(mp_eval_map()[name](mpmath.mpmathify(z)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(zs=_COMPLEX_POINTS, xs=_REAL_POINTS)
def test_vectorized_evaluators_match_scalar_reference(zs, xs):
    for g in b2_builtins() + [cmfun.frac_tail(0.5)]:
        vals = g(np.array(zs))
        for z, v in zip(zs, vals):
            ref = _mp_reference(g.name, z)
            assert abs(v - ref) <= 1e-12 * abs(ref) + 1e-15, (g.name, z)
        real_vals = g(np.array(xs))
        assert not np.iscomplexobj(real_vals)
        for x, v in zip(xs, real_vals):
            ref = _mp_reference(g.name, x).real
            assert abs(v - ref) <= 1e-12 * abs(ref) + 1e-15, (g.name, x)


def test_laplace_consistency():
    zs = np.logspace(-4, 2, 15)
    for g in b2_builtins():
        direct = np.atleast_1d(g(zs))
        via_measure = np.array([g.measure.laplace(complex(z)).real for z in zs])
        assert np.max(np.abs(direct - via_measure)) <= 1e-10


def test_frac_tail_derivative_and_tail_flag():
    g = cmfun.frac_tail(0.5)
    assert not g.tail_integrable
    # 1 + g'(1/n) ~ c n^{-gamma}
    for n in (10, 1000):
        d = 1.0 + g.derivative(1.0 / n, 1)
        assert 0.0 < d < 3.0 * n ** -0.5


@pytest.mark.parametrize("gamma", [1e-9, 0.01, 0.25, 0.5, 0.75, 0.99])
def test_frac_tail_moments_come_from_its_measure(gamma):
    # m_0 = m_1 = 1 from the closed-form moments of the atom and the power law,
    # and m_2 = inf; the weights take the gamma of the rounded exponent 2 + gamma,
    # without which m_1 was 8e-8 off at gamma = 1e-9
    g = cmfun.frac_tail(gamma)
    assert cmfun.check_bk(g, 1) and not cmfun.check_bk(g, 2)
    assert g.moments == tuple(g.measure.partial_moment(range(5), 0.0, math.inf))
    assert g.moments[:2] == pytest.approx((1.0, 1.0), rel=0.0, abs=1e-14)


def test_residual_needs_a_log_defect():
    # every B2 function the package builds carries L; without it the
    # second-order remainder is a ValueError naming g, and the defect is the
    # direct difference
    g = cmfun.euler()._replace(name="euler-without-L", log_defect=None)
    z = np.array([0.5, 2.0])
    with pytest.raises(ValueError, match="^euler-without-L: the second-order residual"):
        g.residual(z, 4)
    assert np.array_equal(g.defect(z, 4), (1.0 / (1.0 + z / 4)) ** 4 - np.exp(-z))


@pytest.mark.parametrize("spec", ["exp", "euler", "euler_pow4", "spline", "kendall:t=0.5",
                                  "kendall:t=1", "yosida:t=2", "hille",
                                  "chung:a=0.25+0.5+0.25,t=1", "frac_tail:gamma=0.5"])
def test_defect_and_residual_at_infinity_are_the_limit(spec):
    # at z = inf both are g_n(inf) = g(inf)^n, with no warning (an error under
    # the test settings), whether L is the zero series (exp, kendall:t=1), a
    # closed form, or absent (frac_tail, which has no residual); the finite
    # point beside it is the value it has alone
    g = cmfun.make_builtin(spec)
    z = np.array([1.0, np.inf])
    for n in (1, 4):
        for error in [g.defect] + [g.residual] * (g.log_defect is not None):
            at_one, at_inf = error(z, n)
            assert at_inf == g.limit_at_inf ** n and at_one == error(z[:1], n)[0], (error, n)


def test_yosida_moments_t1():
    g = cmfun.yosida(1.0)
    assert g.moments[0] == pytest.approx(1.0, abs=1e-14)
    assert g.moments[1] == pytest.approx(1.0, abs=1e-14)
    assert g.moments[2] == pytest.approx(3.0, rel=1e-13)
    assert g.moments[3] == pytest.approx(13.0, rel=1e-13)
    assert g.moments[4] == pytest.approx(73.0, rel=1e-13)


# each built-in spec and the closed form of its k-th moment m_k
_CLOSED_MOMENTS = {
    "exp": lambda k: 1.0,
    "euler": math.factorial,
    "spline": lambda k: 2.0 ** k / (k + 1),
    **{f"kendall:t={t}": (lambda k, t=t: t ** (1 - k) if k else 1.0) for t in (0.25, 0.7, 0.9, 1)},
    "hille": (1, 1, 2, 5, 15).__getitem__,      # Bell numbers, the moments of Poisson(1)
    # from the cumulants kappa_1 = 1, kappa_k = k! t^{1-k} of L(w) = w^2/(t + w)
    **{f"yosida:t={t}": (lambda k, t=t: (1, 1, 1 + 2 / t, 1 + 6 / t + 6 / t ** 2,
                                         1 + 12 / t + 36 / t ** 2 + 24 / t ** 3)[k])
       for t in (0.25, 1, 30, 100, 200)},
    # sum_j a_j Gamma(j, t), a_0 at 0: m_k = sum_j a_j j(j+1)...(j+k-1) / t^k
    **{f"chung:a={'+'.join(map(str, a))},t={t}": (lambda k, a=a, t=t: sum(
        aj * math.prod(range(j, j + k)) for j, aj in enumerate(a)) / t ** k)
       for a, t in (((0.25, 0.5, 0.25), 1), ((0, 0.5, 0.5), 1.5))},
    **{f"frac_tail:gamma={gamma}": (lambda k: 1.0 if k < 2 else math.inf) for gamma in (0.3, 0.5)},
}


@pytest.mark.parametrize("spec", _CLOSED_MOMENTS)
def test_builtin_moments_and_limit_come_from_its_measure(spec):
    # a built-in is its measure and a closed-form evaluator: the measure's
    # transform is g on and off the imaginary axis, its moments are the
    # closed forms (yosida's m_0 and m_1 to MOMENT_TOL, for the truncation of
    # its series) and its atom at 0 is g(inf)
    g = cmfun.make_builtin(spec)
    for z in (np.array([0.0, 0.01, 0.5, 3.0, 20.0]), np.array([0.1j, 1j, 7.3j, 0.5 + 2j, 3 + 10j])):
        np.testing.assert_allclose(g.measure.laplace(z), g(z), rtol=1e-12, atol=0.0)
    for k, mk in enumerate(g.moments):
        assert mk == pytest.approx(_CLOSED_MOMENTS[spec](k), rel=cmfun.MOMENT_TOL, abs=0.0), k
    assert g.limit_at_inf == pytest.approx(float(g(1e12)), rel=0.0, abs=1e-11)


@pytest.mark.parametrize("spec", ["spline", "kendall:t=0.3", "chung:a=0.25+0.5+0.25,t=1"])
def test_log_defect_series_is_that_of_its_measure(spec):
    # a built-in without an exact series takes the cumulant series of its
    # measure, as from_measure does: the same coefficients to the last bit
    g = cmfun.make_builtin(spec)
    want = cmfun.from_measure(g.measure).log_defect.coeffs
    assert [c.hex() for c in g.log_defect.coeffs] == [c.hex() for c in want]


def test_zero_variance_gives_the_zero_log_defect():
    # c_2 = 0 exactly for delta_1, whichever constructor reads its moments
    delta_1 = cmfun.from_measure(PositiveMeasure(atoms=((1.0, 1.0),)))
    for g in (cmfun.exponential(), cmfun.kendall(1.0), delta_1):
        assert g.log_defect is cmfun._ZERO_DEFECT, g.name


def test_overflowing_moments_leave_the_mass_alone():
    # the density 1e-9 e^{-1e-9 s} on [0, inf): m_30 = 30!/1e-9^30 overflows,
    # and m_0 = 1 still comes out finite
    tiny = PolyExpSegment(0.0, math.inf, (1e-9,), 1e-9)
    g = cmfun.from_measure(PositiveMeasure(segments=(tiny,)))
    assert g.moments[0] == pytest.approx(1.0, rel=1e-15) and g.log_defect is None
    assert math.isinf(tiny.partial_moment((30,), 0.0, math.inf)[0])


def test_an_overflowing_atom_moment_is_inf():
    # kendall at t = 1e-10 has an atom at 1e10: m_32 = 1e-10 * 1e320 is past the
    # largest float, so it is +inf, as a divergent segment's moment is, and the
    # function is built with m_0..m_4 and without a log-defect series
    g = cmfun.kendall(1e-10)
    assert g.measure.partial_moment((4, 32), 0.0, math.inf).tolist() == [
        pytest.approx(1e30, rel=1e-15), math.inf]
    assert all(map(math.isfinite, g.moments)) and g.log_defect is None


@pytest.mark.parametrize("g, rate", [(cmfun.yosida(30.0), 30.0),
                                     (cmfun.chung((0.25, 0.5, 0.25), 1.0), 1.0),
                                     (cmfun.chung((0.0, 0.5, 0.5), 1.5), 1.5)])
def test_one_rate_is_one_segment(g, rate):
    # the polynomial-exponential density sum_m c_m s^{m-1} e^{-ts} is one
    # segment, with c_m the coefficient of s^{m-1}
    [seg] = g.measure.segments
    assert seg.rate == rate
    assert all(c >= 0.0 for c in seg.coeffs) and seg.coeffs[-1] > 0.0


def test_chung_validation():
    with pytest.raises(ValueError):
        cmfun.chung((0.5, 0.6), 0.6)          # masses do not sum to 1
    with pytest.raises(ValueError):
        cmfun.chung((0.5, 0.5), 0.75)         # mean mismatch
    with pytest.raises(ValueError):
        cmfun.chung((-0.1, 1.1), 1.1)
    g = cmfun.chung((0.25, 0.5, 0.25), 1.0)
    assert cmfun.check_bk(g, 1)


def test_kendall_domain():
    with pytest.raises(ValueError):
        cmfun.kendall(0.0)
    with pytest.raises(ValueError):
        cmfun.kendall(1.5)
    g = cmfun.kendall(1.0)  # the pure atom at 1: exp(-z)
    assert float(np.atleast_1d(g(2.0))[0]) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_make_builtin_parsing(tmp_path):
    assert cmfun.make_builtin("euler").name == "euler"
    assert cmfun.make_builtin("kendall:t=0.5").moments[2] == pytest.approx(2.0)
    fam = cmfun.make_builtin("yosida")
    assert isinstance(fam, cmfun.ScaledFamily)
    g = cmfun.make_builtin("chung:a=0.25+0.5+0.25,t=1")
    assert cmfun.check_bk(g, 4)
    desc = {"atoms": [[1.0, 0.5]], "segments": [{"a": 0, "b": 2, "poly": [0.25], "exp_rate": 0}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(desc))
    gm = cmfun.make_builtin(f"measure:{path}")
    assert gm.moments[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cmfun.make_builtin("nope")


def test_a_name_identifies_its_function():
    # a built-in's name gives each of its values in full, so that two functions
    # of one name are one function: the two chung have g''(0) = 2 and 3
    names = {"kendall:t=0.123456789": "kendall(t=0.123456789)",
             "kendall:t=0.5": "kendall(t=0.5)",
             "yosida:t=1e-7": "yosida(t=1e-07)",
             "chung:a=0+1,t=1": "chung(a=0+1,t=1)",
             "chung:a=0.5+0+0.5,t=1": "chung(a=0.5+0+0.5,t=1)",
             "frac_tail:gamma=0.5": "frac_tail(gamma=0.5)"}
    assert {spec: cmfun.make_builtin(spec).name for spec in names} == names
    assert cmfun.make_builtin("chung:a=0+1,t=1").moments[2] == pytest.approx(2.0)
    assert cmfun.make_builtin("chung:a=0.5+0+0.5,t=1").moments[2] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# the defect of g_n from g and n
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["exp", "euler", "spline", "kendall:t=0.5", "yosida:t=0.5",
                                  "hille", "chung:a=0.25+0.5+0.25,t=1", "frac_tail:gamma=0.5",
                                  "euler_pow4", "measure"])
def test_defect_with_n_is_that_of_the_power_scaled_function(spec, tmp_path):
    # g.defect(z, n) and g.residual(z, n) are those of g_n = g(./n)^n: with n a
    # column broadcasting against z, or a full (cells x points) array, each row
    # is the call with that n alone, bit for bit; the points reach both sides
    # of the |L_m(z)| <= 1 branch, m = Nn with N = rational_n (1 for a g not of
    # Euler type), and beyond it and |z| = m the defect is the direct
    # g(z/n)^n - e^{-z}, bit for bit
    if spec == "measure":
        bump = {"segments": [{"a": 0, "b": 2, "poly": [0.0, 0.0, 3.75, -3.75, 0.9375]}]}
        path = tmp_path / "bump.json"
        path.write_text(json.dumps(bump))
        spec = f"measure:{path}"
    g = cmfun.make_builtin(spec)
    mods = np.concatenate([[0.0], np.logspace(-3, 4, 57)])
    z = np.concatenate([mods * np.exp(1j * phi) for phi in (0.0, 0.7, 1.5, math.pi / 2,
                                                             -math.pi / 2)])
    ns = (1, 2, 4, 256)
    col = np.array(ns)[:, None]
    full = np.repeat(col, z.size, axis=1)
    kinds = ["defect", "residual"] if cmfun.check_bk(g, 2) else ["defect"]
    for kind in kinds:
        stacked = getattr(g, kind)(z, col)
        assert stacked.shape == (len(ns), z.size)
        assert np.array_equal(getattr(g, kind)(z, full), stacked, equal_nan=True), kind
        for n, row in zip(ns, stacked):
            want = getattr(g, kind)(z, n)
            assert np.array_equal(row, want, equal_nan=True), (kind, n)
    for n in ns:
        m = (g.rational_n or 1) * n
        direct = np.abs(z) > (m if g.log_defect else 0)
        if g.log_defect:
            small = np.abs(g.log_defect(z, n=m)) <= 1.0
            direct &= ~small
            if g.log_defect.coeffs:   # exp's L is an exact 0, so small is everywhere
                assert small.any() and not small.all() and direct.any(), n
        with np.errstate(divide="ignore", invalid="ignore"):
            power = g(z[direct] / n) ** n
        assert np.array_equal(g.defect(z, n)[direct], power - np.exp(-z[direct]),
                              equal_nan=True), n
