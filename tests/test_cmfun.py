"""Completely monotone built-ins: classes, scaling, pointwise invariants."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmapprox import cmfun, quadrature
from cmapprox.measures import PolyExpSegment, PositiveMeasure

from conftest import b2_builtins, euler_power, mp_eval_map


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
# power scaling
# ----------------------------------------------------------------------

def test_power_scale_fixed_point():
    g = cmfun.exponential()
    gn = cmfun.power_scale(g, 7)
    z = np.array([0.2, 1.0, 9.0])
    assert np.allclose(gn(z), np.exp(-z), rtol=1e-13)
    assert gn.moments == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_power_scale_euler_n2():
    g2 = cmfun.power_scale(cmfun.euler(), 2)
    z = 0.7
    assert float(np.atleast_1d(g2(z))[0]) == pytest.approx((1 + z / 2) ** -2, rel=1e-13)
    assert g2.moments[2] == pytest.approx(1.5)
    assert (-1.0) ** 2 * g2.moments[2] == pytest.approx(1.5)  # g''(0) = (-1)^2 m_2


def test_power_scale_spline_second_derivative():
    g4 = cmfun.power_scale(cmfun.spline(), 4)
    assert g4.moments[2] == pytest.approx(13.0 / 12.0, rel=1e-14)


def test_power_scale_rejects():
    with pytest.raises(ValueError):
        cmfun.power_scale(cmfun.euler(), 0)
    with pytest.raises(ValueError):
        cmfun.power_scale(cmfun.from_measure(PositiveMeasure(atoms=((2.0, 1.0),))), 2)


def test_rational_n_reads_the_power_not_the_name():
    # the CLI and the holo suite read rational_n (Euler's closed-form r_{alpha,n}),
    # so it must follow power scaling and survive a rename
    composed = cmfun.power_scale(euler_power(2), 2)  # (1 + z/4)^{-4}
    renamed = euler_power(4)._replace(name="x")
    for g in (composed, renamed):
        assert g.rational_n == 4
    assert cmfun.power_scale(cmfun.spline(), 4).rational_n is None


@pytest.mark.parametrize("N", [4, 16])
@pytest.mark.parametrize("n", [4, 64, 1024, 4096, 16384, 65536])
def test_power_scaled_derivative_by_the_chain_rule(N, n):
    # 1 + g'(1/n) of euler_pow<N>, the factor the nonb2 suite reads, against
    # 40-digit mpmath: g_N'(z) = -(1 + z/N)^{-N-1}, g_N''(z) = (N+1)/N (1 + z/N)^{-N-2};
    # 1 + g' is about (N+1)/(N n), so a few ulp of g' are ~1e-11 of it at n = 65536
    g = cmfun.make_builtin(f"euler_pow{N}")
    with mpmath.workdps(40):
        z = mpmath.mpf(1) / n
        first = float(1 - (1 + z / N) ** (-N - 1))
        second = float((N + 1) * (1 + z / N) ** (-N - 2) / N)
    assert 1.0 + g.derivative(1.0 / n, 1) == pytest.approx(first, rel=1e-10, abs=0.0)
    assert g.derivative(1.0 / n, 2) == pytest.approx(second, rel=1e-14, abs=0.0)


def test_derivative_needs_deriv_real_or_a_measure():
    bare = cmfun.CMFunction(name="bare", evaluate=lambda z: 1.0 / (1.0 + z))
    with pytest.raises(ValueError, match="bare: derivatives at z > 0 need"):
        bare.derivative(0.5, 1)
    with pytest.raises(ValueError, match="euler_pow4: derivatives of orders 1 and 2 only"):
        cmfun.make_builtin("euler_pow4").derivative(0.5, 3)


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


@pytest.mark.parametrize("g", [cmfun.exponential(), cmfun.euler(), cmfun.spline(),
                               cmfun.kendall(0.3), cmfun.kendall(0.5), cmfun.kendall(0.7)],
                         ids=lambda g: g.name)
def test_measure_moments_are_the_stated_moments(g):
    # the kernel at z = 0 forms Euler's k! as an exact product
    for k, want in enumerate(g.moments):
        assert abs(g.measure.moment(k) - want) <= math.ulp(want), k


def test_euler_power_measure_matches_rational_form():
    for n in (2, 8, 32):
        g = euler_power(n)
        for z in (0.3, 2.0, 0.5 + 1.5j):
            assert g.measure.laplace(z) == pytest.approx((1 + z / n) ** -n, rel=1e-11)
    with pytest.raises(ValueError):
        euler_power(65)


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
    assert g.moments == tuple(g.measure.moment(k) for k in range(5))
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


def test_yosida_moments_t1():
    g = cmfun.yosida(1.0)
    assert g.moments[0] == pytest.approx(1.0, abs=1e-14)
    assert g.moments[1] == pytest.approx(1.0, abs=1e-14)
    assert g.moments[2] == pytest.approx(3.0, rel=1e-13)
    assert g.moments[3] == pytest.approx(13.0, rel=1e-13)
    assert g.moments[4] == pytest.approx(73.0, rel=1e-13)


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


# ----------------------------------------------------------------------
# the defect of g_n from g and n
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["exp", "euler", "spline", "kendall:t=0.5", "yosida:t=0.5",
                                  "hille", "chung:a=0.25+0.5+0.25,t=1", "frac_tail:gamma=0.5",
                                  "euler_pow4", "measure"])
def test_defect_with_n_is_that_of_the_power_scaled_function(spec, tmp_path):
    # g.defect(z, n) and g.residual(z, n) are power_scale(g, n)'s, bit for bit,
    # with n a scalar or a column broadcasting against z; the points reach both
    # sides of the |L_n(z)| <= 1 branch and, beyond |z| = n, the direct g_n(z)
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
    kinds = ["defect", "residual"] if cmfun.check_bk(g, 2) else ["defect"]
    for kind in kinds:
        stacked = getattr(g, kind)(z, col)
        assert stacked.shape == (len(ns), z.size)
        for n, row in zip(ns, stacked):
            want = getattr(cmfun.power_scale(g, n), kind)(z)
            if g.log_defect and g.log_defect.coeffs:   # exp's L is an exact 0
                small = np.abs(g.log_defect(z, n=n)) <= 1.0
                assert small.any() and not small.all(), (kind, n)
            assert np.array_equal(getattr(g, kind)(z, n), want, equal_nan=True), (kind, n)
            assert np.array_equal(row, want, equal_nan=True), (kind, n)
