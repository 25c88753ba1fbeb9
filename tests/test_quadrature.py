"""Double-exponential quadrature and closed-form polynomial-exponential integrals."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmapprox import polyexp, quadrature


def counted(f, sizes):
    """f, recording the number of points of each call in sizes."""
    def g(x):
        sizes.append(x.size)
        return f(x)
    return g


def test_integrate_polynomial_exact():
    assert quadrature.integrate(lambda x: x ** 3, 0.0, 2.0).value == pytest.approx(4.0, rel=1e-13)
    assert quadrature.integrate(lambda x: np.ones_like(x), 1.0, 1.0) == (0.0, True)


def test_integrate_oscillatory():
    val = quadrature.integrate(lambda x: np.sin(10.0 * x), 0.0, math.pi).value
    assert val == pytest.approx((1.0 - math.cos(10.0 * math.pi)) / 10.0, abs=1e-12)


def test_integrate_batches_many_panels():
    # sin(2000 x) over [0, 10] cut into 1000 panels: each call holds the
    # nodes of every panel, and one level resolves them all
    sizes = []
    edges = np.linspace(0.0, 10.0, 1001)
    res = quadrature.integrate(counted(lambda x: np.sin(2000.0 * x), sizes), edges[:-1], edges[1:])
    assert res.converged and res.value.shape == (1000,)
    assert res.value.sum() == pytest.approx((1.0 - math.cos(20000.0)) / 2000.0, abs=1e-12)
    assert sizes == [273 * 1000]


def test_integrate_returns_at_max_depth():
    # what the rule cannot resolve is reported, after the step has halved
    # from H_FIRST to H_LAST: every node of the first level in one call, then
    # the odd nodes of each smaller step in one call each
    levels = [273, 272, 544, 1088, 2176, 4352]
    assert quadrature.H_FIRST / quadrature.H_LAST == 2 ** (len(levels) - 1)
    for f, a, b in ((lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0),   # a jump
                    (lambda x: np.sin(2000.0 * x), 0.0, 10.0),              # 3,000 periods
                    (lambda x: 1.0 / (1.0 + x), 0.0, math.inf)):            # diverges
        sizes = []
        res = quadrature.integrate(counted(f, sizes), a, b)
        assert not res.converged
        assert sizes == levels
    # the jump is still integrated to about 1e-3
    res = quadrature.integrate(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0)
    assert abs(res.value - 2.0 / 3.0) <= 1e-3


@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.integers(0, 6), c=st.floats(0.0, 2.0), a=st.floats(0.0, 3.0),
       width=st.floats(0.01, 5.0))
def test_integrate_monomial_exp_property(m, c, a, width):
    # int_a^b s^m e^{-cs} ds, the moment of the density e^{-cs}; c may be
    # subnormal, where 1/c overflows
    b = a + width
    [want] = polyexp.polyexp_moment((1.0,), c, a, b, (m,))
    got = quadrature.integrate(lambda s: s ** m * np.exp(-c * s), a, b)
    assert got.converged
    assert got.value == pytest.approx(want, rel=1e-11)


def test_integrate_semi_infinite_gaussian():
    res = quadrature.integrate(lambda x: np.exp(-x * x), 0.0, math.inf)
    assert res.converged
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-11)


def test_integrate_semi_infinite_heavy_tail():
    res = quadrature.integrate(lambda x: (1.0 + x) ** -2.5, 0.0, math.inf)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 1.5, rel=1e-9)


def test_integrate_semi_infinite_divergent_flags():
    # the terms at the far end of the t-range do not fall below the tolerance
    res = quadrature.integrate(lambda x: 1.0 / (1.0 + x), 0.0, math.inf)
    assert not res.converged


def test_integrate_vector_integrand():
    # k components, each to its own relative tolerance: x^2, e^{-x} and a
    # component a factor 1e-12 smaller, on one interval and on panels
    def f(x):
        return np.array([x ** 2, np.exp(-x), 1e-12 * np.sin(x)])

    got = quadrature.integrate(f, 0.0, 2.0)
    want = [8.0 / 3.0, 1.0 - math.exp(-2.0), 1e-12 * (1.0 - math.cos(2.0))]
    assert got.value.shape == got.converged.shape == (3,) and got.converged.all()
    assert got.value == pytest.approx(want, rel=1e-14)
    got = quadrature.integrate(f, [0.0, 1.0], [1.0, 2.0]).value
    assert got.shape == (3, 2)
    assert got[0] == pytest.approx([1.0 / 3.0, 7.0 / 3.0], rel=1e-14)
    assert got[2] == pytest.approx([1e-12 * (1.0 - math.cos(1.0)),
                                    1e-12 * (math.cos(1.0) - math.cos(2.0))], rel=1e-14)
    # one component is a scalar integrand with a leading axis of length 1
    assert quadrature.integrate(lambda x: x[None] ** 3, 0.0, 2.0).value == pytest.approx([4.0])


def test_double_exponential_rule_takes_end_singularities():
    # z^{1-alpha} at 0, with z^{-1/2} for a stronger singularity, and
    # z^{1-alpha} e^{-z} out to inf, the shapes of the c_alpha integrands,
    # need no substitution: the first level holds them to roundoff, in one
    # integrand call
    for alpha in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        for f, b, want in ((lambda z: z ** (1.0 - alpha), 1.0, 1.0 / (2.0 - alpha)),
                           (lambda z: z ** -0.5, 1.0, 2.0),
                           (lambda z: z ** (1.0 - alpha) * np.exp(-z), math.inf,
                            math.gamma(2.0 - alpha))):
            sizes = []
            res = quadrature.integrate(counted(f, sizes), 0.0, b)
            assert res.converged and sizes == [273]
            assert res.value == pytest.approx(want, rel=2e-15)


def test_integrate_panels_in_one_pass():
    # arrays of edges give the integral over each panel, shaped like the edges
    got = quadrature.integrate(lambda x: x ** 2, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]).value
    assert got == pytest.approx([1.0 / 3.0, 7.0 / 3.0, 19.0 / 3.0], rel=1e-14)
    got = quadrature.integrate(lambda x: x, np.zeros((1, 2)), np.ones((1, 2))).value
    assert got.shape == (1, 2)


def test_semi_infinite_is_one_integrate_call():
    # a converged integral over [a, inf) takes every node of the first level
    # in one integrand call, whatever its decay; panels, finite and not, join
    # the same call
    for f, a, want in ((lambda z: np.exp(-z), 0.0, 1.0),
                       (lambda z: z ** -2.0, 1.0, 1.0),
                       (lambda z: (1.0 + z) ** -2.5, 0.0, 1.0 / 1.5)):
        sizes = []
        res = quadrature.integrate(counted(f, sizes), a, math.inf)
        assert res.converged and sizes == [273]
        assert res.value == pytest.approx(want, rel=1e-14)
    sizes = []
    res = quadrature.integrate(counted(lambda z: np.exp(-z), sizes),
                               [0.0, 1.0, 40.0], [1.0, 40.0, math.inf])
    assert res.converged and sizes == [3 * 273]
    assert res.value.sum() == pytest.approx(1.0, rel=1e-14)


def test_semi_infinite_vector_components_stop_on_their_own():
    # e^{-z} and 1/(1+z)^2 in one integrand both converge
    res = quadrature.integrate(lambda z: np.array([np.exp(-z), (1.0 + z) ** -2.0]), 0.0, math.inf)
    assert res.converged.all() and res.value.shape == (2,)
    assert res.value == pytest.approx([1.0, 1.0], rel=1e-14)
    # a component that does not converge is flagged on its own
    res = quadrature.integrate(lambda z: np.array([np.exp(-z), 1.0 / (1.0 + z)]), 0.0, math.inf)
    assert res.converged.tolist() == [True, False]
    assert res.value[0] == pytest.approx(1.0, rel=1e-14)


def test_semi_infinite_accepts_an_overflowing_far_tail():
    # s^30 overflows to inf far out, where e^{-s} is 0: those terms give nan
    # and count as 0
    res = quadrature.integrate(lambda s: s ** 30 * np.exp(-s), 0.0, math.inf)
    assert res.converged
    assert res.value == pytest.approx(math.factorial(30), rel=1e-13)
    # an integrand that is inf or nan where e^{-z} is below the tolerance
    for far in (math.inf, math.nan):
        res = quadrature.integrate(lambda z: np.where(z < 1e4, np.exp(-z), far), 0.0, math.inf)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-14)


def test_monomial_exp_integral_against_quadrature():
    for m, c, a, b in ((0, 1.0, 0.0, 3.0), (2, 0.5, 1.0, 4.0), (5, 2.0, 0.0, math.inf),
                       (3, 0.0, 0.0, 2.0)):
        [got] = polyexp.polyexp_moment((1.0,), c, a, b, (m,))
        hi = b if math.isfinite(b) else 60.0 / max(c, 1.0)
        want = quadrature.integrate(lambda s: s ** m * np.exp(-c * s), a, hi).value
        assert got == pytest.approx(want, rel=1e-11)


def test_monomial_exp_small_rate_stability():
    # c*b << 1 hits the series branch; compare against the c = 0 limit
    [got] = polyexp.polyexp_moment((1.0,), 1e-9, 1.0, 2.0, (2,))
    assert got == pytest.approx(7.0 / 3.0, rel=1e-8)
    # c^-(m+1) would overflow here; e^{-cs} = 1 to double precision
    [got] = polyexp.polyexp_moment((1.0,), 1e-50, 0.0, 2.0, (6,))
    assert got == pytest.approx(2.0 ** 7 / 7.0, rel=1e-15)
    # Gamma(m+1)/c^(m+1) overflows before P(m+1, c b) could cancel it; the
    # reference is the lower incomplete gamma in 50-digit arithmetic
    with mpmath.workdps(50):
        for m, c in ((100, 0.01), (150, 0.01)):
            want = mpmath.gammainc(m + 1, 0, c) / mpmath.mpf(c) ** (m + 1)
            [got] = polyexp.polyexp_moment((1.0,), c, 0.0, 1.0, (m,))
            assert got == pytest.approx(float(want), rel=1e-12)


def test_monomial_exp_far_tail_keeps_relative_accuracy():
    # P(m+1, c a) and P(m+1, c b) both round to 1 here, so a difference of
    # lower incomplete gammas would hold nothing
    with mpmath.workdps(50):
        for m, c, a, b in ((0, 64.0, 1.0, 4.0), (3, 40.0, 2.0, 5.0)):
            want = mpmath.gammainc(m + 1, c * a, c * b) / mpmath.mpf(c) ** (m + 1)
            [got] = polyexp.polyexp_moment((1.0,), c, a, b, (m,))
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_polyexp_moment_shifts_degree():
    coeffs, rate = (0.3, 0.1), 0.7
    [direct] = polyexp.polyexp_moment(coeffs, rate, 0.0, 5.0, (2,))
    want = quadrature.integrate(lambda s: s ** 2 * (0.3 + 0.1 * s) * np.exp(-0.7 * s),
                                0.0, 5.0).value
    assert direct == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("coeffs, rate, a, b", [
    ((1e-9,), 1e-9, 0.0, math.inf),             # I_30 and up overflow
    ((0.5,), 0.0, 0.0, 2.0),                    # spline: the series at every m
    ((0.0, 1.5, -0.75), 0.0, 0.0, 2.0),
    ((0.2, 0.0, 0.3, 0.0, 0.1), 0.7, 0.5, 6.0),  # the series below some m, not above
    ((1.0,), 1e-300, 0.0, 2.0),
    ((2.0, 0.0, 1.0), 30.0, 0.0, math.inf),
])
def test_polyexp_moments_in_one_pass_are_the_one_row_calls(coeffs, rate, a, b):
    # every row of a stack skips its own zero coefficients, so 0 times an
    # overflowed monomial reaches no row; a nan, if any, equals a nan
    ks = range(33)
    stacked = polyexp.polyexp_moment(coeffs, rate, a, b, ks).tolist()
    single = [polyexp.polyexp_moment(coeffs, rate, a, b, (k,))[0] for k in ks]
    assert [x.hex() for x in stacked] == [x.hex() for x in single]
    rows = [(0.0,) * k + coeffs + (0.0,) * (4 - k) for k in range(5)]
    zs = np.array([0.0, 0.3, 2.0 + 5.0j, 40.0j, 1e3])
    got = polyexp.polyexp_laplace_complex(rows, rate, a, b, zs)
    want = [polyexp.polyexp_laplace_complex(row, rate, a, b, zs) for row in rows]
    assert got.shape == (5, 5) and np.array_equal(got, want, equal_nan=True)
    if rate == 1e-9:
        assert np.isfinite(stacked[:30]).all() and stacked[30] == math.inf


def test_polyexp_laplace_complex():
    coeffs, rate = (1.0,), 1.0
    z = 0.4 + 1.1j
    got = polyexp.polyexp_laplace_complex(coeffs, rate, 0.0, math.inf, z)
    assert got == pytest.approx(1.0 / (1.0 + z), rel=1e-12)
    # finite window: int_0^1 e^{-(1+z)s} ds
    got = polyexp.polyexp_laplace_complex(coeffs, rate, 0.0, 1.0, z)
    want = (1.0 - cmath.exp(-(1.0 + z))) / (1.0 + z)
    assert got == pytest.approx(want, rel=1e-12)


def test_kummer_series_is_not_summed_at_a_zero_lower_end(monkeypatch):
    # int_0^a of the series is exactly 0 at a = 0: a density on [0, 2] sums
    # the series at b alone
    z = np.array([0.3, 0.2 + 0.1j])
    want = [complex(mpmath.quad(lambda s: (0.5 + 0.25 * s + 0.125 * s * s) * mpmath.exp(-w * s),
                                [0, 2])) for w in z]
    ends = []
    inner = polyexp._lower_series

    def spy(m, lam, x):
        ends.append(x)
        return inner(m, lam, x)

    monkeypatch.setattr(polyexp, "_lower_series", spy)
    got = polyexp.polyexp_laplace_complex((0.5, 0.25, 0.125), 0.0, 0.0, 2.0, z)
    assert ends == [2.0, 2.0] and got == pytest.approx(want, rel=1e-14)


# one monomial s^m on [a, b], b = a + width or inf, against
# gamma(m+1, lam a, lam b)/lam^(m+1) at 40 digits.  Widths stay below 4 so that
# |z| b <= 6e3: the phase of e^{-zb} moves by |z b| ulp when z b is rounded,
# which no double-precision kernel can undo.
_SEGMENTS = st.tuples(
    st.integers(0, 8),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
    st.one_of(st.just(math.inf), st.floats(-2.0, math.log10(4.0)).map(lambda e: 10.0 ** e)),
    st.one_of(st.just(0.0), st.floats(-2.0, 1.5).map(lambda e: 10.0 ** e)),
)
_MODULI = st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e)
_Z = st.one_of(
    st.builds(lambda r, s: complex(0.0, s * r), _MODULI, st.sampled_from([1.0, -1.0])),
    st.builds(complex, _MODULI, st.just(0.0)),                              # positive axis
    st.builds(lambda r, th: r * cmath.exp(1j * th), _MODULI, st.floats(-1.5, 1.5)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seg=_SEGMENTS, zs=st.lists(_Z, min_size=1, max_size=8))
def test_polyexp_laplace_monomials_match_mpmath(seg, zs):
    m, a, width, rate = seg
    b = a + width
    if math.isinf(b) and rate == 0.0:
        rate = 1.0  # an unbounded segment needs a positive rate
    coeffs = (0.0,) * m + (1.0,)
    vals = polyexp.polyexp_laplace_complex(coeffs, rate, a, b, np.array(zs))
    assert vals.shape == (len(zs),)
    for z, v in zip(zs, vals):
        with mpmath.workdps(40):
            lam = mpmath.mpf(rate) + mpmath.mpc(z)
            upper = [] if math.isinf(b) else [lam * b]
            ref = complex(mpmath.gammainc(m + 1, lam * a, *upper) / lam ** (m + 1))
        # below the smallest normal double no relative accuracy is representable
        assert abs(v - ref) <= 1e-12 * abs(ref) + np.finfo(float).tiny, (m, a, b, rate, z)

