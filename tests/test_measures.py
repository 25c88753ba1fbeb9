"""Measures: closed-form moments, partial moments, and Laplace transforms."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmapprox import quadrature
from cmapprox.cmfun import frac_tail
from cmapprox.measures import (SERIES_RADIUS, PolyExpSegment, PositiveMeasure,
                               PowerLawSegment, powerlaw_laplace)

from conftest import density, kernel_integral


def test_dirac_moment():
    nu = PositiveMeasure(atoms=((1.0, 1.0),))
    assert nu.partial_moment((2, 0), 0.0, math.inf).tolist() == [1.0, 1.0]


def test_exponential_density_moments():
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, math.inf, (1.0,), 1.0),))
    # int s^k e^{-s} ds = k!
    for k, m in enumerate(nu.partial_moment(range(5), 0.0, math.inf)):
        assert m == pytest.approx(math.factorial(k), rel=1e-14)


def test_uniform_density_moments():
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, 2.0, (0.5,), 0.0),))
    m0, m1, m2 = nu.partial_moment(range(3), 0.0, math.inf)
    assert m0 == pytest.approx(1.0, abs=1e-15)
    assert m1 == pytest.approx(1.0, abs=1e-15)
    assert m2 == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_invalid_inputs_rejected():
    for build, message in [
        (lambda: PositiveMeasure(atoms=((1.0, -0.5),)), "atom weight must be > 0"),
        (lambda: PositiveMeasure(atoms=((-1.0, 0.5),)), "atom location must be >= 0"),
        (lambda: PolyExpSegment(0.0, math.inf, (1.0,), 0.0),  # infinite mass
         "infinite segment needs a positive exponential rate"),
        (lambda: PolyExpSegment(0.0, 2.0, (1.0, -2.0), 0.0),  # negative on (1/2, 2]
         "segment density is negative somewhere on its interval"),
        (lambda: PolyExpSegment(0.0, 2.0, (0.0, -1.5, 0.75), 0.0),  # negative on (0, 2)
         "segment density is negative somewhere on its interval"),
        (lambda: PolyExpSegment(3.0, 1.0, (1.0,), 0.0), "segment needs 0 <= a < b"),
        (lambda: PolyExpSegment(0.0, 1.0, (1.0,), rate=-1.0), "negative exponential rate"),
        (lambda: PowerLawSegment(1.0, 0.9), "power-law exponent must exceed 1 for finite mass"),
        (lambda: PowerLawSegment(exponent=2.0, weight=-1.0), "negative weight"),
    ]:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_nonnegative_coefficients_skip_the_roots(monkeypatch):
    # p(s) = sum c_j s^j with every c_j >= 0 is nonnegative for s >= a >= 0
    def no_roots(coeffs):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", no_roots)
    for coeffs, rate, b in [((0.5,), 0.0, 2.0), ((0.0, 1.0, 3.0), 1.0, math.inf), ((), 0.0, 1.0)]:
        PolyExpSegment(0.0, b, coeffs, rate)
    with pytest.raises(AssertionError, match="np.roots"):
        PolyExpSegment(0.0, 2.0, (0.0, 1.5, -0.75))


def test_pieces_hold_floats_in_tuples():
    seg = PolyExpSegment(0, 1, [1, 2])
    nu = PositiveMeasure([(1, 2)], [seg])
    assert seg.coeffs == (1.0, 2.0) and nu.atoms == ((1.0, 2.0),) and nu.segments == (seg,)
    assert all(type(x) is float for x in (*seg.coeffs, *nu.atoms[0]))


def test_partial_moments_match_quadrature():
    seg = PolyExpSegment(0.5, 6.0, (0.2, 0.3, 0.1), 0.7)
    for lo, hi in ((0.0, 1.0), (1.0, 4.0), (2.5, 100.0)):
        for k, moment in zip((0, 1, 3), seg.partial_moment((0, 1, 3), lo, hi)):
            quad = quadrature.integrate(lambda s: s ** k * density(seg, s),
                                        max(lo, seg.a), min(hi, seg.b)).value
            assert moment == pytest.approx(quad, rel=1e-11, abs=1e-13)


def test_powerlaw_moments_and_partials():
    seg = PowerLawSegment(0.75, 2.5)  # the gamma = 1/2 heavy tail
    cut = 1e6
    head = quadrature.integrate(lambda s: s * density(seg, s), 0.0, cut).value
    # analytic remainder: int_S^inf s w (1+s)^{-5/2} ds = w[2u^{-1/2} - (2/3)u^{-3/2}], u = 1+S
    tail = 0.75 * (2.0 * (1.0 + cut) ** -0.5 - (2.0 / 3.0) * (1.0 + cut) ** -1.5)
    m1, m2, m3 = seg.partial_moment((1, 2, 3), 0.0, math.inf)
    assert m1 == pytest.approx(head + tail, rel=1e-8)
    q = quadrature.integrate(lambda s: s * density(seg, s), 0.5, 8.0).value
    assert seg.partial_moment((1,), 0.5, 8.0)[0] == pytest.approx(q, rel=1e-11)
    assert math.isinf(m2) and math.isinf(m3)


def test_powerlaw_moments_are_beta_functions():
    # int_0^inf s^k (1+s)^{-p} ds = B(k+1, p-k-1) for p > k+1; the binomial sum
    # of s^k = ((1+s) - 1)^k cancels more as k and p grow (2.5e-15 at k = 3,
    # p = 5.5), past what any measure of the package needs: frac_tail has p < 3
    for p in (1.5, 2.25, 2.5, 2.75, 3.5, 4.5, 5.5):
        for k in range(min(3, math.ceil(p - 1.0))):
            with mpmath.workdps(30):
                ref = float(mpmath.beta(k + 1, p - k - 1))
            [value] = PowerLawSegment(1.0, p).partial_moment((k,), 0.0, math.inf)
            assert abs(value - ref) <= 1e-15 * ref, (k, p)


@pytest.mark.parametrize("gamma", [0.01, 0.25, 0.5, 0.75, 0.99])
def test_frac_tail_is_in_b1_exactly(gamma):
    # the atom 1 - gamma at 0 and the tail gamma(gamma+1)(1+s)^{-2-gamma} give m_0
    # and m_1 as 1 to the last bit at these gammas, and m_2 diverges
    assert frac_tail(gamma).moments[:3] == (1.0, 1.0, math.inf)


def test_powerlaw_laplace_vs_quadrature():
    seg = PowerLawSegment(0.75, 2.5)
    for z in (0.3, 2.0, 1.0 + 2.0j):
        q = quadrature.integrate(
            lambda s: np.real(np.exp(-z * s)) * density(seg, s), 0.0, math.inf)
        qi = quadrature.integrate(
            lambda s: np.imag(np.exp(-z * s)) * density(seg, s), 0.0, math.inf)
        val = seg.laplace(z)
        assert val.real == pytest.approx(q.value, rel=1e-10, abs=1e-12)
        assert val.imag == pytest.approx(qi.value, rel=1e-10, abs=1e-12)


# exponents of frac_tail's F(2+gamma-j, .): (1, 3) for g and g', (0, 1) for g'';
# kept 0.05 from the integers, where the series cancels (see powerlaw_laplace)
_EXPONENTS = st.one_of(st.floats(1.05, 1.95), st.floats(2.05, 2.95), st.floats(0.05, 0.95))
# |z| from 1e-8 to 1e3, with extra weight on both sides of the switch radius
_MODULI = st.one_of(st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e),
                    st.floats(SERIES_RADIUS - 0.2, SERIES_RADIUS + 0.2))
_POINTS = st.lists(st.one_of(
    st.just(0j),
    st.builds(complex, _MODULI, st.just(0.0)),                          # real axis
    st.builds(lambda r, s: complex(0.0, s * r), _MODULI,                # imaginary axis
              st.sampled_from([1.0, -1.0])),
    st.builds(lambda r, th: r * cmath.exp(1j * th), _MODULI,            # open half-plane
              st.floats(-1.55, 1.55)),
), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(p=_EXPONENTS, zs=_POINTS)
def test_powerlaw_laplace_matches_mpmath(p, zs):
    vals = powerlaw_laplace(p, np.array(zs))
    assert vals.shape == (len(zs),)
    for z, v in zip(zs, vals):
        if z == 0:
            assert v == (1.0 / (p - 1.0) if p > 1.0 else math.inf)
            continue
        with mpmath.workdps(30):
            ref = complex(mpmath.exp(z) * mpmath.expint(p, z))
        assert abs(v - ref) <= 1e-12 * abs(ref) + 1e-15, (p, z)


def test_measure_laplace_mixed():
    nu = PositiveMeasure(
        atoms=((0.0, 0.25), (2.0, 0.25)),
        segments=(PolyExpSegment(0.0, math.inf, (0.5,), 1.0),),
    )
    z = 0.7 + 0.3j
    expected = 0.25 + 0.25 * cmath.exp(-2.0 * z) + 0.5 / (1.0 + z)
    assert nu.laplace(z) == pytest.approx(expected, rel=1e-13)


def test_kernel_integral_atoms_and_divergence():
    nu = PositiveMeasure(atoms=((0.0, 0.5), (2.0, 0.5)))
    val = kernel_integral(nu, lambda tau: (1.0 - tau) ** 2)
    assert val == pytest.approx(0.5 * 1.0 + 0.5 * 1.0, abs=1e-15)
    with np.errstate(divide="ignore"):
        div = kernel_integral(nu, lambda tau: np.where(tau == 0.0, np.inf, 1.0 / tau))
    assert math.isinf(div)
    assert nu.zero_atom_mass() == 0.5


def test_laplace_complex_recurrence_high_degree():
    # large polynomial degree with small |z| exercises the high-precision
    # fallback of the segment Laplace transform
    n = 24
    coeff = math.exp(n * math.log(n) - math.lgamma(n))
    seg = PolyExpSegment(0.0, math.inf, tuple([0.0] * (n - 1) + [coeff]), float(n))
    z = 0.05 + 0.02j
    exact = (1.0 + z / n) ** (-n)
    assert seg.laplace(z) == pytest.approx(exact, rel=1e-11)


def test_whole_exponents_are_refused():
    # at a whole p the series' Gamma pole and one of its terms merge into a log
    # term, which no measure of the package needs: the segment and the
    # transform refuse it, naming it
    for build in (lambda: PowerLawSegment(0.5, 3.0),
                  lambda: powerlaw_laplace(2.0, np.array([0.5, 2.0 + 1.0j]))):
        with pytest.raises(ValueError, match=r"^power-law exponent [23] is a whole number"):
            build()
    assert PowerLawSegment(0.5, 3.0 + 1e-15).exponent > 3.0
