"""Measures: closed-form moments, partial moments, and Laplace transforms."""

import cmath
import math

import numpy as np
import pytest

from cmapprox import quadrature
from cmapprox.measures import PolyExpSegment, PositiveMeasure, PowerLawSegment


def test_dirac_moment():
    nu = PositiveMeasure(atoms=((1.0, 1.0),))
    assert nu.moment(2) == 1.0
    assert nu.total_mass() == 1.0


def test_exponential_density_moments():
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, math.inf, (1.0,), 1.0),))
    # int s^k e^{-s} ds = k!
    for k in range(5):
        assert nu.moment(k) == pytest.approx(math.factorial(k), rel=1e-14)


def test_uniform_density_moments():
    nu = PositiveMeasure(segments=(PolyExpSegment(0.0, 2.0, (0.5,), 0.0),))
    assert nu.moment(0) == pytest.approx(1.0, abs=1e-15)
    assert nu.moment(1) == pytest.approx(1.0, abs=1e-15)
    assert nu.moment(2) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        PositiveMeasure(atoms=((1.0, -0.5),))
    with pytest.raises(ValueError):
        PositiveMeasure(atoms=((-1.0, 0.5),))
    with pytest.raises(ValueError):
        PolyExpSegment(0.0, math.inf, (1.0,), 0.0)  # infinite mass
    with pytest.raises(ValueError):
        PolyExpSegment(0.0, 2.0, (1.0, -2.0), 0.0)  # negative on (1/2, 2]
    with pytest.raises(ValueError):
        PolyExpSegment(3.0, 1.0, (1.0,), 0.0)
    with pytest.raises(ValueError):
        PowerLawSegment(1.0, 0.9)


def test_partial_moments_match_quadrature():
    seg = PolyExpSegment(0.5, 6.0, (0.2, 0.3, 0.1), 0.7)
    for k in (0, 1, 3):
        for lo, hi in ((0.0, 1.0), (1.0, 4.0), (2.5, 100.0)):
            quad = quadrature.integrate(lambda s: s ** k * seg.density(s),
                                        max(lo, seg.a), min(hi, seg.b))
            assert seg.partial_moment(k, lo, hi) == pytest.approx(quad, rel=1e-11, abs=1e-13)


def test_powerlaw_moments_and_partials():
    seg = PowerLawSegment(0.75, 2.5)  # the gamma = 1/2 heavy tail
    assert math.isinf(seg.moment(2))
    assert math.isinf(seg.moment(3))
    cut = 1e6
    head = quadrature.integrate(lambda s: s * seg.density(s), 0.0, cut)
    # analytic remainder: int_S^inf s w (1+s)^{-5/2} ds = w[2u^{-1/2} - (2/3)u^{-3/2}], u = 1+S
    tail = 0.75 * (2.0 * (1.0 + cut) ** -0.5 - (2.0 / 3.0) * (1.0 + cut) ** -1.5)
    assert seg.moment(1) == pytest.approx(head + tail, rel=1e-8)
    q = quadrature.integrate(lambda s: s * seg.density(s), 0.5, 8.0)
    assert seg.partial_moment(1, 0.5, 8.0) == pytest.approx(q, rel=1e-11)
    assert math.isinf(seg.partial_moment(2, 0.0, math.inf))


def test_powerlaw_laplace_vs_quadrature():
    seg = PowerLawSegment(0.75, 2.5)
    for z in (0.3, 2.0, 1.0 + 2.0j):
        q = quadrature.integrate_semi_infinite(
            lambda s: np.real(np.exp(-z * s)) * seg.density(s), 0.0)
        qi = quadrature.integrate_semi_infinite(
            lambda s: np.imag(np.exp(-z * s)) * seg.density(s), 0.0)
        val = seg.laplace(z)
        assert val.real == pytest.approx(q.value, rel=1e-10, abs=1e-12)
        assert val.imag == pytest.approx(qi.value, rel=1e-10, abs=1e-12)


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
    val = nu.kernel_integral(lambda tau: (1.0 - tau) ** 2)
    assert val == pytest.approx(0.5 * 1.0 + 0.5 * 1.0, abs=1e-15)
    with np.errstate(divide="ignore"):
        div = nu.kernel_integral(lambda tau: np.where(tau == 0.0, np.inf, 1.0 / tau))
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
