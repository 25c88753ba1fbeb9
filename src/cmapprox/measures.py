"""Finite positive measures on [0, inf) with closed-form integrals.

A measure is a list of point atoms plus density segments.  Two segment
shapes are supported: polynomial-times-exponential p(s)e^{-cs} on [a,b]
(covers Gamma densities, uniform densities, truncated series), and a
power-law tail w(1+s)^{-p} on [0, inf) (covers heavy-tailed examples
whose second moment diverges).  Moments, partial moments and Laplace
transforms are closed-form, so downstream functionals can be computed
without sampling the measure.  `PositiveMeasure.laplace(z, order)` gives
int (-s)^order e^{-zs} nu(ds), the order-th derivative of the transform,
on whole arrays of z: an atom as w (-loc)^order e^{-z loc}, the
polynomial-exponential part by `polyexp_laplace_complex` on the
coefficients of (-s)^order p(s), and the power-law part by a binomial sum
of F(p-j, z) = e^z E_{p-j}(z) (`powerlaw_laplace`: a power series near
0, a continued fraction beyond).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .polyexp import polyexp_laplace_complex, polyexp_moment

__all__ = ["PolyExpSegment", "PowerLawSegment", "PositiveMeasure", "powerlaw_laplace"]


class _PolyExpFields(NamedTuple):
    a: float
    b: float
    coeffs: tuple[float, ...]
    rate: float = 0.0


class PolyExpSegment(_PolyExpFields):
    """Density p(s) e^{-rate*s} on [a, b]; rate > 0 required when b = inf."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 <= self.a < self.b):
            raise ValueError("segment needs 0 <= a < b")
        if math.isinf(self.b) and self.rate <= 0.0:
            raise ValueError("infinite segment needs a positive exponential rate")
        if self.rate < 0.0:
            raise ValueError("negative exponential rate")
        self = self._replace(coeffs=tuple(float(c) for c in self.coeffs))
        self._check_nonnegative()
        return self

    def _check_nonnegative(self):
        probes = [self.a, self.b if not math.isinf(self.b) else self.a + 1.0]
        for r in np.roots(self.coeffs[::-1]):
            if abs(r.imag) < 1e-12 and self.a < r.real < (self.b if not math.isinf(self.b) else math.inf):
                probes.append(r.real)
        lo, hi = self.a, (self.b if not math.isinf(self.b) else self.a + 10.0)
        probes.extend(np.linspace(lo, hi, 17))
        if min(self._poly(np.asarray(probes))) < -1e-12:
            raise ValueError("segment density is negative somewhere on its interval")

    def _poly(self, s: np.ndarray) -> np.ndarray:
        """p(s) by Horner."""
        acc = np.zeros_like(s)
        for c in self.coeffs[::-1]:
            acc = acc * s + c
        return acc

    def moment(self, k: int) -> float:
        return polyexp_moment(self.coeffs, self.rate, self.a, self.b, k)

    def partial_moment(self, k: int, lo: float, hi: float) -> float:
        lo = max(lo, self.a)
        hi = min(hi, self.b)
        if hi <= lo:
            return 0.0
        return polyexp_moment(self.coeffs, self.rate, lo, hi, k)

    def laplace(self, z, order: int = 0):
        """int_a^b (-s)^order e^{-zs} density(s) ds on an array of complex z
        (a complex for 0-d z)."""
        coeffs = (0.0,) * order + tuple((-1.0) ** order * c for c in self.coeffs)
        return polyexp_laplace_complex(coeffs, self.rate, self.a, self.b, z)[()]


SERIES_RADIUS = 1.5    # power series for |z| <= 1.5, continued fraction beyond
SERIES_TERMS = 60      # 1.5^60/60! < 1e-70
SERIES_STOP = 1e-17    # a series term this small against its sum no longer moves it
CF_STEPS = 400         # just past |z| = 1.5 on the imaginary axis it takes about 125
EPS = np.finfo(float).eps  # stop of the Lentz fraction here and of `rates._W_below`'s series


def powerlaw_laplace(p: float, z) -> np.ndarray:
    """F(p, z) = int_0^inf e^{-zs} (1+s)^{-p} ds = e^z E_p(z) on an array of
    complex z with Re z >= 0, for real p; F(p, 0) = 1/(p-1), or inf for p <= 1.

    Against 40-digit references the relative error is at most about 2e-13 for
    p at least 0.05 from an integer, and grows like 1/dist(p, Z) closer to one
    (1e-11 at 1e-3, 1e-8 at 1e-6), where the series' Gamma(1-p) z^{p-1} and
    its k = p-1 term nearly cancel; a whole p, where they merge into a log
    term, is a ValueError (no measure of the package has one).
    Each entry's value is that of the entry alone: a stacked call gives the
    values of separate calls bit for bit.
    """
    _check_exponent(p)
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    zero, far = z == 0, np.abs(z) > SERIES_RADIUS
    out[zero] = 1.0 / (p - 1.0) if p > 1.0 else math.inf
    near = ~(zero | far)
    out[near] = np.exp(z[near]) * _expint_series(p, z[near])
    out[far] = _expint_fraction(p, z[far])
    return out


def _check_exponent(p: float) -> None:
    if float(p).is_integer():
        raise ValueError(f"power-law exponent {p:g} is a whole number, which the "
                         f"series of e^z E_p(z) does not take")


def _expint_series(p: float, z: np.ndarray) -> np.ndarray:
    """E_p(z) = Gamma(1-p) z^{p-1} - sum_k (-z)^k / (k! (1-p+k)) for p not a
    whole number.  Past k = p the terms only shrink, and each entry's sum
    stops once a new term is below SERIES_STOP of it."""
    m = p - 1.0
    term = np.ones_like(z)
    acc = np.zeros_like(z)
    live = np.ones(z.shape, dtype=bool)
    for k in range(SERIES_TERMS):
        if k:
            term = term * (-z / k)
        step = term / (k - m)
        acc += np.where(live, step, 0.0)
        if k > p:
            live &= np.abs(step) > SERIES_STOP * np.abs(acc)
            if not live.any():
                break
    return math.gamma(-m) * z ** m - acc


def _expint_fraction(p: float, z: np.ndarray) -> np.ndarray:
    """e^z E_p(z) = 1/(z+p- 1p/(z+p+2- 2(p+1)/(z+p+4- ...))) by the modified
    Lentz method, each entry stopping once its update factor is 1 to eps;
    only the entries still running are carried to the next step."""
    b = z.ravel() + p
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    h = d.copy()
    active = np.arange(b.size)
    for i in range(1, CF_STEPS):
        if not active.size:
            break
        a = -i * (p - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h[active] *= delta
        going = np.abs(delta - 1.0) > EPS
        active, b, c, d = active[going], b[going], c[going], d[going]
    return h.reshape(z.shape)


class _PowerLawFields(NamedTuple):
    weight: float
    exponent: float


class PowerLawSegment(_PowerLawFields):
    """Density weight * (1+s)^{-exponent} on [0, inf); exponent > 1, not whole."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.weight < 0.0:
            raise ValueError("negative weight")
        if self.exponent <= 1.0:
            raise ValueError("power-law exponent must exceed 1 for finite mass")
        _check_exponent(self.exponent)
        return self

    def moment(self, k: int) -> float:
        # int_0^inf s^k (1+s)^{-p} ds = B(k+1, p-k-1), finite iff p > k+1
        p = self.exponent
        if p <= k + 1:
            return math.inf
        logb = math.lgamma(k + 1) + math.lgamma(p - k - 1) - math.lgamma(p)
        return self.weight * math.exp(logb)

    def partial_moment(self, k: int, lo: float, hi: float) -> float:
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        # expand s^k = ((1+s) - 1)^k and integrate (1+s)^{j-p} termwise
        p = self.exponent
        total = 0.0
        for j in range(k + 1):
            c = math.comb(k, j) * (-1.0) ** (k - j)
            q = j - p + 1.0
            if math.isinf(hi):
                if q >= 0.0:
                    return math.inf
                piece = -((1.0 + lo) ** q) / q
            else:
                piece = ((1.0 + hi) ** q - (1.0 + lo) ** q) / q
            total += c * piece
        return self.weight * total

    def laplace(self, z, order: int = 0):
        """int_0^inf (-s)^order e^{-zs} density(s) ds on an array of complex z
        (a complex for 0-d z): with s^k = ((1+s) - 1)^k, the sum
        sum_j C(k, j) (-1)^{k-j} F(p-j, z)."""
        acc = 0.0
        for j in range(order + 1):
            acc = acc + math.comb(order, j) * (-1.0) ** (order - j) * powerlaw_laplace(
                self.exponent - j, z)
        return (self.weight * (-1.0) ** order * acc)[()]


class _MeasureFields(NamedTuple):
    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple = ()


class PositiveMeasure(_MeasureFields):
    """Atoms plus density segments; all masses finite by construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        cleaned = []
        for loc, w in self.atoms:
            if loc < 0.0:
                raise ValueError("atom location must be >= 0")
            if w <= 0.0:
                raise ValueError("atom weight must be > 0")
            cleaned.append((float(loc), float(w)))
        return self._replace(atoms=tuple(cleaned), segments=tuple(self.segments))

    # -- moments ----------------------------------------------------------

    def moment(self, k: int) -> float:
        if k < 0:
            raise ValueError("moments are defined for k >= 0")
        total = sum(w * loc ** k for loc, w in self.atoms)
        for seg in self.segments:
            m = seg.moment(k)
            if math.isinf(m):
                return math.inf
            total += m
        return total

    def partial_moment(self, k: int, lo: float, hi: float) -> float:
        """int_{[lo, hi]} s^k nu(ds) (atoms on the boundary included)."""
        total = sum(w * loc ** k for loc, w in self.atoms if lo <= loc <= hi)
        for seg in self.segments:
            pm = seg.partial_moment(k, lo, hi)
            if math.isinf(pm):
                return math.inf
            total += pm
        return total

    # -- transforms -------------------------------------------------------

    def laplace(self, z, order: int = 0):
        """int (-s)^order e^{-zs} nu(ds), the order-th derivative of the Laplace
        transform, on an array of z with Re z >= 0 (includes the imaginary
        axis); real z gives real values, a 0-d z a scalar."""
        zc = np.asarray(z, dtype=complex)
        total = np.zeros_like(zc)
        for loc, w in self.atoms:
            total += w * (-loc) ** order * np.exp(-zc * loc)
        for seg in self.segments:
            total += seg.laplace(zc, order)
        return (total if np.iscomplexobj(z) else total.real)[()]

    def zero_atom_mass(self) -> float:
        return sum(w for loc, w in self.atoms if loc == 0.0)
