"""Finite positive measures on [0, inf) with closed-form integrals.

A measure is a list of point atoms plus density segments.  Two segment
shapes are supported: polynomial-times-exponential p(s)e^{-cs} on [a,b]
(covers Gamma densities, uniform densities, truncated series), and a
power-law tail w(1+s)^{-p} on [0, inf) (covers heavy-tailed examples
whose second moment diverges).  Moments, partial moments, and Laplace
transforms are all closed-form up to incomplete gamma/beta functions,
so downstream functionals can be computed without sampling the measure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polyexp import polyexp_laplace_complex, polyexp_moment

__all__ = ["PolyExpSegment", "PowerLawSegment", "PositiveMeasure"]


@dataclass(frozen=True)
class PolyExpSegment:
    """Density p(s) e^{-rate*s} on [a, b]; rate > 0 required when b = inf."""

    a: float
    b: float
    coeffs: tuple[float, ...]
    rate: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise ValueError("segment needs 0 <= a < b")
        if math.isinf(self.b) and self.rate <= 0.0:
            raise ValueError("infinite segment needs a positive exponential rate")
        if self.rate < 0.0:
            raise ValueError("negative exponential rate")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        self._check_nonnegative()

    def _check_nonnegative(self):
        poly = np.polynomial.Polynomial(self.coeffs)
        probes = [self.a, self.b if not math.isinf(self.b) else self.a + 1.0]
        for r in poly.roots():
            if abs(r.imag) < 1e-12 and self.a < r.real < (self.b if not math.isinf(self.b) else math.inf):
                probes.append(r.real)
        lo, hi = self.a, (self.b if not math.isinf(self.b) else self.a + 10.0)
        probes.extend(np.linspace(lo, hi, 17))
        if min(poly(np.asarray(probes))) < -1e-12:
            raise ValueError("segment density is negative somewhere on its interval")

    def density(self, s):
        s = np.asarray(s, dtype=float)
        val = np.polynomial.polynomial.polyval(s, np.asarray(self.coeffs)) * np.exp(-self.rate * s)
        return np.where((s >= self.a) & (s <= self.b), val, 0.0)

    def moment(self, k: int) -> float:
        return polyexp_moment(self.coeffs, self.rate, self.a, self.b, k)

    def partial_moment(self, k: int, lo: float, hi: float) -> float:
        lo = max(lo, self.a)
        hi = min(hi, self.b)
        if hi <= lo:
            return 0.0
        return polyexp_moment(self.coeffs, self.rate, lo, hi, k)

    def laplace(self, z: complex) -> complex:
        if z == 0:
            return complex(self.moment(0))
        return polyexp_laplace_complex(self.coeffs, self.rate, self.a, self.b, z)


@lru_cache(maxsize=200000)
def _powerlaw_laplace(p: float, zr: float, zi: float) -> complex:
    """int_0^inf e^{-zs} (1+s)^{-p} ds = e^z z^{p-1} Gamma(1-p, z) for Re z >= 0,
    and 1/(p-1) at z = 0."""
    if zr == 0.0 and zi == 0.0:
        return complex(1.0 / (p - 1.0))
    import mpmath

    z = mpmath.mpc(zr, zi)
    val = mpmath.exp(z) * z ** (p - 1) * mpmath.gammainc(1 - p, z)
    return complex(val)


@dataclass(frozen=True)
class PowerLawSegment:
    """Density weight * (1+s)^{-exponent} on [0, inf); exponent > 1."""

    weight: float
    exponent: float

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValueError("negative weight")
        if self.exponent <= 1.0:
            raise ValueError("power-law exponent must exceed 1 for finite mass")

    a = 0.0
    b = math.inf

    def density(self, s):
        s = np.asarray(s, dtype=float)
        return self.weight * (1.0 + s) ** (-self.exponent)

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

    def laplace(self, z: complex) -> complex:
        return self.weight * _powerlaw_laplace(self.exponent, float(np.real(z)), float(np.imag(z)))


@dataclass(frozen=True)
class PositiveMeasure:
    """Atoms plus density segments; all masses finite by construction."""

    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple = ()

    def __post_init__(self):
        cleaned = []
        for loc, w in self.atoms:
            if loc < 0.0:
                raise ValueError("atom location must be >= 0")
            if w <= 0.0:
                raise ValueError("atom weight must be > 0")
            cleaned.append((float(loc), float(w)))
        object.__setattr__(self, "atoms", tuple(cleaned))
        object.__setattr__(self, "segments", tuple(self.segments))

    # -- moments ----------------------------------------------------------

    def moment(self, k: int) -> float:
        if not 0 <= k <= 4:
            raise ValueError("moments supported for k = 0..4")
        total = sum(w * loc ** k for loc, w in self.atoms)
        for seg in self.segments:
            m = seg.moment(k)
            if math.isinf(m):
                return math.inf
            total += m
        return total

    def total_mass(self) -> float:
        return self.moment(0)

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

    def laplace(self, z: complex) -> complex:
        """int e^{-zs} nu(ds) for Re z >= 0 (includes the imaginary axis)."""
        total = 0.0 + 0.0j
        for loc, w in self.atoms:
            total += w * cmath.exp(-z * loc)
        for seg in self.segments:
            total += seg.laplace(z)
        return total

    def kernel_integral(self, kernel, rel_tol: float = 1e-12) -> float:
        """int kernel(tau) nu(dtau) with `kernel` vectorized over tau >= 0.

        Atoms are summed exactly; segment parts use adaptive quadrature of
        kernel * density.  The kernel must be finite on the support, else
        the result is inf.
        """
        from . import quadrature

        total = 0.0
        for loc, w in self.atoms:
            val = float(kernel(np.asarray([loc]))[0])
            if math.isinf(val) or math.isnan(val):
                return math.inf
            total += w * val
        for seg in self.segments:
            f = lambda s, seg=seg: kernel(s) * seg.density(s)
            if math.isinf(seg.b):
                res = quadrature.integrate_semi_infinite(f, seg.a, rel_tol=rel_tol)
                if not res.converged:
                    return math.inf
                total += res.value
            else:
                total += quadrature.integrate(f, seg.a, seg.b, rel_tol=rel_tol)
        return total

    def zero_atom_mass(self) -> float:
        return sum(w for loc, w in self.atoms if loc == 0.0)
