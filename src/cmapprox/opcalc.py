"""Finite-dimensional operator side: normal generators and their semigroup constants.

A generator is an operator A whose spectrum lies in the closed right
half-plane (so that -A generates a bounded semigroup e^{-tA}) and which is
normal: A = V diag(eigs) V^H with a unitary eigenbasis V.  It is held as its
eigenvalue array and an Eigenbasis, which applies V and V^{-1} = V^H to
blocks of columns without forming them: the identity for the diagonal
generators, an orthonormal DST-I for the Dirichlet Laplacian and a unitary
DFT for the periodic advection operator (both O(d log d) per column by
numpy.fft).  For a normal A the Hille-Phillips calculus
g(A) = int e^{-sA} nu(ds) is the scalar g on the spectrum,
g(A) = V g(Lambda) V^H, so every matrix function here is a function of the
eigenvalue array and no d x d matrix is formed.

Operator norm is the spectral 2-norm throughout: ||V diag(f) V^H|| = max |f|.
The semigroup constants M_beta = sup_t ||(tA)^beta e^{-tA}|| are the scalar
suprema (beta/e)^beta max_lambda (|lambda|/Re lambda)^beta on the eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeneratorMatrix",
    "Eigenbasis",
    "IdentityBasis",
    "SineBasis",
    "FourierBasis",
    "SemigroupConstants",
    "diag_imag",
    "diag_positive",
    "advection_periodic",
    "laplacian_dirichlet_1d",
    "make_generator",
    "frac_on_spectrum",
    "semigroup_constants",
    "test_vectors",
]

DEFAULT_SEED = 0x5EED


# ----------------------------------------------------------------------
# eigenbases
# ----------------------------------------------------------------------

class Eigenbasis:
    """A unitary eigenvector matrix V as an operator on blocks of columns:
    apply(Y) = V Y and solve(X) = V^{-1} X = V^H X along axis 0."""

    def apply(self, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityBasis(Eigenbasis):
    """V = I: the generator is diag(eigs)."""

    def apply(self, Y):
        return Y

    def solve(self, X):
        return X


class SineBasis(Eigenbasis):
    """Orthonormal DST-I, V_jk = sqrt(2/(d+1)) sin(jk pi/(d+1)) for j, k = 1..d.

    V is real, symmetric and orthogonal, so V^{-1} = V.  The FFT of the odd
    extension (0, y, 0, -reversed y) of length 2(d+1) is -2i times the sine
    sums at k = 1..d.
    """

    def apply(self, Y):
        d = Y.shape[0]
        ext = np.zeros((2 * (d + 1),) + Y.shape[1:], dtype=complex)
        ext[1:d + 1] = Y
        ext[d + 2:] = -Y[::-1]
        return (0.5j * math.sqrt(2.0 / (d + 1))) * np.fft.fft(ext, axis=0)[1:d + 1]

    def solve(self, X):
        return self.apply(X)


class FourierBasis(Eigenbasis):
    """Unitary DFT, V_jk = e^{2 pi i jk/d}/sqrt(d) for j, k = 0..d-1:
    V = sqrt(d) ifft and V^{-1} = V^H = fft/sqrt(d)."""

    def apply(self, Y):
        return np.fft.ifft(Y, axis=0, norm="ortho")

    def solve(self, X):
        return np.fft.fft(X, axis=0, norm="ortho")


class GeneratorMatrix:
    """A normal generator V diag(eigs) V^H: its name, its eigenvalues in the
    closed right half-plane and its unitary eigenbasis V (the identity when
    none is given)."""

    def __init__(self, name: str, eigs, basis: Eigenbasis | None = None):
        self.name = name
        self.eigs = np.asarray(eigs, dtype=complex)
        self.basis = IdentityBasis() if basis is None else basis
        left = self.eigs[self.eigs.real < -1e-12]
        if left.size:
            raise ValueError(f"{name}: the spectrum must lie in the closed right half-plane, "
                             f"and the eigenvalue {left[0]:g} does not")

    @property
    def dim(self) -> int:
        return len(self.eigs)


# ----------------------------------------------------------------------
# gallery
# ----------------------------------------------------------------------

def _num(x: float) -> str:
    """The shortest of '%g' and repr that reads back as x exactly."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def diag_imag(k: int = 128, mod_min: float = 1e-1, mod_max: float = 1e2) -> GeneratorMatrix:
    """Diagonal skew generator with log-spaced imaginary eigenvalues (alternating signs)."""
    mods = np.logspace(math.log10(mod_min), math.log10(mod_max), k)
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    eigs = 1j * signs * mods
    name = f"diag_imag:k={k},min={_num(mod_min)},max={_num(mod_max)}"
    return GeneratorMatrix(name=name, eigs=eigs)


def diag_positive(k: int = 128, lam_min: float = 1e-2, lam_max: float = 1e2) -> GeneratorMatrix:
    eigs = np.logspace(math.log10(lam_min), math.log10(lam_max), k).astype(complex)
    name = f"diag_pos:k={k},min={_num(lam_min)},max={_num(lam_max)}"
    return GeneratorMatrix(name=name, eigs=eigs)


def advection_periodic(d: int = 256) -> GeneratorMatrix:
    """Circulant forward difference d*(I - S); eigenvalues d(1 - omega^k)."""
    j = np.arange(d)
    omega = np.exp(2j * np.pi * j / d)
    # the lower shift maps the k-th Fourier column to omega^{-k} times itself
    eigs = d * (1.0 - omega.conj())
    return GeneratorMatrix(name=f"advection:d={d}", eigs=eigs, basis=FourierBasis())


def laplacian_dirichlet_1d(d: int = 128) -> GeneratorMatrix:
    """Unscaled tridiagonal (2, -1) with eigenvalues 2 - 2 cos(k pi/(d+1))."""
    k = np.arange(1, d + 1)
    eigs = (2.0 - 2.0 * np.cos(k * np.pi / (d + 1))).astype(complex)
    return GeneratorMatrix(name=f"laplacian:d={d}", eigs=eigs, basis=SineBasis())


# each gallery member with its keys (in constructor order) and their defaults
GALLERY = {
    "diag_imag": (diag_imag, {"k": 128, "min": 1e-1, "max": 1e2}),
    "diag_pos": (diag_positive, {"k": 128, "min": 1e-2, "max": 1e2}),
    "advection": (advection_periodic, {"d": 256}),
    "laplacian": (laplacian_dirichlet_1d, {"d": 128}),
}


def make_generator(spec: str) -> GeneratorMatrix:
    """Parse gallery strings like 'diag_imag:k=128,max=100'; k and d are
    positive integers, min and max positive numbers.  The name of the
    generator built is its full spec, which parses back to the same one."""
    name, _, argstr = spec.partition(":")
    if name not in GALLERY:
        raise ValueError(f"unknown generator {name!r}; available: {', '.join(GALLERY)}")
    build, kw = GALLERY[name]
    kw = dict(kw)
    for item in filter(None, argstr.split(",")):
        key, _, val = (x.strip() for x in item.partition("="))
        bad = f"--generator {spec!r}: {key}={val!r}"
        if key not in kw:
            raise ValueError(f"{bad} is not a key of {name}, which takes {', '.join(kw)}")
        try:
            x = float(val)
        except ValueError:
            raise ValueError(f"{bad} is not a number") from None
        if not 0 < x < math.inf:
            raise ValueError(f"{bad} is not a positive number")
        if key in ("k", "d"):
            if x != int(x):
                raise ValueError(f"{bad} is not a whole number")
            x = int(x)
        kw[key] = x
    return build(*kw.values())


def test_vectors(A: GeneratorMatrix, count: int = 8, seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """Deterministic unit test vectors: all-ones, random complex, eigenvector mixtures."""
    d = A.dim
    rng = np.random.default_rng(seed)
    vecs = [np.ones(d, dtype=complex) / math.sqrt(d)]
    for _ in range(3):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(v / np.linalg.norm(v))
    picks = [(0, d - 1), (0, d // 2), (d // 4, 3 * d // 4), (d // 3, d - 2)]
    E = np.zeros((d, len(picks)), dtype=complex)
    for col, (i, j) in enumerate(picks):
        E[i, col] += 1.0
        E[j, col] += 1.0
    mixes = A.basis.apply(E)
    vecs.extend(v / np.linalg.norm(v) for v in mixes.T)
    return vecs[:count]


# ----------------------------------------------------------------------
# fractional powers
# ----------------------------------------------------------------------

def frac_on_spectrum(lam, alpha: float) -> np.ndarray:
    """lam^alpha on the principal branch, arg(lam) in [-pi/2, pi/2];
    0^alpha := 0 for alpha > 0 and 1 for alpha = 0."""
    if not 0.0 <= alpha <= 4.0:
        raise ValueError(f"fractional power alpha = {alpha:g} is outside [0, 4]")
    lam = np.asarray(lam, dtype=complex)
    zero = lam == 0
    vals = np.where(zero, 1.0, lam) ** alpha
    return np.where(zero, 0.0 if alpha > 0 else 1.0, vals)


# ----------------------------------------------------------------------
# semigroup constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SemigroupConstants:
    """The constants M_beta = sup_t ||(tA)^beta e^{-tA}||, read as Mc[beta].

    For a normal A, ||f(A)|| = max_lambda |f(lambda)| and
    sup_t (t|lambda|)^beta e^{-t Re lambda} = (beta/e)^beta (|lambda|/Re lambda)^beta,
    so M_beta = (beta/e)^beta rho^beta.
    """

    rho: float      # max |lambda|/Re lambda over lambda != 0 (inf off a sector)

    def __getitem__(self, beta) -> float:
        if beta < 0:
            raise ValueError(f"M_beta is defined for beta >= 0, got beta = {beta}")
        return (beta / math.e) ** beta * self.rho ** beta


def semigroup_constants(A: GeneratorMatrix) -> SemigroupConstants:
    """M_beta for every real beta >= 0 from the eigenvalues of A.

    rho is inf if some lambda != 0 has Re lambda <= 0 (then M_beta = inf
    for beta > 0) and 0 if every eigenvalue is 0.
    """
    lam = A.eigs[A.eigs != 0]
    if np.any(lam.real <= 0):
        rho = math.inf
    else:
        rho = float(np.max(np.abs(lam) / lam.real, initial=0.0))
    return SemigroupConstants(rho)
