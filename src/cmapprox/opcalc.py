"""Finite-dimensional operator side: normal generators and their semigroup constants.

A generator is an operator A whose spectrum lies in the closed right
half-plane (so that -A generates a bounded semigroup e^{-tA}) and which is
normal: A = V diag(eigs) V^H with a unitary eigenbasis V.  It is held as its
eigenvalue array and a basis object whose apply(Y) = V Y and
solve(X) = V^{-1} X = V^H X act on blocks of columns (along axis 0)
without forming V: the identity for the diagonal generators, an
orthonormal DST-I for the Dirichlet Laplacian and a unitary DFT for the
periodic advection operator (both O(d log d) per column by numpy.fft).
For a normal A the Hille-Phillips calculus g(A) = int e^{-sA} nu(ds) is
the scalar g on the spectrum, g(A) = V g(Lambda) V^H, so every matrix
function here is a function of the eigenvalue array and no d x d matrix is
formed.

The rate bounds ask of f(A) only its norms, which GeneratorMatrix gives for
a stack of k vectorized scalar functions evaluated at once (the errors of
the (t, n) cells of a grid, or one function).  With the test vectors as columns
of X and Y = V^H X (basis.solve, once for all the functions of one call),
||f(A) x_i|| = ||f(Lambda) y_i|| (`norms`), and the operator norm is the
spectral 2-norm ||f(A)|| = max |f(lambda)| (`opnorm`), since V is unitary.
The semigroup constants M_beta = sup_t ||(tA)^beta e^{-tA}|| are the scalar
suprema (beta/e)^beta max_lambda (|lambda|/Re lambda)^beta on the eigenvalues.

The gallery (GALLERY) names each generator by a `name:key=value` string,
read by cmfun.read_spec; a generator's name is its full spec.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cmfun import POSITIVE, SIZE, _num, read_spec

__all__ = [
    "GeneratorMatrix",
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

class IdentityBasis:
    """V = I: the generator is diag(eigs)."""

    def apply(self, Y):
        return Y

    def solve(self, X):
        return X


class SineBasis:
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


class FourierBasis:
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

    def __init__(self, name: str, eigs, basis=None):
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

    def norms(self, fs, vectors) -> tuple[list, list]:
        """(xs, tops) for fs, each f a vectorized function on the spectrum whose
        values on the d eigenvalues are a (k, d) stack of k functions f_j (d
        values are a stack of one): xs holds for each f the (k, m) array of
        ||f_j(A) x_i|| over the m vectors, tops the (k,) array of ||f_j(A)||
        (`opnorm`).  The vectors go to the eigenbasis once, and each f is
        evaluated and normed in turn, one function of its stack at a time,
        so that the temporaries are those of one f."""
        Y = self.basis.solve(np.column_stack(vectors))
        xs, tops = [], []
        for f in fs:
            F = self._stack(f)
            X = np.empty((len(F), Y.shape[1]))
            for j, row in enumerate(F):
                X[j] = np.linalg.norm(row[:, None] * Y, axis=0)
            xs.append(X)
            tops.append(np.max(np.abs(F), axis=1))
        return xs, tops

    def opnorm(self, f) -> np.ndarray:
        """The (k,) array of ||f_j(A)|| = max |f_j(lambda)| for the stack of f (see norms)."""
        return np.max(np.abs(self._stack(f)), axis=1)

    def _stack(self, f) -> np.ndarray:
        return np.reshape(f(self.eigs), (-1, self.dim))


# ----------------------------------------------------------------------
# gallery
# ----------------------------------------------------------------------

def diag_imag(k: int = 128, min: float = 1e-1, max: float = 1e2) -> GeneratorMatrix:
    """Diagonal skew generator with log-spaced imaginary eigenvalues (alternating signs)."""
    eigs = 1j * np.where(np.arange(k) % 2 == 0, 1.0, -1.0) * np.logspace(
        math.log10(min), math.log10(max), k)
    return GeneratorMatrix(name=f"diag_imag:k={k},min={_num(min)},max={_num(max)}", eigs=eigs)


def diag_positive(k: int = 128, min: float = 1e-2, max: float = 1e2) -> GeneratorMatrix:
    """Diagonal generator with log-spaced positive eigenvalues."""
    eigs = np.logspace(math.log10(min), math.log10(max), k).astype(complex)
    return GeneratorMatrix(name=f"diag_pos:k={k},min={_num(min)},max={_num(max)}", eigs=eigs)


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


# each gallery member: its constructor, whose defaults are those of the spec,
# and the kinds of its keys
GALLERY = {
    "diag_imag": (diag_imag, {"k": SIZE, "min": POSITIVE, "max": POSITIVE}, ()),
    "diag_pos": (diag_positive, {"k": SIZE, "min": POSITIVE, "max": POSITIVE}, ()),
    "advection": (advection_periodic, {"d": SIZE}, ()),
    "laplacian": (laplacian_dirichlet_1d, {"d": SIZE}, ()),
}


def make_generator(spec: str) -> GeneratorMatrix:
    """The gallery member a --generator string such as 'diag_imag:k=128,max=100'
    names (cmfun.read_spec).  Its name is its full spec, which reads back as
    the same generator."""
    return read_spec(spec, "--generator", GALLERY, "generator")


def test_vectors(A: GeneratorMatrix, seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """Eight deterministic unit test vectors: all-ones, random complex, eigenvector mixtures."""
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
    return vecs


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

class SemigroupConstants(NamedTuple):
    """The constants M_beta = sup_t ||(tA)^beta e^{-tA}||, read as Mc[beta].

    For a normal A, ||f(A)|| = max_lambda |f(lambda)| and
    sup_t (t|lambda|)^beta e^{-t Re lambda} = (beta/e)^beta (|lambda|/Re lambda)^beta,
    so M_beta = (beta/e)^beta rho^beta.
    """

    rho: float      # max |lambda|/Re lambda over lambda != 0 (inf off a sector)

    # Mc[beta] is M_beta, not a field: the namedtuple's own methods iterate
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
