"""Finite-dimensional operator side: generators, semigroups, fractional powers.

Generators are operators A with spectrum in the closed right half-plane
(so that -A generates a bounded semigroup e^{-tA}).  A diagonalizable one,
A = V diag(eigs) V^{-1}, is its eigenvalue array and an Eigenbasis, which
applies V and V^{-1} to blocks of columns without forming them: the
identity for diagonal generators, an orthonormal DST-I for the Dirichlet
Laplacian and a unitary DFT for the periodic advection operator (both
O(d log d) per column by numpy.fft), and dense user-given factors
otherwise.  Matrix functions are functions of the eigenvalue array:
f(A) = V f(Lambda) V^{-1}.  eigs is None means there is no
eigendecomposition, and then the dense matrix is the generator.  The dense
matrix of a diagonalizable generator is built only when something reads
it; a matrix given together with eigs is checked exactly on construction,
||V diag(eigs) V^{-1} - A||_F <= 1e-12 max(||A||_F, 1).
A Pade matrix-exponential path and a measure-quadrature path exist
independently and are cross-validated, not trusted as oracles.

Operator norm is the spectral 2-norm throughout.  The semigroup
constants M_beta = sup_t ||(tA)^beta e^{-tA}|| come from one closed form on
the eigenvalues, kappa(V) (beta/e)^beta max_lambda (|lambda|/Re lambda)^beta,
exact for normal A (kappa = 1) and an upper bound otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cmfun import CMFunction
from .quadrature import _rule

__all__ = [
    "GeneratorMatrix",
    "Eigenbasis",
    "IdentityBasis",
    "SineBasis",
    "FourierBasis",
    "DenseBasis",
    "SemigroupConstants",
    "diag_imag",
    "diag_positive",
    "advection_periodic",
    "laplacian_dirichlet_1d",
    "make_generator",
    "semigroup_at",
    "frac_on_spectrum",
    "frac_power",
    "hp_apply",
    "scheme_on_spectrum",
    "scheme_apply",
    "semigroup_constants",
    "test_vectors",
    "opnorm",
]

DEFAULT_SEED = 0x5EED

# ||V^H V - I||_F below which a dense V counts as unitary, so that
# ||V diag(d) V^{-1}|| = max |d| up to a relative error of the same size
UNITARY_TOL = 1e-10

# the construction check: ||V diag(eigs) V^{-1} - A||_F relative to max(||A||_F, 1)
RECON_TOL = 1e-12


# ----------------------------------------------------------------------
# eigenbases
# ----------------------------------------------------------------------

class Eigenbasis:
    """An eigenvector matrix V as an operator on blocks of columns:
    apply(Y) = V Y and solve(X) = V^{-1} X along axis 0.  The structured
    kinds are unitary, so kappa = ||V|| ||V^{-1}|| = 1."""

    unitary = True
    kappa = 1.0

    def apply(self, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def similarity(self, vals: np.ndarray) -> np.ndarray:
        """V diag(vals) V^{-1} as a dense matrix."""
        eye = np.eye(len(vals), dtype=complex)
        return self.apply(vals[:, None] * self.solve(eye))


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


class DenseBasis(Eigenbasis):
    """User-given dense factors V and V^{-1} (any diagonalizable generator)."""

    def __init__(self, V, Vinv):
        self.V = np.asarray(V, dtype=complex)
        self.Vinv = np.asarray(Vinv, dtype=complex)

    def apply(self, Y):
        return self.V @ Y

    def solve(self, X):
        return self.Vinv @ X

    def similarity(self, vals):
        return self.V @ (vals[:, None] * self.Vinv)

    @cached_property
    def unitary(self) -> bool:
        gram = self.V.conj().T @ self.V
        return bool(np.linalg.norm(gram - np.eye(len(gram))) <= UNITARY_TOL)

    @cached_property
    def kappa(self) -> float:
        return 1.0 if self.unitary else opnorm(self.V) * opnorm(self.Vinv)


class GeneratorMatrix:
    """A generator with right-half-plane spectrum: eigenvalues and eigenbasis,
    or (eigs None) a dense complex square matrix without a decomposition."""

    def __init__(self, matrix=None, name: str = "A", eigs=None,
                 basis: Eigenbasis | None = None):
        self.name = name
        self.eigs = None if eigs is None else np.asarray(eigs, dtype=complex)
        self.basis = IdentityBasis() if basis is None else basis
        if matrix is not None:
            self.matrix = np.asarray(matrix, dtype=complex)
            shape = self.matrix.shape
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"{name}: a generator matrix must be square, got shape {shape}")
            if self.eigs is not None and self.eigs.shape != shape[:1]:
                raise ValueError(f"{name}: {self.eigs.size} eigenvalues for a "
                                 f"{shape[0]} x {shape[0]} matrix")
        if self.eigs is None:
            if matrix is None or not isinstance(self.basis, IdentityBasis):
                raise ValueError(f"{name}: an eigenbasis needs its eigenvalues, "
                                 "and a generator without them its matrix")
            return
        if np.min(self.eigs.real) < -1e-12:
            raise ValueError("spectrum must lie in the closed right half-plane")
        if matrix is not None and (np.linalg.norm(self.basis.similarity(self.eigs) - self.matrix)
                                   > RECON_TOL * max(np.linalg.norm(self.matrix), 1.0)):
            raise ValueError(f"{name}: eigs and the basis do not reproduce the matrix "
                             "(without a basis it must be diag(eigs))")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix as given, else V diag(eigs) V^{-1}, built on first read."""
        return self.basis.similarity(self.eigs)

    @property
    def dim(self) -> int:
        return len(self.eigs) if self.eigs is not None else self.matrix.shape[0]

    @property
    def unitary(self) -> bool:
        """Whether the eigenbasis V is unitary (always for the gallery's bases)."""
        return self.eigs is not None and self.basis.unitary

    def spectral_map(self, f) -> np.ndarray:
        """V f(Lambda) V^{-1} with f applied to the array of eigenvalues."""
        if self.eigs is None:
            raise ValueError(f"{self.name}: the spectral path needs an eigendecomposition")
        return self.basis.similarity(np.asarray(f(self.eigs), dtype=complex))


def opnorm(B: np.ndarray) -> float:
    return float(np.linalg.norm(B, 2))


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
    if A.eigs is not None:
        picks = [(0, d - 1), (0, d // 2), (d // 4, 3 * d // 4), (d // 3, d - 2)]
        E = np.zeros((d, len(picks)), dtype=complex)
        for col, (i, j) in enumerate(picks):
            E[i, col] += 1.0
            E[j, col] += 1.0
        mixes = A.basis.apply(E)
        vecs.extend(v / np.linalg.norm(v) for v in mixes.T)
    return vecs[:count]


# ----------------------------------------------------------------------
# matrix functions
# ----------------------------------------------------------------------

def semigroup_at(A: GeneratorMatrix, t: float) -> np.ndarray:
    """e^{-tA} (spectral when possible, else Pade scaling-and-squaring)."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return np.eye(A.dim, dtype=complex)
    if A.eigs is not None:
        return A.spectral_map(lambda lam: np.exp(-t * lam))
    import scipy.linalg

    return scipy.linalg.expm(-t * A.matrix)


def frac_on_spectrum(lam, alpha: float) -> np.ndarray:
    """lam^alpha on the principal branch, arg(lam) in [-pi/2, pi/2];
    0^alpha := 0 for alpha > 0 and 1 for alpha = 0."""
    if not 0.0 <= alpha <= 4.0:
        raise ValueError("alpha must lie in [0, 4]")
    lam = np.asarray(lam, dtype=complex)
    zero = lam == 0
    vals = np.where(zero, 1.0, lam) ** alpha
    return np.where(zero, 0.0 if alpha > 0 else 1.0, vals)


def frac_power(A: GeneratorMatrix, alpha: float) -> np.ndarray:
    """A^alpha via the eigendecomposition (see frac_on_spectrum)."""
    return A.spectral_map(lambda lam: frac_on_spectrum(lam, alpha))


def hp_apply(g: CMFunction, A: GeneratorMatrix, path: str = "auto") -> np.ndarray:
    """g(A) = int e^{-sA} nu(ds) by one of three routes.

    "spectral": V g(lambda) V^{-1} (preferred; exact on the gallery),
    "quadrature": atom sum + adaptive panels of density(s) e^{-sA},
    "rational": repeated solves for Euler-type g(z) = (1 + z/n)^{-n}.
    """
    if path == "auto":
        path = "spectral" if A.eigs is not None else "quadrature"
    if path == "spectral":
        return A.spectral_map(g.eval_at)
    if path == "quadrature":
        return _hp_quadrature(g, A)
    if path == "rational":
        return _hp_rational(g, A)
    raise ValueError(f"unknown path {path!r}")


def _hp_quadrature(g: CMFunction, A: GeneratorMatrix, rel_tol: float = 1e-10) -> np.ndarray:
    if g.measure is None:
        raise ValueError(f"{g.name}: quadrature route needs an explicit measure")
    import scipy.linalg

    d = A.dim
    out = np.zeros((d, d), dtype=complex)
    for loc, w in g.measure.atoms:
        out += w * scipy.linalg.expm(-loc * A.matrix)

    x40, w40 = _rule(40)

    def panel(seg, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid + half * x40
        dens = seg.density(nodes)
        acc = np.zeros((d, d), dtype=complex)
        for s, wq, p in zip(nodes, w40, dens):
            if p != 0.0:
                acc += (half * wq * p) * scipy.linalg.expm(-s * A.matrix)
        return acc

    for seg in g.measure.segments:
        a = seg.a
        width = min(1.0, (seg.b - seg.a) if math.isfinite(seg.b) else 1.0)
        total_mass = 0.0
        while a < seg.b:
            b = min(a + width, seg.b)
            piece = panel(seg, a, b)
            out += piece
            pmass = opnorm(piece)
            total_mass = max(total_mass, opnorm(out))
            a = b
            width *= 2.0
            if math.isinf(seg.b) and pmass < 1e-14 * max(total_mass, 1e-300):
                break
            if a > seg.a + 1e6:
                break
    return out


def _hp_rational(g: CMFunction, A: GeneratorMatrix) -> np.ndarray:
    """(I + A/n)^{-n} for g(z) = (1 + z/n)^{-n} (n = g.rational_n), by binary-powered solves."""
    n = g.rational_n
    if n is None:
        raise ValueError(f"{g.name}: rational route applies to Euler-type functions only")
    eye = np.eye(A.dim, dtype=complex)
    base = np.linalg.solve(eye + A.matrix / n, eye)
    return np.linalg.matrix_power(base, n)


def scheme_on_spectrum(g, t: float, n: int, lam) -> np.ndarray:
    """g_t(t lam / n)^n on an array of (complex) spectral points.

    `g` is a CMFunction (g_t = g) or a ScaledFamily; g.at(t) picks g_t.
    """
    w = g.at(t).eval_at(t * np.asarray(lam) / n)
    # polar form |w|^n e^{i n arg w}: on the unit circle np.hypot gives |w| = 1
    # up to rounding, usually exactly, where w ** n = exp(n log w) drifts by n ulp
    return np.hypot(w.real, w.imag) ** n * np.exp(1j * n * np.arctan2(w.imag, w.real))


def scheme_apply(g, A: GeneratorMatrix, t: float, n: int, path: str = "auto") -> np.ndarray:
    """g_t^n((t/n) A), the scheme matrix approximating e^{-tA}."""
    if path == "auto" and A.eigs is not None:
        return A.spectral_map(lambda lam: scheme_on_spectrum(g, t, n, lam))
    B = hp_apply(g.at(t), _scaled_generator(A, t / n), path=path)
    return np.linalg.matrix_power(B, n)


def _scaled_generator(A: GeneratorMatrix, c: float) -> GeneratorMatrix:
    if A.eigs is None:
        return GeneratorMatrix(c * A.matrix, name=A.name)
    return GeneratorMatrix(name=A.name, eigs=c * A.eigs, basis=A.basis)


# ----------------------------------------------------------------------
# semigroup constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SemigroupConstants:
    """Upper bounds M_beta >= sup_t ||(tA)^beta e^{-tA}||, read as Mc[beta].

    For a normal A, ||f(A)|| = max_lambda |f(lambda)| and
    sup_t (t|lambda|)^beta e^{-t Re lambda} = (beta/e)^beta (|lambda|/Re lambda)^beta,
    so M_beta = kappa (beta/e)^beta rho^beta with kappa = ||V|| ||V^{-1}||
    covering a non-normal eigenbasis.
    """

    rho: float      # max |lambda|/Re lambda over lambda != 0 (inf off a sector)
    kappa: float    # ||V|| ||V^{-1}||; 1 for a unitary eigenbasis

    def __getitem__(self, beta) -> float:
        if beta < 0:
            raise ValueError(f"M_beta is defined for beta >= 0, got beta = {beta}")
        return self.kappa * (beta / math.e) ** beta * self.rho ** beta


def semigroup_constants(A: GeneratorMatrix) -> SemigroupConstants:
    """M_beta for every real beta >= 0 from the eigenvalues of A.

    rho is inf if some lambda != 0 has Re lambda <= 0 (then M_beta = inf
    for beta > 0) and 0 if every eigenvalue is 0.  Without an
    eigendecomposition no finite bound is certified: every M_beta is inf.
    """
    if A.eigs is None:
        return SemigroupConstants(math.inf, math.inf)
    lam = A.eigs[A.eigs != 0]
    if np.any(lam.real <= 0):
        rho = math.inf
    else:
        rho = float(np.max(np.abs(lam) / lam.real, initial=0.0))
    return SemigroupConstants(rho, A.basis.kappa)
