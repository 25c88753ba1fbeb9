"""Operator side: gallery generators, matrix functions, semigroup constants."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cmapprox import cmfun, opcalc
from cmapprox.opcalc import (
    DenseBasis,
    GeneratorMatrix,
    advection_periodic,
    diag_imag,
    diag_positive,
    frac_power,
    hp_apply,
    laplacian_dirichlet_1d,
    make_generator,
    opnorm,
    scheme_apply,
    semigroup_at,
    semigroup_constants,
)

from conftest import b2_builtins


def _nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return GeneratorMatrix(A, name="nilpotent")


# ----------------------------------------------------------------------
# gallery
# ----------------------------------------------------------------------

def _laplacian(d):
    """The Dirichlet Laplacian from its definition: tridiagonal (2, -1)."""
    return 2.0 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)


def _advection(d):
    """Periodic upwind advection from its definition: d (I - S), S the cyclic lower shift."""
    return d * (np.eye(d) - np.roll(np.eye(d), 1, axis=0))


def _diag_imag(k):
    return np.diag(1j * (-1.0) ** np.arange(k) * np.logspace(-1, 2, k))


def _diag_pos(k):
    return np.diag(np.logspace(-2, 2, k))


def test_laplacian_small_spectrum():
    A = laplacian_dirichlet_1d(3)
    expected = sorted([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
    assert np.allclose(sorted(np.linalg.eigvalsh(_laplacian(3))), expected, atol=1e-12)
    assert np.allclose(sorted(A.eigs.real), expected, atol=1e-12)
    # the eigenbasis is orthonormal and diagonalizes the tridiagonal matrix
    V, Vinv = A.basis.apply(np.eye(3)), A.basis.solve(np.eye(3))
    assert np.allclose(V @ Vinv, np.eye(3), atol=1e-12)
    assert np.allclose(Vinv @ _laplacian(3) @ V, np.diag(A.eigs), atol=1e-12)


def _sine_factor(d):
    j = np.arange(1, d + 1)
    return math.sqrt(2.0 / (d + 1)) * np.sin(np.outer(j, j) * math.pi / (d + 1))


def _fourier_factor(d):
    j = np.arange(d)
    return np.exp(2j * math.pi * np.outer(j, j) / d) / math.sqrt(d)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("build, explicit, factor", [
    (laplacian_dirichlet_1d, _laplacian, _sine_factor),
    (advection_periodic, _advection, _fourier_factor),
    (diag_imag, _diag_imag, np.eye),
    (diag_positive, _diag_pos, np.eye),
])
def test_gallery_basis_is_the_explicit_eigenbasis(build, explicit, factor, d):
    # the gallery carries no matrix: its eigenvalues and basis must rebuild
    # the operator's closed form
    A, M = build(d), explicit(d)
    eye = np.eye(d, dtype=complex)
    V, Vinv = A.basis.apply(eye), A.basis.solve(eye)
    assert np.max(np.abs(V - factor(d))) <= 1e-13
    assert np.max(np.abs(Vinv @ V - eye)) <= 1e-13
    assert np.max(np.abs(V.conj().T @ V - eye)) <= 1e-13
    scale = max(np.max(np.abs(M)), 1.0)
    assert np.max(np.abs(V @ np.diag(A.eigs) @ Vinv - M)) <= 1e-13 * scale
    assert np.max(np.abs(A.matrix - M)) <= 1e-13 * scale
    assert A.unitary and semigroup_constants(A).kappa == 1.0


def test_construction_check_rejects_wrong_decompositions():
    L = laplacian_dirichlet_1d(8)
    # the right eigenvalues pass; out of the basis' order they fail
    for M, A in ((_laplacian(8), L), (_advection(8), advection_periodic(8))):
        assert np.array_equal(GeneratorMatrix(M, eigs=A.eigs, basis=A.basis).matrix, M)
        with pytest.raises(ValueError, match="do not reproduce"):
            GeneratorMatrix(M, eigs=A.eigs[::-1], basis=A.basis)
    # one off-diagonal entry of the Laplacian off by 1e-6
    M = _laplacian(8)
    M[2, 3] += 1e-6
    with pytest.raises(ValueError, match="do not reproduce"):
        GeneratorMatrix(M, eigs=L.eigs, basis=L.basis)
    # a Vinv that is not the inverse of V, though V diag(eigs) V^{-1} is the matrix
    rng = np.random.default_rng(3)
    V = np.eye(4) + 0.5 * np.triu(rng.standard_normal((4, 4)), 1)
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    M = V @ np.diag(lam) @ np.linalg.inv(V)
    GeneratorMatrix(M, eigs=lam, basis=DenseBasis(V, np.linalg.inv(V)))
    with pytest.raises(ValueError, match="do not reproduce"):
        GeneratorMatrix(M, eigs=lam, basis=DenseBasis(V, np.linalg.inv(V).T))
    # an ill-conditioned V hides the error from anything that only sees V P:
    # V diag(eigs) V^{-1} - M = [[0, -1e-5], [0, 0]]
    V, Vinv = np.diag([1.0, 1e-8]), np.diag([1.0, 1e8])
    with pytest.raises(ValueError, match="do not reproduce"):
        GeneratorMatrix(np.array([[1.0, 1e-5], [0.0, 2.0]]), eigs=np.array([1.0, 2.0]),
                        basis=DenseBasis(V, Vinv))
    # a non-diagonal matrix without a basis
    with pytest.raises(ValueError, match="do not reproduce"):
        GeneratorMatrix(_laplacian(8), eigs=L.eigs)
    # a basis without eigenvalues, and a generator with neither matrix nor eigenvalues
    with pytest.raises(ValueError, match="needs its eigenvalues"):
        GeneratorMatrix(M, basis=DenseBasis(V, Vinv))
    with pytest.raises(ValueError, match="without them its matrix"):
        GeneratorMatrix(name="empty")


def test_construction_checks_shapes():
    # each fails here, naming the generator, not later inside numpy
    with pytest.raises(ValueError, match=r"wide: a generator matrix must be square.*\(2, 3\)"):
        GeneratorMatrix(np.ones((2, 3)), name="wide")
    with pytest.raises(ValueError, match="flat: a generator matrix must be square"):
        GeneratorMatrix(np.ones(3), name="flat")
    with pytest.raises(ValueError, match="short: 2 eigenvalues for a 3 x 3 matrix"):
        GeneratorMatrix(np.eye(3), name="short", eigs=np.ones(2))


def test_cli_path_forms_no_dense_matrix():
    # a gallery generator, its test vectors and a holo cell work on arrays of
    # length d: one complex d x d array at d = 2048 would be 64 MiB
    from cmapprox import rates

    tracemalloc.start()
    try:
        A = make_generator("laplacian:d=2048")
        vectors = opcalc.test_vectors(A)
        rows = rates.holomorphic_bounds(cmfun.euler(), A, 1.0, 16, (0.0, 0.5, 1.0), vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 41
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_advection_eigs():
    d = 16
    A = advection_periodic(d)
    omega = np.exp(2j * np.pi * np.arange(d) / d)
    want = d * (1 - omega)
    # same multiset of eigenvalues (conjugation permutes the Fourier modes)
    key = lambda zs: sorted((round(z.real, 9), round(z.imag, 9)) for z in zs)
    assert key(A.eigs) == key(want)
    assert np.min(A.eigs.real) >= -1e-12


def test_diag_imag_semigroup_is_isometry():
    A = diag_imag(32)
    for t in (0.1, 1.0, 7.0):
        E = semigroup_at(A, t)
        assert opnorm(E) == pytest.approx(1.0, abs=1e-12)
        v = np.ones(32) / math.sqrt(32)
        assert np.linalg.norm(E @ v) == pytest.approx(1.0, abs=1e-12)


def test_make_generator_parsing():
    assert make_generator("diag_imag:k=16,max=10").dim == 16
    assert make_generator("laplacian:d=8").dim == 8
    assert np.all(make_generator("diag_pos").eigs.real > 0)
    with pytest.raises(ValueError, match="available"):
        make_generator("hyperbola")


def test_gallery_names_are_full_specs():
    assert diag_imag(256).name == "diag_imag:k=256,min=0.1,max=100"
    assert diag_positive(128, 1e-4, 1e-2).name == "diag_pos:k=128,min=0.0001,max=0.01"
    assert make_generator("diag_pos:k=8").name == "diag_pos:k=8,min=0.01,max=100"
    assert make_generator("laplacian:d=8").name == "laplacian:d=8"


_SPECS = st.one_of(
    st.builds(lambda name, k, lo, hi: f"{name}:k={k},min={lo!r},max={hi!r}",
              st.sampled_from(["diag_imag", "diag_pos"]), st.integers(1, 16),
              st.floats(1e-8, 1e8), st.floats(1e-8, 1e8)),
    st.builds(lambda name, d: f"{name}:d={d}",
              st.sampled_from(["laplacian", "advection"]), st.integers(1, 16)),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=_SPECS)
def test_generator_names_round_trip(spec):
    A = make_generator(spec)
    B = make_generator(A.name)
    assert B.name == A.name
    assert np.array_equal(B.eigs, A.eigs)


def test_generator_rejects_left_half_plane():
    with pytest.raises(ValueError):
        GeneratorMatrix(np.diag([-1.0 + 0j]), eigs=np.array([-1.0 + 0j]))


def test_generator_without_basis_must_be_diagonal():
    # no V means the eigenbasis is the identity, so the matrix must be diag(eigs):
    # otherwise semigroup_at would drop the off-diagonal part of expm(-M)
    with pytest.raises(ValueError):
        GeneratorMatrix(np.array([[1, 5], [0, 2]]), eigs=np.array([1, 2]))
    A = GeneratorMatrix(np.array([[1, 0], [0, 2]]), eigs=np.array([1, 2]))
    assert A.unitary
    assert semigroup_at(A, 1.0) == pytest.approx(np.diag(np.exp([-1.0, -2.0])), abs=1e-15)


def test_probe_vectors_are_unit_and_deterministic():
    A = diag_positive(16)
    vs1 = opcalc.test_vectors(A)
    vs2 = opcalc.test_vectors(A)
    assert len(vs1) == 8
    for v, w in zip(vs1, vs2):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(v, w)


# ----------------------------------------------------------------------
# semigroup and fractional powers
# ----------------------------------------------------------------------

def test_semigroup_identity_and_diagonal():
    A = diag_positive(8)
    assert np.allclose(semigroup_at(A, 0.0), np.eye(8))
    E = semigroup_at(A, 2.0)
    assert np.allclose(np.diag(E), np.exp(-2.0 * A.eigs), atol=1e-14)
    with pytest.raises(ValueError):
        semigroup_at(A, -1.0)


def test_semigroup_nilpotent_general_path():
    A = _nilpotent()
    E = semigroup_at(A, 1.0)  # expm(-A) = I - A for A^2 = 0
    assert np.allclose(E, np.array([[1.0, -1.0], [0.0, 1.0]]), atol=1e-14)


def test_semigroup_property():
    for A in (diag_imag(16), laplacian_dirichlet_1d(16)):
        E_s, E_t = semigroup_at(A, 0.4), semigroup_at(A, 1.1)
        assert opnorm(E_s @ E_t - semigroup_at(A, 1.5)) <= 1e-10


def test_frac_power_values():
    A = diag_positive(8)
    assert np.allclose(frac_power(A, 1.0), A.matrix, atol=1e-13)
    B = GeneratorMatrix(np.diag([4.0 + 0j]), eigs=np.array([4.0 + 0j]))
    assert frac_power(B, 0.5)[0, 0] == pytest.approx(2.0, abs=1e-14)
    C = GeneratorMatrix(np.diag([1j]), eigs=np.array([1j]))
    assert frac_power(C, 0.5)[0, 0] == pytest.approx(cmath.exp(1j * math.pi / 4), abs=1e-14)
    with pytest.raises(ValueError):
        frac_power(A, -0.5)
    with pytest.raises(ValueError):
        frac_power(A, 4.5)
    with pytest.raises(ValueError):
        frac_power(_nilpotent(), 0.5)


def test_frac_power_zero_eigenvalue():
    A = GeneratorMatrix(np.diag([0.0 + 0j, 1.0 + 0j]),
                        eigs=np.array([0.0 + 0j, 1.0 + 0j]))
    P = frac_power(A, 0.5)
    assert P[0, 0] == 0.0 and P[1, 1] == pytest.approx(1.0)
    assert frac_power(A, 0.0)[0, 0] == 1.0


# ----------------------------------------------------------------------
# hp_apply
# ----------------------------------------------------------------------

def test_hp_apply_exponential_is_semigroup():
    A = laplacian_dirichlet_1d(12)
    assert opnorm(hp_apply(cmfun.exponential(), A) - semigroup_at(A, 1.0)) <= 1e-12


def test_hp_apply_scalar_values():
    one = GeneratorMatrix(np.diag([1.0 + 0j]), eigs=np.array([1.0 + 0j]))
    assert hp_apply(cmfun.euler(), one)[0, 0] == pytest.approx(0.5, abs=1e-13)
    g = cmfun.kendall(0.5)
    val = hp_apply(g, one)[0, 0]
    assert val == pytest.approx(0.5 + 0.5 * math.exp(-2.0), rel=1e-13)


def test_hp_apply_spectral_mapping():
    A = laplacian_dirichlet_1d(16)
    for g in (cmfun.euler(), cmfun.spline()):
        B = hp_apply(g, A)
        got = sorted(np.linalg.eigvals(B).real)
        want = sorted(float(np.atleast_1d(g(lam.real))[0]) for lam in A.eigs)
        assert np.allclose(got, want, atol=1e-10)


def test_hp_apply_norm_bound():
    M0 = 1.0  # normal gallery members
    for g in b2_builtins():
        for A in (diag_imag(24), laplacian_dirichlet_1d(24)):
            B = hp_apply(g, A)
            assert opnorm(B) <= 1.0 * M0 + 1e-10  # g(0) = 1


def test_hp_apply_quadrature_route_matches_spectral():
    A = laplacian_dirichlet_1d(8)
    for g in (cmfun.euler(), cmfun.kendall(0.5), cmfun.spline()):
        dev = opnorm(hp_apply(g, A, path="quadrature") - hp_apply(g, A, path="spectral"))
        assert dev <= 1e-9


def test_hp_apply_rational_route():
    A = laplacian_dirichlet_1d(8)
    g = cmfun.euler_power(4)
    dev = opnorm(hp_apply(g, A, path="rational") - hp_apply(g, A, path="spectral"))
    assert dev <= 1e-11
    with pytest.raises(ValueError):
        hp_apply(cmfun.spline(), A, path="rational")
    with pytest.raises(ValueError):
        hp_apply(cmfun.euler(), A, path="fourier")


def test_rational_route_reads_rational_n_not_the_name():
    A = laplacian_dirichlet_1d(8)
    composed = cmfun.power_scale(cmfun.euler_power(2), 2)  # (1 + z/4)^{-4}
    renamed = dataclasses.replace(cmfun.euler_power(4), name="x")
    for g in (composed, renamed):
        assert g.rational_n == 4
        dev = opnorm(hp_apply(g, A, path="rational") - hp_apply(g, A, path="spectral"))
        assert dev <= 1e-11
    assert cmfun.power_scale(cmfun.spline(), 4).rational_n is None


# ----------------------------------------------------------------------
# scheme_apply
# ----------------------------------------------------------------------

def test_scheme_apply_exponential_exact():
    A = diag_imag(16)
    for n in (1, 3):
        dev = opnorm(scheme_apply(cmfun.exponential(), A, 1.7, n) - semigroup_at(A, 1.7))
        assert dev <= 1e-12


def test_scheme_apply_euler_scalar():
    one = GeneratorMatrix(np.diag([1.0 + 0j]), eigs=np.array([1.0 + 0j]))
    # g(t lam/n)^n = (1 + 1/2)^{-2} = 4/9 at t = 1, n = 2
    assert scheme_apply(cmfun.euler(), one, 1.0, 2)[0, 0] == pytest.approx(4.0 / 9.0, rel=1e-13)


def test_scheme_apply_kendall_family_closed_form():
    fam = cmfun.make_builtin("kendall")
    assert isinstance(fam, cmfun.ScaledFamily)
    A = diag_positive(8)
    t, n = 0.5, 3
    B = scheme_apply(fam, A, t, n)
    gt = fam.at(t)
    want = np.array([gt.eval_at(t * lam / n) ** n for lam in A.eigs])
    assert np.allclose(np.diag(B), want, atol=1e-13)


def test_scheme_apply_matrix_power_path():
    A = laplacian_dirichlet_1d(8)
    g = cmfun.euler()
    spec = scheme_apply(g, A, 1.0, 4)
    quad = scheme_apply(g, A, 1.0, 4, path="quadrature")
    assert opnorm(spec - quad) <= 1e-8


def _nonnormal(d=24):
    """Diagonalizable but not normal: a non-orthogonal eigenbasis."""
    rng = np.random.default_rng(7)
    V = (np.eye(d) + 0.3 * np.triu(rng.standard_normal((d, d)), 1)).astype(complex)
    eigs = np.logspace(-1, 1, d) + 1j * np.linspace(-2.0, 2.0, d)
    Vinv = np.linalg.inv(V)
    return GeneratorMatrix(V @ np.diag(eigs) @ Vinv,
                           name="nonnormal", eigs=eigs, basis=DenseBasis(V, Vinv))


def test_eigen_path_matches_dense():
    from cmapprox import rates

    def close(got, want):
        return abs(got - want) <= 1e-9 * abs(want) + 1e-11

    gallery = [diag_imag(24), diag_positive(24), laplacian_dirichlet_1d(24),
               advection_periodic(24)]
    assert all(A.unitary for A in gallery)
    B = _nonnormal()
    assert not B.unitary
    for A in gallery + [B]:
        vectors = opcalc.test_vectors(A)
        Y = rates._coords(A, vectors)
        for alpha in (0.0, 0.5, 1.0, 2.5):
            P = frac_power(A, alpha)
            for got, x in zip(rates._frac_norms(A, alpha, Y), vectors):
                assert close(got, np.linalg.norm(P @ x))
        for g in (cmfun.euler(), cmfun.spline(), cmfun.make_builtin("kendall")):
            for t, n in ((0.5, 3), (1.0, 200)):
                S, E = scheme_apply(g, A, t, n), semigroup_at(A, t)
                D = S - E
                for got, x in zip(rates._norms(A, rates._defect(g, A, t, n), Y), vectors):
                    assert close(got, np.linalg.norm(D @ x))
                assert close(rates._opnorm(A, rates._defect(g, A, t, n)), opnorm(D))
                h = (g.at(t) if isinstance(g, cmfun.ScaledFamily) else g).moments[2] - 1.0
                R = D - (h * t ** 2 / (2.0 * n)) * (E @ frac_power(A, 2.0))
                for got, x in zip(rates._norms(A, rates._residual(g, A, t, n), Y), vectors):
                    assert close(got, np.linalg.norm(R @ x))
    # rows carry Python scalars, so the CSV prints pass as true/false
    A = laplacian_dirichlet_1d(24)
    rows = rates.holomorphic_bounds(cmfun.spline(), A, 1.0, 4, (0.5,), opcalc.test_vectors(A))
    assert all(type(r.error) is float and type(r.passed) is bool for r in rows)


def test_spectral_order_non_normal_matches_dense():
    # Euler's scheme by dense solves and expm, A^{-k} by integer powers of inv(A):
    # no eigendecomposition enters the reference points
    from cmapprox import rates

    B = _nonnormal()
    d, t, ns = B.dim, 1.0, [4, 8, 16, 32, 64, 128]
    eye = np.eye(d)
    E = scipy.linalg.expm(-t * B.matrix)
    for k in (0, 1):
        W = np.linalg.matrix_power(np.linalg.inv(B.matrix), k)
        points = [(n, opnorm((np.linalg.matrix_power(np.linalg.solve(eye + t * B.matrix / n,
                                                                     eye), n) - E) @ W))
                  for n in ns]
        want = rates.fit_order(points)
        got = rates.spectral_order(cmfun.euler(), B, t, ns, alpha=k)
        assert got.used_points == want.used_points == len(ns)
        assert got.slope == pytest.approx(want.slope, rel=1e-9)
        assert got.intercept == pytest.approx(want.intercept, rel=1e-9)


# ----------------------------------------------------------------------
# semigroup constants
# ----------------------------------------------------------------------

def test_constants_positive_closed_form():
    Mc = semigroup_constants(diag_positive(16))
    assert Mc[0] == 1.0
    assert Mc[1] == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert Mc[2] == pytest.approx(4.0 * math.exp(-2.0), rel=1e-14)
    assert Mc[1.5] == pytest.approx((1.5 / math.e) ** 1.5, rel=1e-14)
    with pytest.raises(ValueError):
        Mc[-0.5]


def test_constants_imaginary():
    Mc = semigroup_constants(diag_imag(16))
    assert Mc[0] == 1.0
    assert all(math.isinf(Mc[beta]) for beta in (1, 2, 3, 4))
    assert all(math.isinf(Mc[beta]) for beta in (0.5, 1.5, 2.5, 3.5))


def test_constants_sampled_nilpotent():
    # no eigendecomposition, so no finite bound is certified; inf is the
    # true M_0 here, since ||e^{-tA}|| = ||I - tA|| grows without bound
    Mc = semigroup_constants(_nilpotent())
    assert Mc[0] > 1.0
    assert all(Mc[b] >= 0.0 for b in range(5))
    assert Mc[0.5] >= Mc[0]


def test_constants_advection_exact():
    # |lambda|/Re lambda = 1/sin(pi j/d) on the circle d(1 - omega^j), largest at j = 1
    d = 64
    Mc = semigroup_constants(advection_periodic(d))
    rho = 1.0 / math.sin(math.pi / d)
    assert Mc[0] == 1.0
    assert Mc[1] == pytest.approx(1.0 / (math.e * math.sin(math.pi / d)), rel=1e-12)
    for beta in (0.5, 1.5, 2, 3, 4):
        assert Mc[beta] == pytest.approx((beta / math.e) ** beta * rho ** beta, rel=1e-12)


BETAS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
_eig = st.one_of(
    st.just(0j),
    st.builds(lambda y: complex(0.0, y), st.floats(-4.0, 4.0)),
    st.builds(complex, st.floats(0.1, 4.0), st.floats(-4.0, 4.0)),
)


def _dense_semigroup_powers(A: GeneratorMatrix, t: float) -> dict:
    """||(tA)^beta e^{-tA}|| for each beta in BETAS: expm and matrix powers for
    integer beta, the eigenbasis with the principal branch otherwise."""
    E = scipy.linalg.expm(-t * A.matrix)
    out = {}
    for beta in BETAS:
        if float(beta).is_integer():
            B = np.linalg.matrix_power(t * A.matrix, int(beta)) @ E
        else:
            z = t * A.eigs
            f = np.where(z == 0, 0.0, z ** beta * np.exp(-z))
            B = A.basis.V @ np.diag(f) @ A.basis.Vinv
        out[beta] = np.linalg.norm(B, 2)
    return out


def _check_constants_bound(A: GeneratorMatrix, tight: bool):
    Mc = semigroup_constants(A)
    normA = np.linalg.norm(A.matrix, 2)
    # the maximizers t = beta/Re lambda of the scalar sups, plus a log grid
    re = A.eigs.real[A.eigs.real > 0]
    ts = sorted({0.0, *np.logspace(-2, 1.5, 15), *(b / r for b in BETAS[1:] for r in re)})
    best = dict.fromkeys(BETAS, 0.0)
    for t in ts:
        for beta, got in _dense_semigroup_powers(A, t).items():
            # dense roundoff: about eps (1 + ||tA||) for e^{-tA}, times ||tA||^beta
            noise = 1e-13 * (1.0 + t * normA) ** (beta + 1.0)
            assert got <= Mc[beta] * (1.0 + 1e-9) + noise, (beta, t, got, Mc[beta])
            best[beta] = max(best[beta], got)
    if tight:
        for beta in BETAS:
            if math.isfinite(Mc[beta]):
                assert best[beta] >= Mc[beta] * (1.0 - 1e-9) - 1e-12, (beta, best[beta])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(_eig, min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_constants_bound_normal_property(eigs, seed):
    rng = np.random.default_rng(seed)
    d = len(eigs)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = np.array(eigs, dtype=complex)
    A = GeneratorMatrix(Q @ np.diag(lam) @ Q.conj().T,
                        eigs=lam, basis=DenseBasis(Q, Q.conj().T))
    assert A.unitary and semigroup_constants(A).kappa == 1.0
    # for normal A the closed form is the sup itself, attained at t = beta/Re lambda
    _check_constants_bound(A, tight=True)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(_eig, min_size=2, max_size=8), st.integers(0, 2 ** 32 - 1),
       st.floats(0.1, 1.0))
def test_constants_bound_nonnormal_property(eigs, seed, skew):
    rng = np.random.default_rng(seed)
    d = len(eigs)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    # a unitary factor keeps A from being triangular, where scipy's expm
    # divides by differences of eigenvalues
    V = Q @ (np.eye(d) + skew * np.triu(G, 1))
    Vinv = np.linalg.inv(V)
    lam = np.array(eigs, dtype=complex)
    A = GeneratorMatrix(V @ np.diag(lam) @ Vinv, eigs=lam, basis=DenseBasis(V, Vinv))
    assert not A.unitary and semigroup_constants(A).kappa > 1.0
    _check_constants_bound(A, tight=False)


# ----------------------------------------------------------------------
# calculus identities
# ----------------------------------------------------------------------

def test_defect_factorization():
    # g(A) - e^{-A} = A^alpha * Delta_alpha(A) on the spectral calculus, with
    # Delta_alpha(z) = (g(z) - e^{-z})/z^alpha
    A = laplacian_dirichlet_1d(16)
    for g in (cmfun.euler(), cmfun.spline()):
        lhs = hp_apply(g, A) - semigroup_at(A, 1.0)
        for alpha in (0.5, 1.0, 2.0):
            D = A.spectral_map(lambda lam: g.defect(lam.real) / lam.real ** alpha)
            rhs = frac_power(A, alpha) @ D
            assert opnorm(lhs - rhs) <= 1e-8


def test_residual_norm_bound():
    # for r = Delta_2-type residuals r(z) = g(z) - e^{-z}: ||r(A)|| <= M0 sup r
    A = diag_positive(32)
    for g in b2_builtins():
        R = hp_apply(g, A) - semigroup_at(A, 1.0)
        sup_r = max(float(np.atleast_1d(g(lam.real))[0]) - math.exp(-lam.real)
                    for lam in A.eigs)
        assert opnorm(R) <= sup_r + 1e-12
