"""Operator side: gallery generators, the eigenvalue-array calculus, semigroup constants.

The references are dense: each gallery operator from its definition, and the
schemes and semigroups by expm and solves (conftest.dense_scheme)."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cmapprox import cmfun, opcalc, rates
from cmapprox.opcalc import (
    GeneratorMatrix,
    advection_periodic,
    diag_imag,
    diag_positive,
    frac_on_spectrum,
    laplacian_dirichlet_1d,
    make_generator,
    semigroup_constants,
)

from conftest import (
    advection_matrix,
    b2_builtins,
    dense_g,
    dense_scheme,
    diag_imag_matrix,
    diag_pos_matrix,
    laplacian_matrix,
)


# ----------------------------------------------------------------------
# gallery
# ----------------------------------------------------------------------

def test_laplacian_small_spectrum():
    A = laplacian_dirichlet_1d(3)
    expected = sorted([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
    assert np.allclose(sorted(np.linalg.eigvalsh(laplacian_matrix(3))), expected, atol=1e-12)
    assert np.allclose(sorted(A.eigs.real), expected, atol=1e-12)
    # the eigenbasis is orthonormal and diagonalizes the tridiagonal matrix
    V, Vinv = A.basis.apply(np.eye(3)), A.basis.solve(np.eye(3))
    assert np.allclose(V @ Vinv, np.eye(3), atol=1e-12)
    assert np.allclose(Vinv @ laplacian_matrix(3) @ V, np.diag(A.eigs), atol=1e-12)


def _sine_factor(d):
    j = np.arange(1, d + 1)
    return math.sqrt(2.0 / (d + 1)) * np.sin(np.outer(j, j) * math.pi / (d + 1))


def _fourier_factor(d):
    j = np.arange(d)
    return np.exp(2j * math.pi * np.outer(j, j) / d) / math.sqrt(d)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("build, explicit, factor", [
    (laplacian_dirichlet_1d, laplacian_matrix, _sine_factor),
    (advection_periodic, advection_matrix, _fourier_factor),
    (diag_imag, diag_imag_matrix, np.eye),
    (diag_positive, diag_pos_matrix, np.eye),
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
    # the same product with V and V^{-1} applied as operators, as the suites do
    rebuilt = A.basis.apply(A.eigs[:, None] * A.basis.solve(eye))
    assert np.max(np.abs(rebuilt - M)) <= 1e-13 * scale


def test_cli_path_forms_no_dense_matrix():
    # a gallery generator, its test vectors and a holo cell work on arrays of
    # length d: one complex d x d array at d = 2048 would be 64 MiB
    tracemalloc.start()
    try:
        A = make_generator("laplacian:d=2048")
        vectors = opcalc.test_vectors(A)
        rows = rates.holomorphic_bounds(cmfun.euler(), A, [1.0], [16], (0.0, 0.5, 1.0), vectors)
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
    # the message names the generator and its first eigenvalue left of the axis
    with pytest.raises(ValueError, match=r"^left: .*right half-plane.*eigenvalue -2\+1j "):
        GeneratorMatrix("left", [1.0, -2.0 + 1j, -3.0])
    # roundoff just left of the imaginary axis is accepted
    assert GeneratorMatrix("edge", [-1e-13 + 1j]).dim == 1


def test_probe_vectors_are_unit_and_deterministic():
    A = diag_positive(16)
    vs1 = opcalc.test_vectors(A)
    vs2 = opcalc.test_vectors(A)
    assert len(vs1) == 8
    for v, w in zip(vs1, vs2):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(v, w)


# ----------------------------------------------------------------------
# fractional powers and the eigenvalue-array norms
# ----------------------------------------------------------------------

def test_frac_on_spectrum_values():
    lam = diag_positive(8).eigs
    assert np.allclose(frac_on_spectrum(lam, 1.0), lam, rtol=1e-15, atol=0.0)
    assert frac_on_spectrum(4.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert frac_on_spectrum(1j, 0.5) == pytest.approx(cmath.exp(1j * math.pi / 4), abs=1e-14)
    # the message names the alpha it rejects
    for alpha in (-0.5, 4.5):
        with pytest.raises(ValueError, match=f"alpha = {alpha:g} is outside"):
            frac_on_spectrum(lam, alpha)


def test_frac_on_spectrum_zero_eigenvalue():
    # 0^alpha is 0 for alpha > 0 and 1 for alpha = 0
    lam = np.array([0.0, 1.0])
    assert np.array_equal(frac_on_spectrum(lam, 0.5), [0.0, 1.0])
    assert np.array_equal(frac_on_spectrum(lam, 0.0), [1.0, 1.0])
    assert np.array_equal(frac_on_spectrum(lam, 4.0), [0.0, 1.0])


def _dense_power(M, alpha):
    """M^alpha for the alphas of the test below: integer powers and sqrtm."""
    whole = np.linalg.matrix_power(M, int(alpha))
    return whole if float(alpha).is_integer() else scipy.linalg.sqrtm(M) @ whole


@pytest.mark.parametrize("build, explicit", [
    (diag_imag, diag_imag_matrix), (diag_positive, diag_pos_matrix),
    (laplacian_dirichlet_1d, laplacian_matrix), (advection_periodic, advection_matrix),
], ids=["diag_imag", "diag_pos", "laplacian", "advection"])
def test_eigen_path_matches_dense(build, explicit):
    # the suites' norms on the eigenvalue array against dense products of the
    # operator's closed form: fractional powers, scheme defects and residuals
    def close(got, want, abs_tol=1e-11):
        return abs(got - want) <= 1e-9 * abs(want) + abs_tol

    A, M = build(24), explicit(24)
    vectors = opcalc.test_vectors(A)
    for alpha in (0.0, 0.5, 1.0, 2.5):
        P = _dense_power(M, alpha)
        # on the kernel of the advection matrix (the constants) sqrtm is only good
        # to about sqrt(eps ||M||), the square root of the zero eigenvalue's roundoff
        tol = 1e-7 if alpha == 0.5 and build is advection_periodic else 1e-11
        [[frac]], _ = A.norms([lambda lam: frac_on_spectrum(lam, alpha)], vectors)
        for got, x in zip(frac, vectors):
            assert close(got, np.linalg.norm(P @ x), tol)
    for g in (cmfun.euler(), cmfun.spline(), cmfun.make_builtin("kendall")):
        for t, n in ((0.5, 3), (1.0, 200)):
            E = scipy.linalg.expm(-t * M)
            D = dense_scheme(g, M, t, n) - E
            [defect] = rates._errors(g.at(t), [t], [n], A.dim)
            [residual] = rates._errors(g.at(t), [t], [n], A.dim, cmfun.CMFunction.residual)
            ([errors], [residuals]), _ = A.norms([defect, residual], vectors)
            for got, x in zip(errors, vectors):
                assert close(got, np.linalg.norm(D @ x))
            [op] = A.opnorm(defect)
            assert close(op, np.linalg.norm(D, 2))
            h = g.at(t).moments[2] - 1.0
            R = D - (h * t ** 2 / (2.0 * n)) * (E @ M @ M)
            for got, x in zip(residuals, vectors):
                assert close(got, np.linalg.norm(R @ x))


def test_rows_carry_python_scalars():
    # so that the CSV prints pass as true/false
    A = laplacian_dirichlet_1d(24)
    rows = rates.holomorphic_bounds(cmfun.spline(), A, [1.0], [4], (0.5,), opcalc.test_vectors(A))
    assert all(type(r["error"]) is float and type(r["pass"]) is bool for r in rows)


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


def _check_constants_bound(A: GeneratorMatrix, M: np.ndarray, Q: np.ndarray):
    """Mc[beta] against ||(tM)^beta e^{-tM}|| for the dense normal M = Q diag(eigs) Q^H:
    expm and matrix powers for integer beta, Q with the principal branch otherwise.
    For normal M the closed form is the sup itself, attained at t = beta/Re lambda."""
    Mc = semigroup_constants(A)
    normA = np.linalg.norm(M, 2)
    # the maximizers t = beta/Re lambda of the scalar sups, plus a log grid
    re = A.eigs.real[A.eigs.real > 0]
    ts = sorted({0.0, *np.logspace(-2, 1.5, 15), *(b / r for b in BETAS[1:] for r in re)})
    best = dict.fromkeys(BETAS, 0.0)
    for t in ts:
        E = scipy.linalg.expm(-t * M)
        for beta in BETAS:
            if float(beta).is_integer():
                B = np.linalg.matrix_power(t * M, int(beta)) @ E
            else:
                z = t * A.eigs
                f = np.where(z == 0, 0.0, z ** beta * np.exp(-z))
                B = Q @ np.diag(f) @ Q.conj().T
            got = np.linalg.norm(B, 2)
            # dense roundoff: about eps (1 + ||tA||) for e^{-tA}, times ||tA||^beta
            noise = 1e-13 * (1.0 + t * normA) ** (beta + 1.0)
            assert got <= Mc[beta] * (1.0 + 1e-9) + noise, (beta, t, got, Mc[beta])
            best[beta] = max(best[beta], got)
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
    _check_constants_bound(GeneratorMatrix("normal", lam), Q @ np.diag(lam) @ Q.conj().T, Q)


# ----------------------------------------------------------------------
# calculus identities
# ----------------------------------------------------------------------

def test_defect_factorization():
    # g(A) - e^{-A} = A^alpha Delta_alpha(A) with Delta_alpha(z) = (g(z) - e^{-z})/z^alpha:
    # the defect kernel and frac_on_spectrum on the eigenvalues, taken back to
    # the dense basis, against the dense g(A) - expm(-A)
    d = 16
    A, M, V = laplacian_dirichlet_1d(d), laplacian_matrix(d), _sine_factor(d)
    lam = A.eigs.real
    for g in (cmfun.euler(), cmfun.spline()):
        lhs = dense_g(g, M) - scipy.linalg.expm(-M)
        for alpha in (0.5, 1.0, 2.0):
            f = frac_on_spectrum(lam, alpha) * (g.defect(lam) / lam ** alpha)
            assert np.linalg.norm(lhs - V @ np.diag(f) @ V.T, 2) <= 1e-12


def test_residual_norm_bound():
    # ||g(A) - e^{-A}|| <= sup_lambda (g(lambda) - e^{-lambda}) for normal A, by
    # the defect kernel and against the dense diagonal operator
    A, M = diag_positive(32), diag_pos_matrix(32)
    lam = A.eigs.real
    for g in b2_builtins():
        sup_r = max(float(g(x)) - math.exp(-x) for x in lam)
        assert A.opnorm(g.defect) <= sup_r + 1e-12
        R = np.diag(g(np.diag(M).real)) - scipy.linalg.expm(-M)
        assert np.linalg.norm(R, 2) <= sup_r + 1e-12


# ----------------------------------------------------------------------
# g(A) and the schemes on the spectrum
# ----------------------------------------------------------------------

def _on_spectrum(A, f):
    """V diag(f) V^H as a dense matrix, with V and V^H applied by the basis."""
    eye = np.eye(A.dim, dtype=complex)
    return A.basis.apply(f[:, None] * A.basis.solve(eye))


@pytest.mark.parametrize("build, explicit", [
    (diag_imag, diag_imag_matrix), (diag_positive, diag_pos_matrix),
    (laplacian_dirichlet_1d, laplacian_matrix), (advection_periodic, advection_matrix),
], ids=["diag_imag", "diag_pos", "laplacian", "advection"])
def test_g_of_A_on_the_spectrum_matches_dense(build, explicit):
    # for a normal A the Hille-Phillips g(A) is g on the eigenvalues: against
    # expm and solves of the operator's closed form
    A, M = build(24), explicit(24)
    for g in (cmfun.exponential(), cmfun.euler(), cmfun.spline(), cmfun.kendall(0.5)):
        for t in (0.5, 2.0):
            G = _on_spectrum(A, g(t * A.eigs))
            assert np.max(np.abs(G - dense_g(g, t * M))) <= 1e-11, (g.name, t)


def test_g_of_A_is_a_contraction():
    # |g(z)| <= g(0) = 1 on the closed right half-plane, so ||g(A)|| <= 1 for normal A
    for A in (diag_imag(24), laplacian_dirichlet_1d(24), advection_periodic(24)):
        for g in b2_builtins():
            assert A.opnorm(g) <= 1.0 + 1e-12, (A.name, g.name)


def test_exponential_scheme_has_no_defect():
    # (e^{-tA/n})^n = e^{-tA} for every n
    for A in (diag_imag(16), laplacian_dirichlet_1d(16), advection_periodic(16)):
        [errors] = rates._errors(cmfun.exponential(), [1.7], (1, 3, 64), A.dim)
        assert max(A.opnorm(errors)) <= 1e-15


def test_scheme_values_from_closed_forms():
    # g_t(t lambda/n)^n, read back from the defect as defect + e^{-t lambda}
    one = np.array([1.0 + 0j])

    def scheme(g, t, n):
        [errors] = rates._errors(g, [t], [n], 1)
        return complex(errors(one)[0, 0]) + math.exp(-t)

    assert scheme(cmfun.euler(), 1.0, 1) == pytest.approx(0.5, rel=1e-13)
    assert scheme(cmfun.euler(), 1.0, 2) == pytest.approx(4.0 / 9.0, rel=1e-13)
    assert scheme(cmfun.kendall(0.5), 1.0, 1) == pytest.approx(0.5 + 0.5 * math.exp(-2.0),
                                                                rel=1e-13)
    # the kendall family: g_t(t lambda/n) = (1 - t) + t e^{-lambda/n}
    fam = cmfun.make_builtin("kendall")
    A, t, n = diag_positive(8), 0.5, 3
    want = ((1.0 - t) + t * np.exp(-A.eigs.real / n)) ** n
    [errors] = rates._errors(fam.at(t), [t], [n], A.dim)
    got = errors(A.eigs)[0] + np.exp(-t * A.eigs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
