"""Output checks that share no code with cmapprox.

Each check takes the rows of one command's CSV (read by header, so extra
columns are ignored) and returns a list of problems; an empty list means
the output is correct.  Nothing here compares a `bound` with a stored
value: bounds are only used to recompute `pass`.

- `check_bound_rows`: row count and grid coverage of a `verify-bounds`
  CSV, `pass` recomputed from `error` and `bound` with the README slack,
  and `error` recomputed for a few (t, n) cells chosen by the seed from
  dense closed forms: `scipy.linalg.expm` for the semigroup, solves for
  Euler, the spline formula, and an mpmath formula for `frac_tail` on a
  diagonal generator.
- `check_functional_rows`: row count and grid coverage of a `functionals`
  CSV, `a = (g''(0) - 1)/(2n)`, Euler's `c_alpha` against its closed form
  from `scipy.special`, and spline's `c_alpha` for a few cells against an
  mpmath quadrature.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg
from scipy.special import digamma, gammaln

SLACK_REL = 1e-9          # README: pass <=> error <= bound (1 + 1e-9) + 1e-13
SLACK_ABS = 1e-13
ERROR_REL = 1e-7          # recomputed error vs. printed error (12 digits)
ERROR_ABS = 1e-11         # roundoff floor of dense d <= 512 products on unit vectors
C_ALPHA_REL = 1e-7        # c_alpha quadrature vs. closed form / mpmath
CHECKED_CELLS = 2         # (t, n) cells per verify-bounds command
CHECKED_SPLINE_CELLS = 4  # (n, alpha) cells per spline functionals command

# g''(0) = second moment of the representing measure
SECOND_MOMENT = {"euler": 2.0, "spline": 4.0 / 3.0}


def _grid(text: str, cast=float) -> list:
    return [cast(x) for x in text.split(",") if x.strip()]


def _opts(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


# ----------------------------------------------------------------------
# verify-bounds
# ----------------------------------------------------------------------

def check_bound_rows(argv, rows, rows_per_cell: int, seed: int) -> list[str]:
    opts = _opts(argv)
    ts, ns, alphas = _grid(opts["--t"]), _grid(opts["--n"], int), _grid(opts["--alpha"])
    problems = []
    want = rows_per_cell * len(ts) * len(ns)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, grid gives {want}")
    cells = {(float(r["t"]), int(r["n"])) for r in rows}
    if cells != {(t, n) for t in ts for n in ns}:
        problems.append(f"(t, n) cells {sorted(cells)} do not match the grid")
    seen_alpha = {float(r["alpha"]) for r in rows if int(r["vector_id"]) >= 0}
    if seen_alpha != set(alphas):
        problems.append(f"alphas {sorted(seen_alpha)} do not match the grid {alphas}")
    for r in rows:
        err, bound = float(r["error"]), float(r["bound"])
        ok = err <= bound * (1.0 + SLACK_REL) + SLACK_ABS
        if (r["pass"] == "true") != ok:
            problems.append(f"pass={r['pass']} but error={r['error']} bound={r['bound']}")
        if not ok:
            problems.append(f"row fails its bound: {r}")
    if problems:
        return problems[:10]

    rng = np.random.default_rng(seed)
    grid = [(t, n) for t in ts for n in ns]
    picks = rng.choice(len(grid), size=min(CHECKED_CELLS, len(grid)), replace=False)
    A, basis = generator(opts["--generator"])
    vectors = test_vectors(A.shape[0], basis, seed)
    for k in sorted(picks):
        t, n = grid[k]
        expected = cell_errors(opts["--scheme"], opts["--suite"], A, t, n, vectors)
        for r in rows:
            if (float(r["t"]), int(r["n"])) != (t, n):
                continue
            ref = expected[int(r["vector_id"])]
            got = float(r["error"])
            if not abs(got - ref) <= ERROR_REL * abs(ref) + ERROR_ABS:
                problems.append(f"t={t} n={n} vector {r['vector_id']}: error {got} "
                                f"but dense closed form gives {ref}")
    return problems[:10]


def generator(spec: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Dense matrix and eigenvector basis (None for diagonal) of a gallery string."""
    name, _, argstr = spec.partition(":")
    kw = {k: float(v) for k, _, v in (item.partition("=") for item in argstr.split(",") if item)}
    if name == "laplacian":
        d = int(kw["d"])
        A = 2.0 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)
        j = np.arange(1, d + 1)
        return A, math.sqrt(2.0 / (d + 1)) * np.sin(np.outer(j, j) * math.pi / (d + 1))
    if name == "advection":
        d = int(kw["d"])
        A = d * (np.eye(d) - np.roll(np.eye(d), -1, axis=1))
        j = np.arange(d)
        return A, np.exp(2j * math.pi * np.outer(j, j) / d) / math.sqrt(d)
    if name == "diag_imag":
        k = int(kw["k"])
        mods = np.logspace(math.log10(kw["min"]), math.log10(kw["max"]), k)
        return np.diag(1j * np.where(np.arange(k) % 2 == 0, 1.0, -1.0) * mods), None
    raise ValueError(f"no oracle for generator {spec!r}")


def test_vectors(d: int, basis, seed: int) -> list[np.ndarray]:
    """All-ones, three seeded complex normals, four eigenvector pairs; unit norm."""
    rng = np.random.default_rng(seed)
    vecs = [np.ones(d, dtype=complex) / math.sqrt(d)]
    for _ in range(3):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(v / np.linalg.norm(v))
    B = np.eye(d) if basis is None else basis
    for i, j in [(0, d - 1), (0, d // 2), (d // 4, 3 * d // 4), (d // 3, d - 2)]:
        v = B[:, i] + B[:, j]
        vecs.append(v / np.linalg.norm(v))
    return vecs


def scheme_matrix(scheme: str, A: np.ndarray, t: float, n: int) -> np.ndarray:
    """g(tA/n)^n as a dense matrix."""
    d = A.shape[0]
    B = (t / n) * A
    if scheme == "euler":
        step = scipy.linalg.solve(np.eye(d) + B, np.eye(d))
    elif scheme == "spline":
        # g(z) = (1 - e^{-2z})/(2z) = phi1(-2z) with phi1(x) = (e^x - 1)/x, which is
        # the top-right block of expm([[X, I], [0, 0]]); this avoids the cancellation
        # of I - expm(-2B) on the small eigenvalues of B
        aug = np.zeros((2 * d, 2 * d), dtype=B.dtype)
        aug[:d, :d] = -2.0 * B
        aug[:d, d:] = np.eye(d)
        step = scipy.linalg.expm(aug)[:d, d:]
    elif scheme.startswith("frac_tail:gamma="):
        lam = np.diag(B)
        if np.count_nonzero(B - np.diag(lam)):
            raise ValueError("frac_tail oracle needs a diagonal generator")
        gamma = float(scheme.partition("=")[2])
        step = np.diag([frac_tail_value(gamma, z) for z in lam])
    else:
        raise ValueError(f"no oracle for scheme {scheme!r}")
    return np.linalg.matrix_power(step, n)


def frac_tail_value(gamma: float, z: complex) -> complex:
    """g(z) = (1-gamma) + gamma(gamma+1) int_0^inf e^{-zs} (1+s)^{-2-gamma} ds,
    with the integral written as e^z E_{2+gamma}(z) (generalized exponential integral)."""
    if z == 0:
        return 1.0
    zz = mpmath.mpc(z.real, z.imag)
    tail = mpmath.exp(zz) * mpmath.expint(2.0 + gamma, zz)
    return complex((1.0 - gamma) + gamma * (gamma + 1.0) * tail)


def cell_errors(scheme: str, suite: str, A: np.ndarray, t: float, n: int, vectors) -> dict:
    """vector_id -> error for one (t, n) cell; id -1 is the operator norm."""
    E = np.diag(np.exp(-t * np.diag(A))) if _is_diagonal(A) else scipy.linalg.expm(-t * A)
    D = scheme_matrix(scheme, A, t, n) - E
    if suite == "holo2":
        # residual S - E - (g''(0)-1) t^2/(2n) E A^2
        h = SECOND_MOMENT[scheme] - 1.0
        D = D - (h * t * t / (2.0 * n)) * (E @ A @ A)
    out = {i: float(np.linalg.norm(D @ x)) for i, x in enumerate(vectors)}
    if suite == "holo":
        out[-1] = float(np.linalg.norm(D, 2))
    return out


def _is_diagonal(A: np.ndarray) -> bool:
    return not np.count_nonzero(A - np.diag(np.diag(A)))


# ----------------------------------------------------------------------
# functionals
# ----------------------------------------------------------------------

def check_functional_rows(argv, rows, seed: int) -> list[str]:
    opts = _opts(argv)
    g = opts["--g"]
    ns, alphas = _grid(opts["--n"], int), _grid(opts["--alpha"])
    problems = []
    if len(rows) != len(ns) * len(alphas):
        problems.append(f"{len(rows)} rows, grid gives {len(ns) * len(alphas)}")
    cells = {(int(r["n"]), float(r["alpha"])) for r in rows}
    if cells != {(n, a) for n in ns for a in alphas}:
        problems.append(f"(n, alpha) cells {sorted(cells)} do not match the grid")
    if problems:
        return problems

    rng = np.random.default_rng(seed)
    spline_picks = set(rng.choice(len(rows), size=min(CHECKED_SPLINE_CELLS, len(rows)),
                                  replace=False).tolist())
    for i, r in enumerate(rows):
        n, alpha = int(r["n"]), float(r["alpha"])
        a_ref = (SECOND_MOMENT[g] - 1.0) / (2.0 * n)
        if not math.isclose(float(r["a"]), a_ref, rel_tol=1e-10):
            problems.append(f"n={n}: a={r['a']} but (g''(0)-1)/(2n) = {a_ref}")
        got = float(r["c_alpha_quadrature"])
        if g == "euler":
            ref = euler_c_alpha(n, alpha)
        elif g == "spline" and i in spline_picks:
            ref = spline_c_alpha(n, alpha)
        else:
            continue
        if not math.isclose(got, ref, rel_tol=C_ALPHA_REL):
            problems.append(f"{g} n={n} alpha={alpha}: c_alpha_quadrature {got}, reference {ref}")
    return problems[:10]


def euler_c_alpha(n: int, alpha: float) -> float:
    """c_alpha[(1+z/n)^{-n}] = [1 - Gamma(n+alpha)/(n^alpha Gamma(n))]/(alpha(1-alpha)),
    with the digamma limits at alpha = 0 and 1."""
    if alpha == 0.0:
        return math.log(n) - float(digamma(n))
    if alpha == 1.0:
        return float(digamma(n + 1)) - math.log(n)
    ratio = math.exp(gammaln(n + alpha) - alpha * math.log(n) - gammaln(n))
    return (1.0 - ratio) / (alpha * (1.0 - alpha))


def spline_c_alpha(n: int, alpha: float) -> float:
    """Gamma(2-alpha)^{-1} int_0^inf (g(z/n)^n - e^{-z}) z^{-1-alpha} dz for the spline
    g(z) = (1 - e^{-2z})/(2z), by mpmath quadrature with the working precision raised
    near z = 0, where the difference cancels."""
    with mpmath.workdps(25):
        def f(z):
            extra = int(-2 * mpmath.log10(z)) + 5 if z < 1 else 0
            with mpmath.workdps(mpmath.mp.dps + extra):
                w = 2 * z / n
                return ((-mpmath.expm1(-w) / w) ** n - mpmath.exp(-z)) / z ** (1 + alpha)

        val = mpmath.quad(f, [0, 1, 4, 16, 64, 256, mpmath.inf]) / mpmath.gamma(2 - alpha)
        return float(val)
