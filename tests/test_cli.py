"""Command-line interface: exit codes, CSV determinism, report aggregation."""

import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from cmapprox import cli, cmfun, opcalc, rates
from cmapprox import functionals as fns
from cmapprox.functionals import euler_c_alpha_exact


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_functionals_euler_csv(tmp_path):
    out = tmp_path / "fn.csv"
    rc = cli.main(["functionals", "--g", "euler", "--n", "1,2,8",
                   "--alpha", "0,0.5,1", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 9
    for r in rows:
        n, alpha = int(r["n"]), float(r["alpha"])
        quad = float(r["c_alpha_quadrature"])
        assert quad == pytest.approx(euler_c_alpha_exact(n, alpha), abs=1e-8)
        assert float(r["c_alpha_exact"]) == pytest.approx(euler_c_alpha_exact(n, alpha),
                                                          rel=1e-10)
        assert r["residual_flags"] == ""
    n8 = [r for r in rows if r["n"] == "8"][0]
    assert float(n8["b"]) == pytest.approx(-1.0 / (3.0 * 64.0), rel=1e-9)


def test_functionals_usage_errors(capsys):
    assert cli.main(["functionals"]) == 2
    assert "required" in capsys.readouterr().err
    assert cli.main(["functionals", "--g", "kendall"]) == 2  # family needs t
    assert cli.main(["functionals", "--g", "warp"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_functionals_flag_a_g_without_log_defect(tmp_path):
    # frac_tail carries no log-defect, so its c_alpha is not computed: every
    # row is nan and flagged, where the direct difference gave an unflagged
    # 0.375 for c_1 at n = 1 (the value is 3.092)
    out = tmp_path / "ft.csv"
    assert cli.main(["functionals", "--g", "frac_tail:gamma=0.5", "--n", "1,4",
                     "--alpha", "0,0.5,1", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 6
    for r in rows:
        assert r["c_alpha_quadrature"] == "nan" and r["residual_flags"] == "no_log_defect"
        assert r["a"] == r["b"] == r["d0"] == r["d1"] == "nan"


def test_functionals_alpha_is_checked_before_any_work(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("function built before the alpha check")

    monkeypatch.setattr(cli, "make_builtin", no_build)
    with pytest.raises(SystemExit) as exc:
        cli.main(["functionals", "--g", "euler", "--n", "1", "--alpha", "0.5,2"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "error: --alpha 2 is outside [0, 1], the range of functionals\n")


def test_functionals_euler_pow_string(tmp_path):
    # euler_pow4 is (1 + z/4)^{-4}, Euler's scheme at n = 4
    out = tmp_path / "fn.csv"
    assert cli.main(["functionals", "--g", "euler_pow4", "--n", "1", "--alpha", "0,0.5,1",
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r["g"] for r in rows] == ["euler_pow4"] * 3
    for r in rows:
        assert float(r["c_alpha_quadrature"]) == pytest.approx(
            euler_c_alpha_exact(4, float(r["alpha"])), abs=1e-8)
    assert cmfun.make_builtin("euler_pow4").rational_n == 4


def test_verify_bounds_deterministic(tmp_path):
    argv = ["verify-bounds", "--scheme", "euler", "--generator", "diag_imag:k=16",
            "--suite", "first", "--t", "0.5,1", "--n", "4,16", "--alpha", "1,2"]
    out1, out2 = (tmp_path / f"b{i}.csv" for i in (1, 2))
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    rows = _read_csv(out1)
    assert rows and all(r["pass"] == "true" for r in rows)
    # 2 t * 2 n * 2 alpha * 8 vectors
    assert len(rows) == 64


def test_verify_bounds_stdout_and_json(tmp_path, capsys):
    out = tmp_path / "b.csv"
    argv = ["verify-bounds", "--scheme", "spline", "--generator", "diag_pos:k=8",
            "--suite", "second", "--t", "1", "--n", "4", "--json", "--out", str(out)]
    assert cli.main(argv) == 0
    mirror = json.loads((tmp_path / "b.csv.json").read_text())
    assert len(mirror) == len(_read_csv(out))
    # without --out the CSV goes to stdout
    assert cli.main(["verify-bounds", "--scheme", "euler", "--generator",
                     "diag_imag:k=8", "--suite", "first", "--n", "4"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split(",")[:3] == ["scheme", "generator", "t"]


def test_verify_bounds_usage_errors(tmp_path, capsys):
    base = ["verify-bounds", "--scheme", "euler", "--generator", "diag_imag:k=8"]
    with pytest.raises(SystemExit) as exc:
        cli.main(base + ["--suite", "first", "--n", ""])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(base + ["--suite", "mystery", "--n", "4"])
    assert exc.value.code == 2
    assert cli.main(["verify-bounds", "--scheme", "euler", "--generator",
                     "torus", "--suite", "first", "--n", "4"]) == 2
    assert "available" in capsys.readouterr().err
    assert cli.main(["verify-bounds", "--scheme", "mystery", "--generator",
                     "diag_imag:k=8", "--suite", "first", "--n", "4"]) == 2


@pytest.mark.parametrize("suite", ["holo", "holo2"])
def test_holo_suites_refuse_imaginary_spectrum(suite, capsys):
    rc = cli.main(["verify-bounds", "--scheme", "spline", "--generator", "diag_imag:k=64",
                   "--suite", suite, "--n", "4,16", "--alpha", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{suite}'" in captured.err and "diag_imag:k=64" in captured.err


@pytest.mark.parametrize("scheme, suite, generator, alpha", [
    ("kendall", "nonb2", "diag_imag:k=8", "0.5"),
    ("yosida", "holo2", "laplacian:d=16", "1"),
    ("kendall", "holo2", "laplacian:d=16", "1"),
])
def test_fixed_function_suites_refuse_families(scheme, suite, generator, alpha, capsys):
    # nonb2 reads g'(1/n) and holo2 the functionals of g_n: a family g_t has neither
    rc = cli.main(["verify-bounds", "--scheme", scheme, "--suite", suite,
                   "--generator", generator, "--n", "4", "--alpha", alpha])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{suite}'" in captured.err and f"give t, as in {scheme}:t=" in captured.err


@pytest.mark.parametrize("scheme, name", [
    ("hille", "hille"),
    ("kendall:t=0.5", "kendall(t=0.5)"),
    ("yosida:t=1", "yosida(t=1)"),
])
def test_holo2_refuses_functions_with_an_atom_at_zero(scheme, name, capsys):
    # g(inf) > 0 leaves an atom at 0 in g_n, so d1[g_n] = inf and no finite bound holds
    rc = cli.main(["verify-bounds", "--scheme", scheme, "--suite", "holo2",
                   "--generator", "laplacian:d=8", "--n", "1,2", "--alpha", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'holo2'" in captured.err and f"{name} has g(inf)" in captured.err


def test_holo_refuses_functions_outside_b2(capsys):
    # every holo bound carries g''(0) - 1: for frac_tail it is inf, and rows with
    # an inf bound would pass without checking anything
    rc = cli.main(["verify-bounds", "--scheme", "frac_tail:gamma=0.5", "--suite", "holo",
                   "--generator", "laplacian:d=8", "--n", "4", "--alpha", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'holo'" in captured.err and "frac_tail(gamma=0.5) is not one" in captured.err


def test_first_order_errors_at_small_moduli_match_mpmath(tmp_path):
    # |t lambda| down to 1e-4 at n up to 16384: the defect is about 1e-13 of
    # either term, and the error column must still be the 50-digit one
    out = tmp_path / "first.csv"
    spec = "diag_imag:k=128,min=1e-4,max=1e-2"
    assert cli.main(["verify-bounds", "--scheme", "euler", "--generator", spec,
                     "--suite", "first", "--t", "1", "--n", "1024,4096,16384",
                     "--alpha", "1,2", "--out", str(out)]) == 0
    A = opcalc.make_generator(spec)
    Y = A.basis.solve(np.column_stack(opcalc.test_vectors(A)))
    rows = [r for r in _read_csv(out) if int(r["n"]) == 4096]
    assert len(rows) == 16
    with mpmath.workdps(50):
        z = [mpmath.mpc(lam) for lam in A.eigs]
        d = [abs((1 + zj / 4096) ** -4096 - mpmath.exp(-zj)) for zj in z]
        want = [float(mpmath.sqrt(sum((dj * abs(complex(y))) ** 2 for dj, y in zip(d, col))))
                for col in Y.T]
    for r in rows:
        assert float(r["error"]) == pytest.approx(want[int(r["vector_id"])], rel=1e-10)


def test_holo2_residuals_at_small_moduli_pass():
    assert cli.main(["verify-bounds", "--scheme", "euler", "--generator",
                     "diag_pos:k=128,min=1e-4,max=1e-1", "--suite", "holo2", "--t", "1",
                     "--n", "4096,16384", "--alpha", "0,1,2", "--out", os.devnull]) == 0


def test_cli_looks_up_the_rates_functions_when_it_calls_them(monkeypatch, capsys):
    # a profiler wraps the module attributes of rates after import: each suite of
    # rates.SUITES and the functions with the orders and sharpness verdicts must be
    # reached through the attribute, so that the wrapper is the one called
    grid = ["--t", "1", "--n", "4,8"]
    runs = {
        "first_order_bounds": ["--scheme", "euler", "--generator", "diag_imag:k=8",
                               "--suite", "first", "--alpha", "1"],
        "non_b2_bounds": ["--scheme", "frac_tail:gamma=0.5", "--generator", "diag_imag:k=8",
                          "--suite", "nonb2", "--alpha", "1"],
        "second_order_bounds": ["--scheme", "euler", "--generator", "diag_pos:k=8",
                                "--suite", "second"],
        "holomorphic_bounds": ["--scheme", "euler", "--generator", "laplacian:d=8",
                               "--suite", "holo", "--alpha", "1"],
        "holomorphic_second_order": ["--scheme", "spline", "--generator", "laplacian:d=8",
                                     "--suite", "holo2", "--alpha", "1"],
    }
    runs = {name: ["verify-bounds", *argv, *grid] for name, argv in runs.items()}
    runs["order_verdict"] = ["orders", "--scheme", "euler", "--generator", "laplacian:d=16",
                             "--n", "4,8,16,32"]
    runs["sharpness_rows"] = ["sharpness", "--which", "euler", "--n", "4"]
    for name, argv in runs.items():
        real, calls = getattr(rates, name), []

        def spy(*args, real=real, calls=calls, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rates, name, spy)
        assert cli.main(argv) == 0, name
        assert calls, f"cli did not reach rates.{name}"
        if argv[0] == "verify-bounds":
            assert [args[2:4] for args in calls] == [(1.0, 4), (1.0, 8)]
    capsys.readouterr()


@pytest.mark.parametrize("suite, alpha, admitted", [
    ("first", "3", "0.5,2"),
    ("nonb2", "2", "0,1"),
    ("holo", "2.5", "0,1"),
    ("holo2", "3.5", "0,3"),
])
def test_suites_refuse_alpha_outside_their_theorem(suite, alpha, admitted, monkeypatch,
                                                   capsys):
    base = ["verify-bounds", "--scheme", "spline", "--generator", "laplacian:d=8",
            "--suite", suite, "--n", "4"]
    assert cli.main(base + ["--alpha", admitted]) == 0
    capsys.readouterr()

    # the grid is checked before any generator is built
    def no_compute(spec):
        raise AssertionError("generator built before the alpha check")

    monkeypatch.setattr(cli.opcalc, "make_generator", no_compute)
    with pytest.raises(SystemExit) as exc:
        cli.main(base + ["--alpha", f"0.5,{alpha}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha" in captured.err and alpha in captured.err and f"'{suite}'" in captured.err


def test_holo_run_computes_each_c_alpha_once(tmp_path, monkeypatch):
    # 3 t x 4 n x 3 alpha cells ask for c_alpha[g_n] 36 times; 12 are distinct,
    # and the 3 alphas of each of the 4 g_n share one quadrature
    fns._C_ALPHA.clear()
    cmfun._power_scale.cache_clear()
    quadratures, reads = [], []
    inner_quad, inner_read = fns._c_alpha_quadrature, fns.c_alpha_quad

    def quadrature(g, alphas, rel_tol):
        quadratures.append((g.name, alphas))
        return inner_quad(g, alphas, rel_tol)

    def read(g, alpha, *args):
        reads.append((g.name, alpha))
        return inner_read(g, alpha, *args)

    monkeypatch.setattr(fns, "_c_alpha_quadrature", quadrature)
    monkeypatch.setattr(fns, "c_alpha_quad", read)
    assert cli.main(["verify-bounds", "--scheme", "spline", "--generator", "laplacian:d=16",
                     "--suite", "holo", "--t", "0.25,1,4", "--n", "4,16,64,256",
                     "--alpha", "0,0.5,1", "--out", str(tmp_path / "h.csv")]) == 0
    assert sorted(quadratures) == [(f"spline_pow{n}", (0.0, 0.5, 1.0)) for n in (16, 256, 4, 64)]
    assert len(reads) == 36 and len(set(reads)) == 12


def test_empty_list_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-bounds", "--scheme", "euler", "--generator", "diag_imag:k=8",
                  "--suite", "first", "--n", ","])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["functionals", "--g", "euler", "--alpha", ","])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_closed_stdout_exits_without_traceback():
    # the reader of the pipe is gone before the first write, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cmapprox.cli", "verify-bounds", "--scheme", "euler",
             "--generator", "diag_imag:k=8", "--suite", "first", "--n", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ""


def test_config_file_with_flag_overrides(tmp_path):
    cfg = {"scheme": "euler", "generator": "diag_imag:k=8", "suite": "first",
           "t": [1.0], "n": [4], "alpha": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "c.csv"
    assert cli.main(["verify-bounds", "--config", str(cfg_path),
                     "--n", "8", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert {r["n"] for r in rows} == {"8"}  # flag overrode the config grid


def test_optimality_command(tmp_path):
    # alpha = 1 on an imaginary spectrum decays like n^{-1/2}
    out = tmp_path / "o.csv"
    rc = cli.main(["orders", "--scheme", "euler",
                   "--generator", "diag_imag:k=400,min=0.01,max=1e5", "--n",
                   ",".join(str(2 ** k) for k in range(4, 11)),
                   "--alpha", "1", "--out", str(out)])
    assert rc == 0
    (row,) = _read_csv(out)
    assert row["pass"] == "true"
    assert float(row["slope"]) == pytest.approx(-0.5, abs=0.1)


def test_orders_command(tmp_path):
    out = tmp_path / "ord.csv"
    rc = cli.main(["orders", "--scheme", "euler", "--generator", "laplacian:d=16",
                   "--t", "1", "--n", "4,8,16,32,64,128", "--out", str(out)])
    assert rc == 0
    (row,) = _read_csv(out)
    assert float(row["slope"]) == pytest.approx(-1.0, abs=0.1)
    assert float(row["r_squared"]) > 0.99


def test_orders_exact_scheme_over_a_long_grid(tmp_path):
    # exp carries L = 0, so its defect is an exact zero at every n up to 1024
    out = tmp_path / "ord.csv"
    assert cli.main(["orders", "--scheme", "exp", "--generator", "laplacian:d=16",
                     "--n", ",".join(str(4 * 2 ** k) for k in range(9)),
                     "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert row["flag"] == "exact" and row["pass"] == "true"


def test_sharpness_command(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["sharpness", "--which", "both", "--n", "4,16,64",
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert {r["experiment"] for r in rows} == {"euler-scalar", "shift-I1I2"}
    assert all(r["pass"] == "true" for r in rows)


def test_sharpness_euler_rows_check_the_bound(monkeypatch, capsys):
    # holo-sharp at alpha = 0 on a positive spectrum: sup <= M_2 r_{0,n}, M_2 = (2/e)^2
    def bound(n):
        return (2.0 / math.e) ** 2 * rates.euler_sharp_r(n, 0.0)

    rep = rates.euler_scalar_sharpness([1, 4, 1024])
    ratios = [r["sup"] / bound(r["n"]) for r in rep["rows"]]
    assert ratios == pytest.approx([0.645, 0.886, 0.9995], abs=1e-3)

    sup = 1.01 * bound(4)
    monkeypatch.setattr(cli.rates, "euler_scalar_sharpness", lambda ns: {
        "rows": [{"n": 4, "sup": sup, "t_star": 1.0, "n_sup": 4 * sup}],
        "limit": 2.0 * math.exp(-2.0), "fitted_next_order": 0.0})
    assert cli.main(["sharpness", "--which", "euler", "--n", "4"]) == 1
    header, row = capsys.readouterr().out.splitlines()
    assert header.endswith(",pass") and row.endswith(",false")


def test_functionals_read_rational_n(tmp_path):
    # euler_pow2 at n = 2 is Euler's scheme at n = 4, so it gets the same closed forms
    rows = {}
    for g, n in (("euler_pow2", "2"), ("euler", "4")):
        out = tmp_path / f"{g}.csv"
        assert cli.main(["functionals", "--g", g, "--n", n, "--alpha", "0,0.5,1",
                         "--out", str(out)]) == 0
        rows[g] = _read_csv(out)
    for a, b in zip(rows["euler_pow2"], rows["euler"]):
        assert a["L"] == b["L"] != "nan"
        assert a["c_alpha_exact"] == b["c_alpha_exact"] != "nan"
    # and the holo suite the same sharp constants r_{alpha, 2n}
    bounds = {}
    for g, n in (("euler_pow2", "2"), ("euler", "4")):
        out = tmp_path / f"{g}-holo.csv"
        assert cli.main(["verify-bounds", "--scheme", g, "--generator", "laplacian:d=16",
                         "--suite", "holo", "--n", n, "--alpha", "0,0.5,1",
                         "--out", str(out)]) == 0
        bounds[g] = [r["bound"] for r in _read_csv(out) if r["tag"] == "holo-sharp"]
    assert len(bounds["euler"]) == 24 and bounds["euler_pow2"] == bounds["euler"]


@pytest.mark.parametrize("spec, key, value", [
    ("diag_imag:k=4,foo=3", "foo", "3"),
    ("diag_imag:k=abc", "k", "abc"),
    ("diag_imag:k=0", "k", "0"),
    ("laplacian:d=0", "d", "0"),
])
def test_generator_strings_are_checked(spec, key, value, capsys):
    rc = cli.main(["verify-bounds", "--scheme", "euler", "--generator", spec,
                   "--suite", "first", "--n", "4", "--alpha", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--generator" in captured.err and f"{key}='{value}'" in captured.err
    if key == "foo":
        assert "takes k, min, max" in captured.err


@pytest.mark.parametrize("spec, named", [
    ("frac_tail", "gamma=<value>"),
    ("chung:a=0.5+0.5", "t=<value>"),
    ("kendall:t=abc", "t='abc'"),
    ("euler:foo=1", "foo='1'"),
])
def test_scheme_strings_are_checked(spec, named, capsys):
    rc = cli.main(["verify-bounds", "--scheme", spec, "--generator", "diag_imag:k=8",
                   "--suite", "first", "--n", "4", "--alpha", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--scheme {spec!r}" in captured.err and named in captured.err
    if spec == "euler:foo=1":
        assert "takes no keys" in captured.err


def test_functionals_names_the_g_flag(capsys):
    assert cli.main(["functionals", "--g", "kendall:s=1", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "--g 'kendall:s=1'" in err and "s='1'" in err and "takes t" in err


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


@pytest.mark.parametrize("argv", [
    ["functionals", "--g", "euler", "--n", "1,1024", "--alpha", "0,0.5,1"],
    ["verify-bounds", "--scheme", "spline", "--generator", "laplacian:d=64",
     "--suite", "holo", "--n", "4,16", "--alpha", "0,0.5,1"],
    ["verify-bounds", "--scheme", "frac_tail:gamma=0.5", "--generator", "diag_imag:k=32",
     "--suite", "nonb2", "--n", "4,16", "--alpha", "0.5,1"],
], ids=["functionals", "holo", "nonb2"])
def test_spectral_and_functional_commands_load_no_scipy(argv, tmp_path):
    run_cli = ("import sys; from cmapprox.cli import main; code = main(sys.argv[1:]); "
               "loaded = sorted(m for m in sys.modules if m.startswith('scipy')); "
               "assert not loaded, loaded; sys.exit(code)")
    out = str(tmp_path / "out.csv")
    proc = subprocess.run([sys.executable, "-c", run_cli, *argv, "--out", out],
                          capture_output=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(_read_csv(out)) > 1


@pytest.mark.parametrize("argv", [
    ["functionals", "--g", "spline", "--n", "1,4,1024", "--alpha", "0,0.5,1"],
    ["verify-bounds", "--scheme", "euler", "--generator", "advection:d=64",
     "--suite", "first", "--t", "1", "--n", "4,16", "--alpha", "1"],
], ids=["functionals", "advection"])
def test_commands_load_no_numpy_polynomial(argv, tmp_path):
    # the Gauss-Legendre rule and polynomial densities take numpy alone
    run_cli = ("import sys; from cmapprox.cli import main; code = main(sys.argv[1:]); "
               "assert 'numpy.polynomial' not in sys.modules; sys.exit(code)")
    out = str(tmp_path / "out.csv")
    proc = subprocess.run([sys.executable, "-c", run_cli, *argv, "--out", out],
                          capture_output=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(_read_csv(out)) > 1


def test_scipy_paths_import_it_when_run(tmp_path):
    # scipy is loaded in two places, each when it runs: the incomplete-gamma
    # branch of monomial_exp_integral (c b >= m + 1) and sharpness --which shift
    probe = ("import math, sys; from cmapprox import polyexp; "
             "assert not any(m.startswith('scipy') for m in sys.modules); "
             "v = polyexp.monomial_exp_integral(0, 2.0, 1.0, 4.0); "
             "assert abs(v - (math.exp(-2.0) - math.exp(-8.0)) / 2.0) <= 1e-16, v; "
             "assert 'scipy.special' in sys.modules")
    run_cli = ("import sys; from cmapprox.cli import main; "
               "assert not any(m.startswith('scipy') for m in sys.modules); "
               "code = main(sys.argv[1:]); assert 'scipy.special' in sys.modules; sys.exit(code)")
    out = str(tmp_path / "shift.csv")
    for argv in ([sys.executable, "-c", probe],
                 [sys.executable, "-c", run_cli, "sharpness", "--which", "shift",
                  "--n", "4,16", "--out", out]):
        proc = subprocess.run(argv, capture_output=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
    assert len(_read_csv(out)) == 2


def test_commands_run_without_mpmath(tmp_path):
    bump = tmp_path / "bump.json"
    bump.write_text(json.dumps(
        {"segments": [{"a": 0, "b": 2, "poly": [0, 0, 3.75, -3.75, 0.9375]}]}))
    env = _src_env()
    blocked = "import sys; sys.modules['mpmath'] = None; "
    probe = subprocess.run([sys.executable, "-c", blocked + "import mpmath"],
                           capture_output=True, env=env, timeout=120)
    assert probe.returncode != 0  # the block holds
    run_cli = blocked + "from cmapprox.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (
        ["verify-bounds", "--scheme", f"measure:{bump}", "--generator", "laplacian:d=64",
         "--suite", "first", "--n", "4,16", "--alpha", "1,2"],
        ["verify-bounds", "--scheme", "frac_tail:gamma=0.5", "--generator", "diag_imag:k=64",
         "--suite", "nonb2", "--n", "4,16", "--alpha", "0.5,1"],
    ):
        proc = subprocess.run([sys.executable, "-c", run_cli, *argv],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().count("\n") > 1


def test_report_aggregation(tmp_path, capsys):
    b = tmp_path / "b.csv"
    assert cli.main(["verify-bounds", "--scheme", "euler", "--generator",
                     "diag_imag:k=8", "--suite", "first", "--n", "4,8",
                     "--alpha", "1,2", "--out", str(b)]) == 0
    summary = tmp_path / "sum.csv"
    assert cli.main(["report", str(b), "--out", str(summary)]) == 0
    rows = _read_csv(summary)
    assert {r["tag"] for r in rows} == {"first-order-A1", "first-order-A2"}
    assert all(r["status"] == "ok" and r["failed"] == "0" for r in rows)

    # doctor one row to fail and expect exit 1 with a FAIL line
    doctored = tmp_path / "bad.csv"
    all_rows = _read_csv(b)
    all_rows[0]["pass"] = "false"
    with open(doctored, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(all_rows[0]))
        w.writeheader()
        w.writerows(all_rows)
    assert cli.main(["report", str(doctored), "--out", str(summary)]) == 1
    rows = _read_csv(summary)
    assert any(r["status"] == "FAIL" for r in rows)
    # missing input file is a usage error
    assert cli.main(["report", str(tmp_path / "ghost.csv")]) == 2
    # a CSV without a pass column has checked nothing: a usage error, not "ok"
    fn = tmp_path / "fn.csv"
    assert cli.main(["functionals", "--g", "euler", "--n", "1,2", "--out", str(fn)]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(b), str(fn), "--out", str(summary)]) == 2
    assert str(fn) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["functionals", "--g", "euler", "--seed", "1"],
    ["functionals", "--g", "euler", "--t", "1"],
    ["orders", "--scheme", "euler", "--n", "4,8", "--seed", "1"],
    ["orders", "--scheme", "euler", "--n", "4,8", "--json"],
    ["sharpness", "--n", "4", "--seed", "1"],
    ["sharpness", "--n", "4", "--config", "c.json"],
    ["report", "x.csv", "--n", "4"],
    ["optimality", "--scheme", "euler", "--n", "4,8"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    # a subcommand that does not exist is refused as an invalid choice
    rejected = "invalid choice: 'optimality'" if argv[0] == "optimality" else \
        "unrecognized arguments"
    assert rejected in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify-bounds", "--t", "nan", "--n", "4"], "--t nan is not a positive finite number"),
    (["verify-bounds", "--t", "inf", "--n", "4"], "--t inf is not a positive finite number"),
    (["verify-bounds", "--t", "0", "--n", "4"], "--t 0 is not a positive finite number"),
    (["orders", "--t", "nan", "--n", "4"], "--t nan is not a positive finite number"),
    (["orders", "--n", "abc"], "--n abc is not a whole number >= 1"),
    (["verify-bounds", "--n", "2.5"], "--n 2.5 is not a whole number >= 1"),
    (["orders", "--n", "4", "--alpha", "abc"], "--alpha abc is not a finite number"),
    (["verify-bounds", "--n", "4", "--alpha", "inf"], "--alpha inf is not a finite number"),
    (["orders", "--n", "4", "--alpha", "4.5"],
     "--alpha 4.5 is outside [0, 4], the range of orders"),
    (["orders", "--n", "4", "--suite", "holo"],
     "--suite 'holo' is not a suite of orders, which takes first or second"),
    (["functionals", "--g", "euler", "--n", "0"], "--n 0 is not a whole number >= 1"),
    (["functionals", "--g", "euler", "--alpha", "nan"], "--alpha nan is not a finite number"),
    (["sharpness", "--n", "1.5"], "--n 1.5 is not a whole number >= 1"),
    (["orders", "--config", "cfg.json"], "--t -1 is not a positive finite number"),
    (["functionals", "--g", "euler", "--n", "1", "--alpha", "0", "--json"],
     "--json writes a mirror of the --out file, so it needs --out"),
    (["verify-bounds", "--n", "4", "--json"],
     "--json writes a mirror of the --out file, so it needs --out"),
])
def test_grid_values_are_checked_before_any_work(argv, message, tmp_path, monkeypatch,
                                                 capsys):
    # flags and --config entries go through one check, ahead of any generator
    def no_compute(spec):
        raise AssertionError("generator built before the grid check")

    monkeypatch.setattr(cli.opcalc, "make_generator", no_compute)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"t": [1, -1], "n": [4]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_functionals_reads_grids_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [2, 4], "alpha": [0.5]}))
    out = tmp_path / "fn.csv"
    assert cli.main(["functionals", "--g", "euler", "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert [(r["n"], r["alpha"]) for r in _read_csv(out)] == [("2", "0.5"), ("4", "0.5")]


def test_rows_are_sorted_by_grid_coordinates(tmp_path):
    # the flags list the grids in reverse; the rows come out in grid order
    out = tmp_path / "ord.csv"
    cli.main(["orders", "--scheme", "euler", "--generator", "laplacian:d=16",
              "--t", "4,1", "--n", "4,8,16,32", "--alpha", "1,0.5", "--out", str(out)])
    assert [(r["t"], r["alpha"]) for r in _read_csv(out)] == [
        ("1", "0.5"), ("1", "1"), ("4", "0.5"), ("4", "1")]
    out = tmp_path / "fn.csv"
    assert cli.main(["functionals", "--g", "euler", "--n", "8,1", "--alpha", "1,0",
                     "--out", str(out)]) == 0
    assert [(r["n"], r["alpha"]) for r in _read_csv(out)] == [
        ("1", "0"), ("1", "1"), ("8", "0"), ("8", "1")]
    out = tmp_path / "s.csv"
    assert cli.main(["sharpness", "--which", "euler", "--n", "16,4", "--out", str(out)]) == 0
    assert [r["n"] for r in _read_csv(out)] == ["4", "16"]


def _readme_commands():
    """The `cmapprox ...` lines of the README "Command line" block, continuations joined."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cmapprox ")]


def test_readme_and_docstring_name_every_subcommand():
    # the README block runs each registered subcommand and no other;
    # the cli docstring lists exactly those
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    registered = set(sub.choices)
    assert {argv[0] for argv in _readme_commands()} == registered
    listed = cli.__doc__.split("Subcommands:")[1].split("\n\n")[1]
    assert {line.split()[0] for line in listed.splitlines()} == registered


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
