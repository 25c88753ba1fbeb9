"""Command-line interface: exit codes, CSV determinism, report aggregation.

What a command prints on a usage error is a golden record (tests/golden.py);
the tests here need a spy, a patch, an oracle or a fresh interpreter, except
the two tables of spec and measure-file errors, which also run in-process."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from cmapprox import cli, cmfun, opcalc, rates
from cmapprox import functionals as fns
from cmapprox.functionals import euler_c_alpha_exact

from conftest import src_env
from golden import readme_commands


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


@pytest.mark.parametrize("spec", ["exp", "euler", "euler_pow4", "spline", "kendall:t=0.5",
                                  "yosida:t=0.5", "hille", "chung:a=0.25+0.5+0.25,t=1",
                                  "frac_tail:gamma=0.5"])
def test_functionals_name_every_nan(spec, tmp_path):
    # a nan value of g_n is never silent: L without a measure is flagged
    # no_measure, d1 with a divergent c_0 (g(inf) > 0) tail_divergent, and a, b,
    # d0 and c_alpha without a log-defect no_log_defect.  c_alpha_exact is
    # Euler's closed form: a number for the functions of Euler type, nan for
    # every other one
    out = tmp_path / "fn.csv"
    assert cli.main(["functionals", "--g", spec, "--n", "1,2,4", "--alpha", "0,0.5,1",
                     "--out", str(out)]) == 0
    g = cmfun.make_builtin(spec)
    rows = _read_csv(out)
    assert len(rows) == 9
    for r in rows:
        flags = r["residual_flags"].split(";") if r["residual_flags"] else []
        nans = [k for k in ("L", "a", "b", "c_alpha_quadrature", "d0", "d1") if r[k] == "nan"]
        assert not nans or flags, (r["n"], r["alpha"], nans)
        assert (r["L"] == "nan") == ("no_measure" in flags)
        if r["d1"] == "nan" and g.limit_at_inf > 0.0:
            assert "tail_divergent" in flags
        assert (r["c_alpha_exact"] == "nan") == (g.rational_n is None)


def test_functionals_alpha_is_checked_before_any_work(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("function built before the alpha check")

    monkeypatch.setattr(cli, "make_builtin", no_build)
    assert cli.main(["functionals", "--g", "euler", "--n", "1", "--alpha", "0.5,2"]) == 2
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


def test_functionals_json_mirror_holds_the_csv_rows(tmp_path):
    out = tmp_path / "fn.csv"
    assert cli.main(["functionals", "--g", "spline", "--n", "1,4", "--alpha", "0,0.5,1",
                     "--json", "--out", str(out)]) == 0
    mirror = json.loads((tmp_path / "fn.csv.json").read_text())
    assert all(set(r) == set(fns.FIELDS) for r in mirror)
    assert [{k: cli._fmt(v) for k, v in r.items()} for r in mirror] == _read_csv(out)


def test_main_is_the_one_writer_of_every_command(tmp_path, monkeypatch):
    # each command returns its rows and main writes them: one write_csv call
    # per run, given the list of rows that the CSV then holds
    runs = {
        "functionals": ["functionals", "--g", "euler", "--n", "1,4", "--alpha", "0,1"],
        "verify-bounds": ["verify-bounds", "--scheme", "euler", "--generator", "diag_imag:k=8",
                          "--suite", "first", "--n", "4"],
        "orders": ["orders", "--scheme", "euler", "--generator", "laplacian:d=16",
                   "--n", "4,8,16,32"],
        "sharpness": ["sharpness", "--which", "euler", "--n", "4,16"],
        "report": ["report", str(tmp_path / "sharpness.csv")],
    }
    real, calls = cli.write_csv, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "write_csv", spy)
    for name, argv in runs.items():
        calls.clear()
        out = tmp_path / f"{name}.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0, name
        ((path, fields, rows),) = calls
        assert path == str(out) and isinstance(rows, list) and rows, name
        assert _read_csv(out) == [{k: cli._fmt(r[k]) for k in fields} for r in rows], name


@pytest.mark.parametrize("flag, spec, message", [
    ("--scheme", "euler:foo=1", "foo='1' is not a key of euler, which takes no keys"),
    ("--scheme", "kendall:t=abc", "t='abc' is not a finite number"),
    ("--scheme", "yosida:t=inf", "t='inf' is not a finite number"),
    ("--scheme", "chung:a=0.5+nan,t=1", "a='0.5+nan' is not a finite number"),
    ("--scheme", "frac_tail", "frac_tail needs gamma=<value>"),
    ("--generator", "diag_imag:q=1", "q='1' is not a key of diag_imag, which takes k, min, max"),
    ("--generator", "diag_pos:min=0", "min='0' is not a positive finite number"),
    ("--generator", "laplacian:d=2.5", "d='2.5' is not a whole number in [1, 2^16]"),
    ("--generator", "advection:d=-4", "d='-4' is not a whole number in [1, 2^16]"),
])
def test_spec_errors_name_flag_spec_key_and_value(flag, spec, message, capsys):
    # --scheme and --generator strings have one reader: a bad key or value is
    # named with its flag and spec, and says what the value must be
    assert cli.main(["verify-bounds", flag, spec, "--n", "4"]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} {spec!r}: {message}\n")


@pytest.mark.parametrize("scheme", ["kendall:t=0.25", "kendall", "euler_pow4",
                                    "chung:a=0.25+0.5+0.25,t=1"])
def test_orders_and_verify_bounds_name_a_scheme_alike(scheme, capsys):
    # a report aggregates both kinds of CSV: one scheme has one name in them
    grid = ["--scheme", scheme, "--generator", "diag_imag:k=16", "--t", "0.25",
            "--n", "4,8,16,32", "--alpha", "1"]
    names = []
    for command in ("verify-bounds", "orders"):
        assert cli.main([command, *grid]) == 0, command
        out = capsys.readouterr().out
        names.append({r["scheme"] for r in csv.DictReader(out.splitlines())})
    assert names[0] == names[1] == {cmfun.make_builtin(scheme).name}


@pytest.mark.parametrize("content, entry", [
    ("[[1.0, 1.0]]", "JSON list"),
    ('{"segments": [{"a": 0, "poly": [1]}]}', """{"a": 0, "poly": [1]}: no key 'b'"""),
    ("atoms: 1", "not JSON"),
    ('{"segments": [{"a": 0, "b": 1, "poly": ["x"]}]}', '"poly": ["x"]'),
    ('{"atoms": "x"}', 'atoms "x"'),
], ids=["list", "no-b", "not-json", "poly-string", "atoms-string"])
def test_malformed_measure_file_names_flag_file_and_entry(content, entry, tmp_path, capsys):
    # a measure: file comes from outside the program: a file of the wrong
    # form is a usage error whose message names the flag, the file and the entry
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert cli.main(["functionals", "--g", f"measure:{path}", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --g 'measure:{path}'")
    assert entry in captured.err


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


def test_cli_looks_up_the_rates_functions_when_it_calls_them(monkeypatch, capsys):
    # a profiler wraps the module attributes of rates after import: the functions
    # with the orders and sharpness verdicts must be reached through the
    # attribute, so that the wrapper is the one called
    runs = {
        "order_verdict": ["orders", "--scheme", "euler", "--generator", "laplacian:d=16",
                          "--n", "4,8,16,32"],
        "euler_scalar_sharpness": ["sharpness", "--which", "euler", "--n", "4"],
        "shift_second_order_sharpness": ["sharpness", "--which", "shift", "--n", "4"],
    }
    for name, argv in runs.items():
        real, calls = getattr(rates, name), []

        def spy(*args, real=real, calls=calls, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rates, name, spy)
        assert cli.main(argv) == 0, name
        assert calls, f"cli did not reach rates.{name}"
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
    assert cli.main(base + ["--alpha", f"0.5,{alpha}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha" in captured.err and alpha in captured.err and f"'{suite}'" in captured.err


@pytest.fixture
def quadratures(monkeypatch):
    """The (g name, n, alphas) of each c_alpha quadrature run while the test runs."""
    seen = []
    inner = fns._c_alpha_quadrature

    def counted(g, n, alphas):
        seen.append((g.name, n, alphas))
        return inner(g, n, alphas)

    monkeypatch.setattr(fns, "_c_alpha_quadrature", counted)
    return seen


def test_holo_run_computes_each_c_alpha_once(tmp_path, quadratures):
    # 3 t x 4 n x 3 alpha cells use c_alpha[g_n]; the 3 alphas of each of
    # the 4 g_n share one quadrature
    assert cli.main(["verify-bounds", "--scheme", "spline", "--generator", "laplacian:d=16",
                     "--suite", "holo", "--t", "0.25,1,4", "--n", "4,16,64,256",
                     "--alpha", "0,0.5,1", "--out", str(tmp_path / "h.csv")]) == 0
    assert sorted(quadratures) == [("spline", n, (0.0, 0.5, 1.0)) for n in (4, 16, 64, 256)]


def test_functionals_runs_one_quadrature_per_g_n_every_time(tmp_path, quadratures):
    # the grid's alphas and d1's c_0 and c_1 share one quadrature per g_n in
    # every run, and no value is kept between calls: the same g_n asked
    # twice is computed twice
    outs = []
    for run in (1, 2):
        outs.append(tmp_path / f"fn{run}.csv")
        assert cli.main(["functionals", "--g", "spline", "--n", "1,4,16",
                         "--alpha", "0,0.5,1", "--out", str(outs[-1])]) == 0
        assert quadratures == [("spline", n, (0.0, 0.5, 1.0)) for n in (1, 4, 16)]
        quadratures.clear()
    assert outs[0].read_text() == outs[1].read_text()
    g = cmfun.spline()
    assert fns.c_alpha_quads(g, 4, (0.5,)) == fns.c_alpha_quads(g, 4, (0.5,))
    assert quadratures == [("spline", 4, (0.5,))] * 2


def test_holo2_runs_one_quadrature_per_n(tmp_path, quadratures):
    # d1[g_n] reads c_0 and c_1 from one (0, 1) quadrature of each g_n
    assert cli.main(["verify-bounds", "--scheme", "spline", "--generator", "laplacian:d=16",
                     "--suite", "holo2", "--t", "0.25,1", "--n", "4,16",
                     "--alpha", "0,1,3", "--out", str(tmp_path / "h2.csv")]) == 0
    assert sorted(quadratures) == [("spline", 4, (0.0, 1.0)), ("spline", 16, (0.0, 1.0))]


def test_holo_rows_fail_where_c_alpha_did_not_converge(tmp_path, monkeypatch):
    # an unconverged c_alpha gives its holo-sharp rows, and the holo2 rows
    # whose d1 reads it, a nan bound: those rows fail and the run exits 1
    inner = fns._c_alpha_quadrature

    def unconverged(g, n, alphas):
        return [qv._replace(converged=False, flag="unconverged") for qv in inner(g, n, alphas)]

    monkeypatch.setattr(fns, "_c_alpha_quadrature", unconverged)
    for suite, tag in (("holo", "holo-sharp"), ("holo2", "holo-second")):
        out = tmp_path / f"{suite}.csv"
        assert cli.main(["verify-bounds", "--scheme", "spline", "--generator", "laplacian:d=16",
                         "--suite", suite, "--t", "1", "--n", "4", "--alpha", "0,1",
                         "--out", str(out)]) == 1
        rows = [r for r in _read_csv(out) if r["tag"] == tag]
        assert rows and all(r["bound"] == "nan" and r["pass"] == "false" for r in rows)


@pytest.mark.parametrize("argv", [
    ["functionals", "--g", "euler", "--alpha", "0,1"],
    ["verify-bounds", "--scheme", "euler", "--generator", "laplacian:d=8", "--suite", "holo",
     "--alpha", "0.5"],
], ids=["functionals", "verify-bounds"])
def test_repeated_grid_values_are_dropped(argv, tmp_path):
    # a value given twice is one grid point: its rows are written, and counted
    # by report, once
    outs = [tmp_path / "once.csv", tmp_path / "twice.csv"]
    for n, out in zip(("4", "4,4"), outs):
        assert cli.main([*argv, "--n", n, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_closed_stdout_exits_without_traceback():
    # the reader of the pipe is gone before the first write, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = src_env()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cmapprox.cli", "verify-bounds", "--scheme", "euler",
             "--generator", "diag_imag:k=8", "--suite", "first", "--n", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ""


@pytest.mark.parametrize("tail", [["--g", "euler", "--out", ""], ["--g", "measure:"]],
                         ids=["--out", "measure"])
def test_a_directory_for_a_file_is_a_usage_error(tail, tmp_path, capsys):
    # the file written with --out, or the file a measure: string reads
    assert cli.main(["functionals", "--n", "1", *tail[:-1], tail[-1] + str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


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


# the n-exponent of each suite's orders fit on a sector: the first-order defect
# decays like 1/n, the second-order residual like 1/n^2; the others state none
ORDER_EXPONENTS = {"first": -1.0, "second": -2.0}


@pytest.mark.parametrize("suite", list(rates.SUITES))
def test_orders_runs_exactly_the_suites_with_an_exponent(suite, tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = cli.main(["orders", "--suite", suite, "--scheme", "spline", "--generator",
                     "laplacian:d=16", "--n", "4,8,16,32", "--alpha", "0", "--out", str(out)])
    err = capsys.readouterr().err
    if suite in ORDER_EXPONENTS:
        (row,) = _read_csv(out)
        assert code == 0 and err == "" and row["tag"] == f"order-{suite}"
        assert float(row["expected_exponent"]) == ORDER_EXPONENTS[suite]
    else:
        assert code == 2 and not out.exists()
        assert err.startswith(f"error: --suite {suite!r} is not a suite of orders")


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

    rows = rates.euler_scalar_sharpness([1, 4, 1024])
    ratios = [r["value"] / bound(r["n"]) for r in rows]
    assert ratios == pytest.approx([0.645, 0.886, 0.9995], abs=1e-3)

    # a sup above the bound fails its row
    sup = 1.01 * bound(4)
    monkeypatch.setattr(cli.rates, "_golden_max", lambda f, a, b: np.full(np.shape(a), sup))
    assert cli.main(["sharpness", "--which", "euler", "--n", "4"]) == 1
    header, row = capsys.readouterr().out.splitlines()
    assert header.endswith(",pass") and row.endswith(",false")


def test_functionals_read_rational_n(tmp_path):
    # euler_pow4 at n is Euler's scheme at 4n: every column but g and n is the same
    rows = {}
    for g, n in (("euler_pow4", "1,4"), ("euler", "4,16")):
        out = tmp_path / f"{g}-pair.csv"
        assert cli.main(["functionals", "--g", g, "--n", n, "--alpha", "0.5",
                         "--out", str(out)]) == 0
        rows[g] = _read_csv(out)
    assert [r["L"] for r in rows["euler"]] == ["0.195366814813", "0.0992175316222"]
    assert [int(r.pop("n")) * 4 for r in rows["euler_pow4"]] == [
        int(r.pop("n")) for r in rows["euler"]]
    assert [{**r, "g": "euler"} for r in rows["euler_pow4"]] == rows["euler"]
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


def test_main_freezes_the_import_time_heap(tmp_path):
    # main moves every object alive at its entry to the permanent generation,
    # which the run's and the exit's collections no longer walk
    probe = ("import gc, sys; from cmapprox.cli import main; gc.collect(); "
             "alive = len(gc.get_objects()); "
             "code = main(['sharpness', '--which', 'euler', '--n', '4', '--out', sys.argv[1]]); "
             "print(alive, gc.get_freeze_count()); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "euler.csv")],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    alive, frozen = map(int, proc.stdout.split())
    assert frozen >= alive > 10_000


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
    ["functionals", "--g", "euler", "--config", "c.json"],
    ["verify-bounds", "--n", "4", "--config", "c.json"],
    ["orders", "--n", "4,8", "--config", "c.json"],
    ["functionals", "--scheme", "euler"],
    ["report", "x.csv", "--n", "4"],
    ["optimality", "--scheme", "euler", "--n", "4,8"],
    # no flag is taken by an abbreviation, which would also escape the joining
    # of a grid flag to a value such as -0,0
    ["functionals", "--g", "euler", "--n", "1", "--alph", "-0,0"],
    ["functionals", "--g", "euler", "--n", "1", "--alph", "0"],
    ["verify-bounds", "--sch", "euler", "--n", "4"],
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
    (["orders", "--n", "abc"], "--n abc is not a whole number in [1, 2^53]"),
    (["verify-bounds", "--n", "2.5"], "--n 2.5 is not a whole number in [1, 2^53]"),
    (["orders", "--n", "4", "--alpha", "abc"], "--alpha abc is not a finite number"),
    (["verify-bounds", "--n", "4", "--alpha", "inf"], "--alpha inf is not a finite number"),
    (["orders", "--n", "4", "--alpha", "4.5"],
     "--alpha 4.5 is outside [0, 4], the range of orders"),
    (["orders", "--n", "4", "--suite", "holo"],
     "--suite 'holo' is not a suite of orders, which takes first or second"),
    (["functionals", "--g", "euler", "--n", "0"], "--n 0 is not a whole number in [1, 2^53]"),
    (["functionals", "--g", "euler", "--alpha", "nan"], "--alpha nan is not a finite number"),
    (["sharpness", "--n", "1.5"], "--n 1.5 is not a whole number in [1, 2^53]"),
    (["orders", "--t", "1,-1", "--n", "4"], "--t -1 is not a positive finite number"),
    (["functionals", "--g", "euler", "--n", "1", "--alpha", "0", "--json"],
     "--json writes a mirror of the --out file, so it needs --out"),
    (["verify-bounds", "--n", "4", "--json"],
     "--json writes a mirror of the --out file, so it needs --out"),
    # past 2^53 a float parse no longer keeps every whole number
    (["functionals", "--g", "euler", "--n", "1e20"], "--n 1e20 is not a whole number in [1, 2^53]"),
    (["verify-bounds", "--n", "1e20"], "--n 1e20 is not a whole number in [1, 2^53]"),
    (["orders", "--n", "4,8,16,1e20"], "--n 1e20 is not a whole number in [1, 2^53]"),
    (["sharpness", "--n", "1e20"], "--n 1e20 is not a whole number in [1, 2^53]"),
    (["verify-bounds", "--n", "4", "--seed", "-1"], "--seed -1 is not a whole number >= 0"),
    (["verify-bounds", "--n", "4", "--seed", "abc"], "--seed abc is not a whole number >= 0"),
])
def test_grid_values_are_checked_before_any_work(argv, message, monkeypatch, capsys):
    # every grid goes through one check, ahead of any generator
    def no_compute(spec):
        raise AssertionError("generator built before the grid check")

    monkeypatch.setattr(cli.opcalc, "make_generator", no_compute)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_negative_zero_alpha_is_zero(tmp_path, capsys):
    # -0 and 0 are one grid value, written as 0, whether the list is joined to
    # its flag or not: argparse alone takes -0,0 and -0.5,1 for options
    base = ["functionals", "--g", "euler", "--n", "1"]
    outs = [tmp_path / f"fn{i}.csv" for i in range(3)]
    for out, alpha in zip(outs, (["--alpha=-0,0"], ["--alpha", "-0,0"], ["--alpha", "0"])):
        assert cli.main([*base, *alpha, "--out", str(out)]) == 0
    assert [r["alpha"] for r in _read_csv(outs[0])] == ["0"]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert cli.main([*base, "--alpha", "-0.5,1"]) == 2
    assert capsys.readouterr().err.startswith("error: --alpha -0.5 is outside [0, 1]")


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


def test_readme_and_docstring_name_every_subcommand():
    # the README block runs each registered subcommand and no other;
    # the cli docstring lists exactly those
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    registered = set(sub.choices)
    assert {line.split()[0] for line in readme_commands()} == registered
    listed = cli.__doc__.split("Subcommands:")[1].split("\n\n")[1]
    assert {line.split()[0] for line in listed.splitlines()} == registered
