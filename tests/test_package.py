"""Package hygiene: every name a module exports exists, the value types are
immutable records, importing the CLI loads only what it needs, and every
function in the package is reached by some command."""

import ast
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time

import pytest

import cmapprox
from cmapprox import cli, cmfun, functionals, measures, opcalc, quadrature, rates

from conftest import ROOT, src_env

MODULES = sorted(m.name for m in pkgutil.iter_modules(cmapprox.__path__))


def test_modules_are_found():
    assert {"cli", "cmfun", "functionals", "opcalc", "rates"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    # perfbench/tracer.py wraps the public names of each module through its
    # __all__, so a stale entry would go unnoticed there
    mod = importlib.import_module(f"cmapprox.{name}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"cmapprox.{name}.__all__ names missing {missing}"


def test_rates_reaches_the_operator_only_through_its_norms():
    # the bounds read f(A) through GeneratorMatrix.norms and .opnorm, so that a
    # generator held some other way than eigenvalues and a basis serves rates too
    import ast

    from cmapprox import rates

    with open(rates.__file__) as fh:
        tree = ast.parse(fh.read())
    found = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("eigs", "basis")]
    assert not found, f"rates.py reads the eigen-representation at {found}"


# every value type: (class, its required fields, the defaults of the others)
VALUE_TYPES = [
    (cmfun.LogDefect, ((0.5,), 1.0), {"closed": None, "scale": 1}),
    (cmfun.CMFunction, ("g", math.exp),
     {"measure": None, "moments": (1.0, 1.0, math.inf, math.inf, math.inf),
      "limit_at_inf": 0.0, "deriv_real": None, "rational_n": None, "log_defect": None}),
    (cmfun.ScaledFamily, ("family", cmfun.yosida), {}),
    (functionals.QuadValue, (0.5, True), {"flag": ""}),
    (opcalc.SemigroupConstants, (1.0,), {}),
    (quadrature.Integral, (1.0, True), {}),
    (rates.BoundReport, ("euler", "diag", 1.0, 4, 0.5, 0, 0.1, 0.2, "first-frac"), {}),
    (rates.OrderFit, (-1.0, 0.5, 0.99, 4), {"flag": ""}),
    (rates.Suite, ("first_order_bounds",),
     {"alpha": (-math.inf, math.inf), "moment": 0, "fixed": False, "tail": False,
      "sectorial": False}),
    (measures.PolyExpSegment, (0.0, 1.0, (1.0,)), {"rate": 0.0}),
    (measures.PowerLawSegment, (1.0, 2.5), {}),
    (measures.PositiveMeasure, (), {"atoms": (), "segments": ()}),
]


@pytest.mark.parametrize("cls, required, defaults", VALUE_TYPES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_TYPES])
def test_value_types_are_immutable_records(cls, required, defaults):
    assert cls._fields == cls._fields[:len(required)] + tuple(defaults)
    x = cls(*required)
    assert cls(**dict(zip(cls._fields, required))) == x and type(x) is cls
    assert {name: getattr(x, name) for name in defaults} == defaults
    for name, value in (*zip(cls._fields, x), ("extra", None)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    name = cls._fields[-1]
    copy = x._replace(**{name: getattr(x, name)})
    assert type(copy) is cls and copy == x


# what `import cmapprox.cli` must not load: scipy and mpmath are imported
# where they are called, and the others cost start-up that no import needs
NOT_IMPORTED = ("dataclasses", "scipy", "mpmath", "numpy.random", "numpy.polynomial", "numpy.ma")

PROBE_IMPORT = """
import gc, json, sys
{before}
frozen, walked = gc.get_freeze_count(), []

def count(phase, info):
    if phase == "start":
        walked.append(sum(len(gc.get_objects(g)) for g in range(info["generation"] + 1)))

gc.callbacks.append(count)
import cmapprox.cli
gc.callbacks.remove(count)
print(json.dumps([gc.isenabled(), gc.get_freeze_count() == frozen, sum(walked),
                  [m for m in {not_imported!r} if m in sys.modules]]))
"""


@pytest.mark.parametrize("before", ["gc.enable()", "gc.disable()", "gc.freeze()"])
def test_cli_import_loads_little_and_restores_the_collector(before):
    # the package pauses the cyclic collector while it imports and moves what
    # the imports made to the oldest generation, so the collections of the
    # import walk about 2,500 objects, not 34,000 (22,000 with a pause alone);
    # it turns the collector back on only if it was on, and leaves frozen
    # exactly what was frozen before
    probe = PROBE_IMPORT.format(before=before, not_imported=NOT_IMPORTED)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    enabled, same_frozen, walked, loaded = json.loads(proc.stdout)
    assert (enabled, same_frozen, loaded) == (before != "gc.disable()", True, [])
    if before == "gc.enable()":
        assert walked < 10_000


def test_kernel_benchmarks_still_run():
    # tests/bench_kernels.py is outside the default collection; run each of its
    # cases once so that a renamed or removed function fails here, not there
    proc = subprocess.run([sys.executable, "-m", "pytest", "tests/bench_kernels.py",
                           "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis reports a failing example through mypy_extensions, whose
    # DeprecationWarning the "error" filter would turn into an INTERNALERROR
    # that ends the session before the tests after it run
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    config = os.path.join(ROOT, "pyproject.toml")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", config, "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout and "INTERNALERROR" not in out, out


# small commands that together take every subcommand, suite, generator and
# built-in (a fixed function, a family, euler_pow4 and a measure: file)
_VB = ["verify-bounds", "--t", "1", "--n", "4,8", "--alpha", "1", "--out"]
REACH_COMMANDS = [
    ["functionals", "--g", "euler", "--n", "1,2", "--alpha", "0,0.5,1", "--out", "fn.csv",
     "--json"],
    ["functionals", "--g", "hille", "--n", "1,2", "--alpha", "0,1"],
    ["functionals", "--g", "frac_tail:gamma=0.5", "--n", "1,2", "--alpha", "1"],
    ["functionals", "--g", "measure:nu.json", "--n", "1,2", "--alpha", "1"],
    ["functionals", "--scheme", "spline", "--config", "cfg.json"],
    [*_VB, "first.csv", "--scheme", "kendall", "--generator", "diag_imag:k=4", "--suite", "first"],
    [*_VB, "nonb2.csv", "--scheme", "euler_pow4", "--generator", "diag_imag:k=4",
     "--suite", "nonb2"],
    [*_VB, "frac.csv", "--scheme", "frac_tail:gamma=0.5", "--generator", "diag_imag:k=4",
     "--suite", "nonb2"],
    [*_VB, "second.csv", "--scheme", "yosida", "--generator", "diag_pos:k=4", "--suite", "second"],
    [*_VB, "holo.csv", "--scheme", "spline", "--generator", "laplacian:d=4", "--suite", "holo",
     "--alpha", "0,0.5,1"],
    [*_VB, "holo2.csv", "--scheme", "euler", "--generator", "advection:d=4", "--suite", "holo2"],
    ["orders", "--scheme", "chung:a=0.25+0.5+0.25,t=1", "--generator", "diag_imag:k=16",
     "--n", "4,8,16,32", "--alpha", "1"],
    ["orders", "--scheme", "exp", "--generator", "laplacian:d=8", "--suite", "second",
     "--n", "4,8,16,32", "--alpha", "1"],
    ["sharpness", "--which", "both", "--n", "4,16"],
    ["report", "first.csv", "holo.csv", "--out", "report.csv"],
]

def _defs(node, prefix):
    """(qualified name, first line) of every def below an ast node; the first
    line of a decorated def is that of its first decorator, as in its code."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _defs(child, name)
        else:
            yield from _defs(child, prefix)


def test_every_function_is_reached_by_a_command(tmp_path, monkeypatch, capsys):
    # code that no command runs belongs in the tests, as an oracle
    (tmp_path / "nu.json").write_text(json.dumps(
        {"atoms": [[1.0, 0.25]], "segments": [{"a": 0, "b": 2, "poly": [0.375]}]}))
    (tmp_path / "cfg.json").write_text(json.dumps({"n": [1, 2], "alpha": [0.5]}))
    monkeypatch.chdir(tmp_path)
    # the package's memo would let earlier tests hide what it skips
    cmfun._family_member.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    start = time.perf_counter()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in REACH_COMMANDS]
    finally:
        sys.setprofile(None)
    assert time.perf_counter() - start < 3.0
    assert codes == [0] * len(REACH_COMMANDS), capsys.readouterr().err
    missed = []
    for name in MODULES:
        path = importlib.import_module(f"cmapprox.{name}").__file__
        with open(path) as fh:
            tree = ast.parse(fh.read())
        missed += [qualname for qualname, line in _defs(tree, name)
                   if (path, line) not in entered]
    assert not missed, f"no command enters {missed}"
