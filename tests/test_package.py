"""Package hygiene: every name a module exports exists, the value types are
immutable records, no module imports a test extra, and importing the CLI
loads only what it needs; that every function in the package is reached by
some command, and that the commands run without the test extras, is
tests/test_golden.py's."""

import ast
import importlib
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import cmapprox
from cmapprox import cmfun, functionals, measures, opcalc, quadrature, rates

from conftest import ROOT, src_env

MODULES = sorted(m.name for m in pkgutil.iter_modules(cmapprox.__path__))


def test_modules_are_found():
    assert {"cli", "cmfun", "functionals", "opcalc", "rates"} <= set(MODULES)


def test_the_package_namespace_holds_only_its_modules():
    # names are imported from the module that defines them, as cmapprox.cmfun.euler
    names = {name for name in vars(cmapprox) if not (name.startswith("__") and name.endswith("__"))}
    assert names <= set(MODULES)
    assert isinstance(cmapprox.__version__, str)


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


def test_no_module_calls_globals():
    # the package dispatches on values, never on names looked up at run time;
    # and it imports no test extra, scipy or mpmath, on any path: the golden
    # corpus runs without them, but some paths, such as derivative(z, 2), no
    # command takes
    found = []
    for name in MODULES:
        with open(importlib.import_module(f"cmapprox.{name}").__file__) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "globals"):
                found.append((name, node.lineno, "globals()"))
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [(name, node.lineno, f"import {m}") for m in modules
                      if m.partition(".")[0] in ("scipy", "mpmath")]
    assert not found, f"found at {found}"


# every value type: (class, its required fields, the defaults of the others)
VALUE_TYPES = [
    (cmfun.LogDefect, ((0.5,), 1.0), {"closed": None}),
    (cmfun.CMFunction, ("g", math.exp, measures.PositiveMeasure()),
     {"moments": (1.0, 1.0, math.inf, math.inf, math.inf),
      "limit_at_inf": 0.0, "rational_n": None, "log_defect": None}),
    (cmfun.ScaledFamily, ("family", cmfun.yosida), {}),
    (functionals.QuadValue, (0.5, True), {"flag": ""}),
    (opcalc.SemigroupConstants, (1.0,), {}),
    (quadrature.Integral, (1.0, True), {}),
    (rates.OrderFit, (-1.0, 0.5, 0.99, 4), {"flag": ""}),
    (rates.Suite, ("first", rates.first_order_bounds.terms),
     {"error": cmfun.CMFunction.defect, "order": None, "alpha": (-math.inf, math.inf),
      "moment": 0, "fixed": False, "tail": False, "sectorial": False, "rows_alpha": ()}),
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


# what `import cmapprox.cli` must not load: the package imports no scipy or
# mpmath (test_no_module_calls_globals), and the others cost start-up that no
# import needs
NOT_IMPORTED = ("dataclasses", "json", "scipy", "mpmath", "numpy.random", "numpy.polynomial",
                "numpy.ma")

PROBE_IMPORT = """
import gc, sys
{before}
frozen, walked = gc.get_freeze_count(), []

def count(phase, info):
    if phase == "start":
        walked.append(sum(len(gc.get_objects(g)) for g in range(info["generation"] + 1)))

gc.callbacks.append(count)
import cmapprox.cli
gc.callbacks.remove(count)
print([gc.isenabled(), gc.get_freeze_count() == frozen, sum(walked),
       [m for m in {not_imported!r} if m in sys.modules]])
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
    enabled, same_frozen, walked, loaded = ast.literal_eval(proc.stdout)
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
