"""Package hygiene: every name a module exports exists."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import cmapprox

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


def test_kernel_benchmarks_still_run():
    # tests/bench_kernels.py is outside the default collection; run each of its
    # cases once so that a renamed or removed function fails here, not there
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "pytest", "tests/bench_kernels.py",
                           "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
