"""Golden outputs: what a fixed corpus of commands prints and writes.

The one harness for whole commands.  Each command of CORPUS, the README's
read from its "Command line" block, runs in-process, in order, in one
directory that holds the MEASURES files.  Its record,
tests/golden/<name>.txt, holds the command line, its exit code, standard
error and output, and the file it writes with --out and its JSON mirror, one
section each.  Run as a script, in a fresh interpreter, it compares the
records with these files byte for byte, with no tolerance:

    PYTHONPATH=src python tests/golden.py            # compare only
    PYTHONPATH=src python tests/golden.py --update   # and rewrite tests/golden/

Both print, for each numeric CSV column of the corpus, the largest relative
change from the recorded files and the command where it occurs, and then
each record whose text changed (or that no command makes any more) with the
sections that differ; the first exits 1 when one did.  The records are made
with one numpy, whose version --update writes to tests/golden/numpy-version;
a change seen under another numpy names both versions.

The script runs the corpus as an install without the test extras would: it
blocks scipy and mpmath before it imports cmapprox, so a command that imports
either fails, and an exception that escapes a command names its record and
command line.  It also prints each function of src/cmapprox that no command
enters (by a profile hook), and numpy.polynomial or numpy.ma if the corpus
loaded it; either makes both forms exit 1 and write nothing.  Imported as a
module (for readme_commands), it blocks nothing.  test_golden.py runs the
script.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import importlib
import io
import math
import os
import pkgutil
import sys
import tempfile

if __name__ == "__main__":
    sys.modules["scipy"] = sys.modules["mpmath"] = None

import numpy as np

import cmapprox
from cmapprox import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NUMPY_VERSION = os.path.join(GOLDEN, "numpy-version")
# the numpy modules that no command needs, which cost start-up
NOT_LOADED = ("numpy.polynomial", "numpy.ma")

_PERF_GRID = "--t 0.25,1,4 --n 4,16,64,256"
_PERF_FN = "--n 1,4,16,64,256,1024 --alpha 0,0.5,1"
_PERF_LAPLACIAN = "--scheme spline --generator laplacian:d=512"
BUILTINS = ("exp", "euler", "euler_pow4", "spline", "kendall:t=0.5", "yosida:t=2", "hille",
            "chung:a=0.25+0.5+0.25,t=1", "frac_tail:gamma=0.5")
# the files that a measure: string may name and that are refused, by what is
# wrong: of the wrong form, then of the right form but not a positive measure
MALFORMED = {"list": "[[1.0, 1.0]]", "no-b": '{"segments": [{"a": 0, "poly": [1]}]}',
             "not-json": "atoms: 1",
             "poly-string": '{"segments": [{"a": 0, "b": 1, "poly": ["x"]}]}',
             "atoms-string": '{"atoms": "x"}',
             "negw": '{"atoms": [[1.0, -0.5]]}', "negloc": '{"atoms": [[-1.0, 1.0]]}',
             "backwards": '{"segments": [{"a": 2, "b": 1, "poly": [1]}]}',
             "inf-no-rate": '{"segments": [{"a": 0, "b": "inf", "poly": [1]}]}',
             "neg-rate": '{"segments": [{"a": 0, "b": 1, "poly": [1], "exp_rate": -1}]}',
             "neg-poly": '{"segments": [{"a": 0, "b": 2, "poly": [-1, 2]}]}'}
# the measure: files: an atom and a segment; a density with a negative coefficient;
# a density of mass 1/2, outside B1 with g''(0) finite; an atom and a segment that
# starts past 1, of mass 1 and mean 1; and the refused ones
MEASURES = {"nu.json": '{"atoms": [[1.0, 0.25]], "segments": [{"a": 0, "b": 2, "poly": [0.375]}]}',
            "mixed.json": '{"segments": [{"a": 0, "b": 2, "poly": [0, 1.5, -0.75]}]}',
            "half.json": '{"segments": [{"a": 0, "b": 2, "poly": [0, 0, 1.875, -1.875, 0.46875]}]}',
            "shifted.json": '{"atoms": [[0.6666666666666666, 0.75]], '
                            '"segments": [{"a": 1.5, "b": 2.5, "poly": [0.25]}]}',
            **{f"{name}.json": text for name, text in MALFORMED.items()}}


def readme_commands() -> list:
    """The `cmapprox ...` lines of the README "Command line" block, continuations
    joined, each without its `cmapprox`."""
    with open(os.path.join(GOLDEN, "..", "..", "README.md")) as fh:
        block = fh.read().split("## Command line")[1].split("```sh\n")[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()[1:]) for line in lines if line.startswith("cmapprox ")]


# (name, command line); report reads the CSVs the README commands before it write
CORPUS = [
    # the README commands, named by their place in the README block and their subcommand
    *((f"readme-{i}-{line.split()[0]}", line) for i, line in enumerate(readme_commands(), 1)),
    # report on a CSV with no pass column, the functionals table of the first
    ("error-report-no-pass", "report fn.csv"),
    # the perfbench commands at --seed 1
    ("perfbench-holo", f"verify-bounds {_PERF_LAPLACIAN} --suite holo {_PERF_GRID} "
                       "--alpha 0,0.5,1 --seed 1"),
    ("perfbench-holo2", f"verify-bounds {_PERF_LAPLACIAN} --suite holo2 {_PERF_GRID} "
                        "--alpha 0,0.5,1 --seed 1"),
    ("perfbench-first", "verify-bounds --scheme euler --generator advection:d=64 --suite first "
                        "--t 1 --n 4,16 --alpha 1 --seed 1"),
    ("perfbench-functionals-spline", f"functionals --g spline {_PERF_FN}"),
    ("perfbench-functionals-euler", f"functionals --g euler {_PERF_FN}"),
    ("perfbench-frac_tail", "verify-bounds --scheme frac_tail:gamma=0.5 "
                            "--generator diag_imag:k=256,min=0.1,max=100 --suite nonb2 "
                            f"{_PERF_GRID} --alpha 0.5,1 --seed 1"),
    # a bad key and a bad value of each kind of spec, and of a grid
    ("error-scheme-key", "verify-bounds --scheme euler:foo=1 --n 4"),
    ("error-scheme-value", "verify-bounds --scheme kendall:t=abc --n 4"),
    ("error-scheme-list-value", "functionals --g chung:a=0.5+x,t=1 --n 4"),
    ("error-generator-key", "verify-bounds --generator diag_imag:q=1 --n 4"),
    ("error-generator-value", "verify-bounds --generator diag_imag:k=2.5 --n 4"),
    ("error-grid-value", "orders --n 4,2.5"),
    ("error-scheme-inf", "verify-bounds --scheme yosida:t=inf --n 4"),
    ("error-scheme-list-nan", "verify-bounds --scheme chung:a=0.5+nan,t=1 --n 4"),
    ("error-scheme-no-gamma", "verify-bounds --scheme frac_tail --n 4"),
    ("error-scheme-no-t", "verify-bounds --scheme chung:a=0.5+0.5 --n 4"),
    ("error-scheme-unknown", "verify-bounds --scheme mystery --n 4"),
    # a value that each builder refuses
    ("error-scheme-euler_pow117", "verify-bounds --scheme euler_pow117 --n 4"),
    ("error-scheme-kendall-t", "verify-bounds --scheme kendall:t=2 --n 4"),
    ("error-scheme-yosida-t", "verify-bounds --scheme yosida:t=-1 --n 4"),
    ("error-g-chung-negative", "functionals --g chung:a=-0.5+1.5,t=1.5 --n 1"),
    ("error-g-chung-sum", "functionals --g chung:a=0.5+0.6,t=0.6 --n 1"),
    ("error-g-chung-mean", "functionals --g chung:a=0.5+0.5,t=2 --n 1"),
    ("error-g-chung-t", "functionals --g chung:a=1,t=0 --n 1"),
    ("error-g-frac_tail-gamma", "functionals --g frac_tail:gamma=1 --n 1"),
    ("error-g-key", "functionals --g kendall:s=1 --n 1"),
    ("error-g-unknown", "functionals --g mystery --n 4"),
    ("error-generator-extra-key", "verify-bounds --generator diag_imag:k=4,foo=3 --n 4"),
    ("error-generator-word", "verify-bounds --generator diag_imag:k=abc --n 4"),
    ("error-generator-zero-k", "verify-bounds --generator diag_imag:k=0 --n 4"),
    ("error-generator-zero-d", "verify-bounds --generator laplacian:d=0 --n 4"),
    ("error-generator-fraction", "verify-bounds --generator laplacian:d=2.5 --n 4"),
    ("error-generator-negative", "verify-bounds --generator advection:d=-4 --n 4"),
    ("error-generator-min", "verify-bounds --generator diag_pos:min=0 --n 4"),
    ("error-generator-unknown", "verify-bounds --generator torus --n 4"),
    ("error-suite-unknown", "verify-bounds --suite mystery --n 4"),
    # each subcommand on its defaults, and the usage errors of its input checks
    ("defaults-functionals", "functionals --g euler"),
    ("defaults-verify-bounds", "verify-bounds --n 4"),
    ("defaults-orders", "orders --n 4,8,16,32"),
    ("defaults-sharpness", "sharpness"),
    ("error-functionals-no-g", "functionals --n 4"),
    ("error-verify-bounds-no-n", "verify-bounds --t 1"),
    ("error-json-without-out", "functionals --g euler --json"),
    ("error-seed", "verify-bounds --n 4 --seed -1"),
    ("error-seed-word", "verify-bounds --n 4 --seed abc"),
    ("error-grid-negative", "verify-bounds --n 4 --alpha -0.5,1"),
    ("error-grid-empty", "verify-bounds --n ,"),
    ("error-alpha-empty", "functionals --g euler --alpha ,"),
    ("error-orders-suite", "orders --n 4 --suite holo"),
    *((f"error-orders-suite-{suite}", f"orders --suite {suite} --n 4,8,16,32")
      for suite in ("nonb2", "holo2", "mystery")),
    ("orders-short-grid", "orders --n 4,8,16"),
    ("orders-exp-short-grid", "orders --scheme exp --n 4,8,16"),
    ("error-sharpness-shift-n", "sharpness --which shift --n 1"),
    ("error-sharpness-both-n", "sharpness --which both --n 1"),
    ("sharpness-euler-n1", "sharpness --which euler --n 1"),
    ("error-second-alpha", "verify-bounds --suite second --scheme spline --generator diag_pos:k=4 "
                           "--n 4 --alpha 0.25"),
    ("error-generator-size", "verify-bounds --generator laplacian:d=1e15 --n 4"),
    # what a suite's theorem does not cover: a spectrum that is not sectorial, a
    # family where the suite needs one g, g(inf) > 0 in holo2, g outside B2 or B1
    *((f"error-{suite}-imaginary", "verify-bounds --scheme spline --generator diag_imag:k=64 "
                                   f"--suite {suite} --n 4,16 --alpha 0.5")
      for suite in ("holo", "holo2")),
    ("error-nonb2-family", "verify-bounds --scheme kendall --suite nonb2 --generator diag_imag:k=8 "
                           "--n 4 --alpha 0.5"),
    *((f"error-holo2-family-{g}", f"verify-bounds --scheme {g} --suite holo2 "
                                  "--generator laplacian:d=16 --n 4 --alpha 1")
      for g in ("yosida", "kendall")),
    *((f"error-holo2-atom-{g.partition(':')[0]}", f"verify-bounds --scheme {g} --suite holo2 "
                                                  "--generator laplacian:d=8 --n 1,2 --alpha 1")
      for g in ("hille", "kendall:t=0.5", "yosida:t=1")),
    ("error-holo-frac_tail", "verify-bounds --scheme frac_tail:gamma=0.5 --suite holo "
                             "--generator laplacian:d=8 --n 4 --alpha 0.5"),
    ("error-half-first", "verify-bounds --scheme measure:half.json --n 4"),
    ("error-half-nonb2", "verify-bounds --scheme measure:half.json --suite nonb2 "
                         "--generator diag_imag:k=16 --n 4,8,16,32 --alpha 0.5,1"),
    ("error-half-orders", "orders --scheme measure:half.json --generator diag_imag:k=16 "
                          "--n 4,8,16,32 --alpha 0.5"),
    ("error-half-functionals", "functionals --g measure:half.json --n 1"),
    # each refused file, and one that does not exist
    *((f"error-measure-{name}", f"functionals --g measure:{name}.json --n 1")
      for name in (*MALFORMED, "missing")),
    # a family: a member t that its measure series holds and one it does not, and no t
    ("functionals-yosida-100", "functionals --g yosida:t=100 --n 1,4 --alpha 0.5"),
    ("error-yosida-300", "functionals --g yosida:t=300 --n 1,4 --alpha 0.5"),
    *((f"error-family-member-{command}", f"{command} --scheme yosida --generator diag_pos:k=8 "
                                         "--t 1,300 --n 4,8,16,32 --alpha 1")
      for command in ("verify-bounds", "orders")),
    ("error-functionals-family", "functionals --g kendall"),
    # an atom at 1e10, whose m_32 is past the largest float: no log-defect series
    ("functionals-kendall-tiny-t", "functionals --g kendall:t=1e-10 --n 1"),
    ("verify-bounds-kendall-tiny-t", "verify-bounds --scheme kendall:t=1e-10 --n 4"),
    # its residual, which needs the log-defect it does not carry, under each command
    ("error-second-kendall-tiny-t", "verify-bounds --scheme kendall:t=1e-10 --suite second "
                                    "--generator diag_pos:k=4 --n 4"),
    ("error-orders-second-kendall-tiny-t", "orders --scheme kendall:t=1e-10 --suite second "
                                           "--n 4,8,16,32"),
    # its defect, the direct difference, at the roundoff floor of an orders fit
    ("orders-kendall-tiny-t", "orders --scheme kendall:t=1e-10 --generator laplacian:d=32 "
                              "--n 16,64,256,1024"),
    # holo on a g with g(inf) > 0: no sharp row
    ("holo-kendall", "verify-bounds --scheme kendall:t=0.5 --generator laplacian:d=8 --suite holo "
                     "--n 4 --alpha 0.5"),
    # holo2 where the residual is about 1e-13 of its terms
    ("holo2-small-moduli", "verify-bounds --scheme euler --suite holo2 --t 1 --n 4096,16384 "
                           "--generator diag_pos:k=128,min=1e-4,max=1e-1 --alpha 0,1,2"),
    # the second-order suites: a family under verify-bounds, and the residual fit of orders
    ("second-yosida", "verify-bounds --scheme yosida --generator diag_pos:k=16 --suite second "
                      "--t 0.5,1 --n 4,16"),
    ("second-orders-spline", "orders --scheme spline --generator laplacian:d=32 --suite second "
                             "--n 4,8,16,32 --alpha 0,1"),
    # residual norms below 100 eps of the semigroup's, which a log-defect holds to a few ulp
    ("second-orders-spline-small", "orders --scheme spline --generator laplacian:d=64 "
                                   "--suite second --n 4,8,16,32,64 --alpha 3,4"),
    # one functionals table and one orders fit per built-in, so every measure shape is recorded
    *((f"builtin-{spec.partition(':')[0]}", f"functionals --g {spec} --n 1,4,64 --alpha 0,0.5,1")
      for spec in BUILTINS),
    *((f"orders-{spec.partition(':')[0]}", f"orders --scheme {spec} --generator laplacian:d=32 "
                                           "--n 16,64,256,1024 --alpha 0,1") for spec in BUILTINS),
    # measure: files, and the JSON mirror
    ("measure-functionals", "functionals --g measure:nu.json --n 1,2 --alpha 1 --out nu.csv "
                            "--json"),
    ("measure-verify-bounds", "verify-bounds --scheme measure:mixed.json --generator laplacian:d=8 "
                              "--n 4,8"),
    # a segment whose lower end is past 0, and so past the range [0, 1] of L
    ("measure-shifted-functionals", "functionals --g measure:shifted.json --n 1,4 --alpha 0,0.5,1"),
    ("measure-shifted-verify-bounds", "verify-bounds --scheme measure:shifted.json "
                                      "--generator laplacian:d=8 --n 4,8"),
]


def record(name: str, line: str) -> bytes:
    """The record of one command, run in the working directory; an exception
    that escapes the command is raised again, naming the record and the line."""
    argv = line.split()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        raise RuntimeError(f"record {name!r}, `cmapprox {line}`: {exc!r}") from exc
    parts = [f"$ cmapprox {line}\n", f"==> exit <==\n{code}\n",
             f"==> stderr <==\n{err.getvalue()}", f"==> stdout <==\n{out.getvalue()}"]
    if "--out" in argv:
        written = argv[argv.index("--out") + 1]
        for path in (written, written + ".json"):
            if os.path.exists(path):
                with open(path, newline="") as fh:
                    parts.append(f"==> {path} <==\n{fh.read()}")
    return "".join(parts).encode()


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


def run() -> tuple[dict, list]:
    """({name: record} of the corpus, run in a fresh temporary directory, and
    the qualified names of the package's functions that no command enters)."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for fname, text in MEASURES.items():
            with open(fname, "w") as fh:
                fh.write(text)
        sys.setprofile(profile)
        try:
            new = {name: record(name, line) for name, line in CORPUS}
        finally:
            sys.setprofile(None)
            os.chdir(here)
    missed = []
    for module in pkgutil.iter_modules(cmapprox.__path__):
        path = importlib.import_module(f"cmapprox.{module.name}").__file__
        with open(path) as fh:
            tree = ast.parse(fh.read())
        missed += [name for name, line in _defs(tree, module.name) if (path, line) not in entered]
    return new, missed


def path_of(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.txt")


def recorded_names() -> list:
    """The names of the records in tests/golden/."""
    files = os.listdir(GOLDEN) if os.path.isdir(GOLDEN) else ()
    return [fname[:-4] for fname in files if fname.endswith(".txt")]


def recorded(name: str) -> bytes | None:
    """The recorded bytes of a command, None if it has no file."""
    try:
        with open(path_of(name), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def numpy_note() -> str:
    """'' if the records were made with the running numpy, else a note naming both versions."""
    try:
        with open(NUMPY_VERSION) as fh:
            was = fh.read().strip()
    except FileNotFoundError:
        was = "an unrecorded version"
    return "" if was == np.__version__ else f" (recorded with numpy {was}, run with numpy {np.__version__})"


def _sections(data: bytes) -> dict:
    """{section title: text} of a record."""
    out, title = {}, None
    for line in data.decode().splitlines(keepends=True):
        if line.startswith("==> ") and line.rstrip().endswith(" <=="):
            title = line.rstrip()[4:-4]
            out[title] = ""
        elif title is not None:
            out[title] += line
    return out


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _relative(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)) or old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def column_changes(old: dict, new: dict) -> dict:
    """{column: (largest relative change, name)} over every CSV column that holds
    a number in both the old and the new records, matched row by row."""
    worst = {}
    for name in new:
        if old.get(name) is None:
            continue
        was, now = _sections(old[name]), _sections(new[name])
        for title in (now.keys() & was.keys()) - {"exit", "stderr"}:
            rows_was = list(csv.reader(io.StringIO(was[title])))
            rows_now = list(csv.reader(io.StringIO(now[title])))
            if not rows_now or rows_was[:1] != rows_now[:1]:
                continue
            for r_was, r_now in zip(rows_was[1:], rows_now[1:]):
                for column, a, b in zip(rows_now[0], r_was, r_now):
                    x, y = _float(a), _float(b)
                    if x is None or y is None:
                        continue
                    change = _relative(x, y)
                    if column not in worst or change > worst[column][0]:
                        worst[column] = (change, name)
    return worst


def report(old: dict, new: dict) -> list:
    """Print the column table and the changed records; the names of those."""
    worst = column_changes(old, new)
    print(f"{'column':<24} {'largest relative change':>24}  command")
    for column, (change, name) in sorted(worst.items()):
        print(f"{column:<24} {change:>24.3g}  {name if change else ''}")
    changed = [name for name in new if old.get(name) != new[name]]
    gone = [name for name in old if name not in new]
    for name in changed:
        was, now = _sections(old.get(name) or b""), _sections(new[name])
        parts = sorted(t for t in was.keys() | now.keys() if was.get(t) != now.get(t))
        print(f"changed: {name} ({', '.join(parts) or 'new record'})")
    for name in gone:
        print(f"no longer in the corpus: {name}")
    if not changed + gone:
        print("no record changed")
    elif numpy_note():
        print(f"the records differ{numpy_note()}")
    return changed + gone


def main(argv) -> int:
    new, missed = run()
    old = {name: recorded(name) for name in new}
    for name in recorded_names():
        old.setdefault(name, recorded(name))
    changed = report(old, new)
    loaded = [module for module in NOT_LOADED if module in sys.modules]
    if missed:
        print(f"no command enters {missed}")
    if loaded:
        print(f"the corpus loads {loaded}")
    if missed or loaded:
        return 1
    if "--update" not in argv:
        return 1 if changed else 0
    os.makedirs(GOLDEN, exist_ok=True)
    for name in old.keys() - new.keys():
        os.remove(path_of(name))
    for name, data in new.items():
        with open(path_of(name), "wb") as fh:
            fh.write(data)
    with open(NUMPY_VERSION, "w") as fh:
        fh.write(np.__version__ + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
