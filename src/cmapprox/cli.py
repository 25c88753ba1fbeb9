"""Command-line entry point: flags in, reproducible CSV/JSON reports out.

Subcommands:

    functionals    rate functionals of a named function over an (n, alpha) grid
    verify-bounds  error-vs-bound suites (first/second order, holomorphic)
    orders         n-exponent fits of ||E_n A^{-alpha}|| on the spectrum, per (t, alpha)
    sharpness      sharp-constant experiments (scalar sup, shift integrals)
    report         aggregate CSVs into a pass/fail summary by bound tag

The theorems live in rates and functionals: verify-bounds and orders look
their suite up (rates.suite, rates.order_suite: the flags are checked before
any work), build g and A, and call it; rates gives the checked sharpness rows
and functionals.table the functionals rows, each beside its columns, so that
cli declares only report's.  Each command parses its inputs and returns
(fields, rows); `main` alone writes them and sets the exit code.
Each subcommand's defaults are its parser's.  Every grid value is checked by
cmfun.read_value, as the values of --scheme and --generator strings are: t
positive and finite, n a whole number in [1, 2^53] (where the float parse
keeps every whole number), alpha finite (-0 read as 0), and a repeated value
dropped; --seed is checked with them, by `_check_args`, before any work.

Exit codes: 0 all pass, 1 a row has `pass` false or a report line is FAIL
(or standard output was closed early), 2 usage errors, each a ValueError
(or a file that cannot be opened) that `main` prints as `error: ...`.  Output is
deterministic: rows are sorted by their grid coordinates.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys

from . import functionals as fns
from . import opcalc, rates
from .cmfun import FINITE, POSITIVE, ScaledFamily, make_builtin, read_value

USAGE_ERROR = 2
FAILURE = 1


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(path: str, fieldnames, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(fieldnames)
        for r in rows:
            w.writerow([_fmt(r[k]) for k in fieldnames])
    finally:
        if path:
            out.close()


def write_json(path: str, rows):
    import json

    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


# the kind of each grid's values
GRID = {
    "t": POSITIVE,
    "n": ("a whole number in [1, 2^53]", lambda x: 1 <= x <= 2.0 ** 53 and x.is_integer(), int),
    "alpha": FINITE,
}


def _check_grid(key: str, values: str) -> list:
    """The values of grid `key`, read as its kind, each once, in the order first given."""
    values = [x.strip() for x in values.split(",") if x.strip()]
    if not values:
        raise ValueError(f"--{key} needs a comma-separated list of values")
    return list(dict.fromkeys(read_value(raw, GRID[key], f"--{key} {raw}") for raw in values))


def _check_seed(raw: str) -> int:
    """--seed as an int (decimal, or 0x... and the like); a ValueError naming the flag otherwise."""
    try:
        seed = int(raw, 0)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"--seed {raw.strip()} is not a whole number >= 0")
    return seed


def _check_args(args) -> None:
    """Check the flags in place, before any work: --json only with --out, then
    each grid given, read as its kind, then --n given, then --seed."""
    if getattr(args, "json", False) and not args.out:
        raise ValueError("--json writes a mirror of the --out file, so it needs --out")
    for key in GRID:
        if isinstance(getattr(args, key, None), str):
            setattr(args, key, _check_grid(key, getattr(args, key)))
    if getattr(args, "n", []) is None:
        raise ValueError("--n is required")
    if hasattr(args, "seed"):
        args.seed = _check_seed(args.seed)


def cmd_functionals(args):
    rates.check_alphas(args.alpha, 0.0, 1.0, "functionals")
    if not args.g:
        raise ValueError("--g is required")
    g = make_builtin(args.g, flag="--g")
    if isinstance(g, ScaledFamily):
        raise ValueError(f"--g {args.g!r}: functionals needs a fixed function: give t, "
                         f"as in {g.name}:t=0.5")
    return fns.FIELDS, fns.table(g, args.n, args.alpha)


def cmd_verify_bounds(args):
    suite = rates.suite(args.suite, args.alpha)
    g = make_builtin(args.scheme)
    A = opcalc.make_generator(args.generator)
    vectors = opcalc.test_vectors(A, seed=args.seed)
    return rates.BOUND_FIELDS, suite(g, A, args.t, args.n, args.alpha or [1.0], vectors)


def cmd_orders(args):
    suite = rates.order_suite(args.suite, args.alpha, args.n)
    g = make_builtin(args.scheme)
    A = opcalc.make_generator(args.generator)
    return rates.ORDER_FIELDS, suite.orders(g, A, args.t, args.n, args.alpha)


def cmd_sharpness(args):
    ns = sorted(args.n)
    shift = args.which != "euler"
    if shift and ns[-1] < 2:
        raise ValueError(f"--n {','.join(map(str, ns))} has no n >= 2, which the shift "
                         f"experiment of --which {args.which} needs")
    return rates.SHARPNESS_FIELDS, (
        (rates.euler_scalar_sharpness(ns) if args.which != "shift" else [])
        + (rates.shift_second_order_sharpness([n for n in ns if n >= 2]) if shift else []))


def cmd_report(args):
    summary = {}
    for path in args.inputs:
        with open(path) as fh:
            reader = csv.DictReader(fh)
            if "pass" not in (reader.fieldnames or ()):
                raise ValueError(f"{path} has no 'pass' column, so it has nothing to report")
            for row in reader:
                tag = row.get("tag") or row.get("experiment") or "untagged"
                cell = summary.setdefault(tag, {"pass": 0, "fail": 0})
                cell["pass" if row["pass"] == "true" else "fail"] += 1
    rows = [{"tag": tag, "passed": c["pass"], "failed": c["fail"],
             "status": "ok" if c["fail"] == 0 else "FAIL"}
            for tag, c in sorted(summary.items())]
    return ["tag", "passed", "failed", "status"], rows


# every option a subcommand may take; each subcommand registers only those it reads
OPTIONS = {
    "out": {"help": "output CSV path (default: stdout)"},
    "json": {"action": "store_true", "help": "also write a JSON mirror at OUT.json (needs --out)"},
    "seed": {"default": str(opcalc.DEFAULT_SEED)},
    "scheme": {"default": "euler"},
    "generator": {"default": "diag_imag:k=128"},
    "suite": {"default": "first"},
    "t": {"default": "1"},
    "n": {},
    "alpha": {},   # verify-bounds reads None as 1; a suite with rows_alpha takes none
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cmapprox", allow_abbrev=False,
                                description="semigroup approximation verification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, func, *options):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        for opt in options:
            sp.add_argument(f"--{opt}", **OPTIONS[opt])
        sp.set_defaults(func=func)
        return sp

    sp = command("functionals", "rate functionals over an (n, alpha) grid", cmd_functionals,
                 "out", "json", "n", "alpha")
    sp.add_argument("--g", help="function name, e.g. euler or kendall:t=0.5")
    sp.set_defaults(n="1", alpha="0,0.5,1")
    command("verify-bounds", "error-vs-bound suites", cmd_verify_bounds, *OPTIONS)
    command("orders", "convergence-order fits of ||E_n A^{-alpha}||", cmd_orders,
            "out", "scheme", "generator", "suite", "t", "n", "alpha").set_defaults(alpha="1")
    sp = command("sharpness", "sharp-constant experiments", cmd_sharpness, "out", "n")
    sp.add_argument("--which", choices=("euler", "shift", "both"), default="both")
    sp.set_defaults(n="4,16,64,256,1024")
    sp = command("report", "aggregate CSVs into a pass/fail summary", cmd_report, "out")
    sp.add_argument("inputs", nargs="+", help="CSV files to aggregate")
    return p


def _join_grid_values(argv) -> list:
    """argv with each --t, --n and --alpha joined to the token after it, unless
    that is an option, as --flag=value: argparse takes a value such as -0.5,1
    for an option, and joined it reaches _check_grid, which names what is
    wrong with it.  The parsers take no abbreviation such as --alph."""
    out = []
    for token in argv:
        if out and out[-1] in ("--t", "--n", "--alpha") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    # Move the import-time heap (numpy's ~21,000 objects) to the permanent
    # generation: neither the run's collections nor the interpreter's final
    # ones walk it again, which saves about 35 ms per command at exit.
    gc.freeze()
    args = build_parser().parse_args(_join_grid_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_args(args)
        fields, rows = args.func(args)
        write_csv(args.out, fields, rows)
        if getattr(args, "json", False):
            write_json(args.out + ".json", rows)
        sys.stdout.flush()  # a closed pipe raises here, inside the handler
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is left to devnull
        # so the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return FAILURE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # a failed check, or a report line that counts one
    failed = any(not r.get("pass", True) or r.get("status") == "FAIL" for r in rows)
    return FAILURE if failed else 0


if __name__ == "__main__":
    sys.exit(main())
