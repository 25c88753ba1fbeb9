"""Command-line entry point: configs in, reproducible CSV/JSON reports out.

Subcommands:

    functionals    rate functionals of a named function over an (n, alpha) grid
    verify-bounds  error-vs-bound suites (first/second order, holomorphic)
    orders         n-exponent fits of ||E_n A^{-alpha}|| on the spectrum, per (t, alpha)
    sharpness      sharp-constant experiments (scalar sup, shift integrals)
    report         aggregate CSVs into a pass/fail summary by bound tag

The theorems live in rates and functionals: each verify-bounds suite checks
its own inputs (rates.SUITES), rates.order_verdict passes or fails an
`orders` fit, rates.sharpness_rows gives the checked sharpness rows and
functionals.table builds the functionals rows.  Each command parses its
inputs and returns (fields, rows); `main` alone writes them and sets the
exit code.  Every grid value, from a flag or from --config, is checked in
one place: t positive and finite, n a whole number in [1, 2^53] (where the
float parse keeps every whole number exact), alpha finite (-0 read as 0),
and a repeated value dropped; --seed is checked there too.

Exit codes: 0 all pass, 1 a row has `pass` false or a report line is FAIL
(or standard output was closed early), 2 usage errors, each a ValueError
(or a file that cannot be opened) that `main` prints as `error: ...`.  Output is
deterministic: rows are sorted by their grid coordinates.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys

from . import functionals as fns
from . import opcalc, rates
from .cmfun import ScaledFamily, make_builtin, read_json_object

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
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


# what the values of each grid must be, whether they come from a flag or --config
GRID = {
    "t": ("a positive finite number", lambda x: 0.0 < x < math.inf),
    "n": ("a whole number in [1, 2^53]", lambda x: 1 <= x <= 2.0 ** 53 and x.is_integer()),
    "alpha": ("a finite number", math.isfinite),
}


def _check_grid(key: str, values) -> list:
    """The values of grid `key` as numbers (n as ints), each once, in the order
    first given; a ValueError naming the flag otherwise."""
    if isinstance(values, str):
        values = [x for x in values.split(",") if x.strip()]
    elif not isinstance(values, list):
        values = [values]
    if not values:
        raise ValueError(f"--{key} needs a comma-separated list of values")
    what, ok = GRID[key]
    out = []
    for raw in values:
        try:
            x = float(raw)
        except (TypeError, ValueError):
            x = math.nan
        if not ok(x):
            raise ValueError(f"--{key} {str(raw).strip()} is not {what}")
        out.append(int(x) if key == "n" else x + 0.0)   # -0.0 + 0.0 is 0.0
    return list(dict.fromkeys(out))


def _check_seed(raw: str) -> int:
    """--seed as an int (decimal, or 0x... and the like); a ValueError naming the flag otherwise."""
    try:
        seed = int(raw, 0)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"--seed {raw.strip()} is not a whole number >= 0")
    return seed


def _load_config(args) -> dict:
    """--config entries overridden by the flags given, every grid checked
    (and --json only with --out)."""
    if getattr(args, "json", False) and not args.out:
        raise ValueError("--json writes a mirror of the --out file, so it needs --out")
    path = getattr(args, "config", None)
    cfg = read_json_object(path, f"--config {path!r}") if path else {}
    for key in ("scheme", "generator", "suite"):
        if not isinstance(cfg.get(key, ""), str):
            raise ValueError(f"--config {path!r}: {key} {json.dumps(cfg[key])} is not a string")
    for key in ("scheme", "generator", "suite", *GRID):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in GRID:
        if key in cfg:
            cfg[key] = _check_grid(key, cfg[key])
    if hasattr(args, "seed"):
        cfg["seed"] = _check_seed(args.seed)
    return cfg


def _grids(cfg):
    if "n" not in cfg:
        raise ValueError("--n is required")
    return cfg.get("t", [1.0]), cfg["n"], cfg.get("alpha", [1.0])


BOUND_FIELDS = ["scheme", "generator", "t", "n", "alpha", "vector_id",
                "error", "bound", "slack", "tag", "pass"]


def cmd_functionals(args):
    if args.g and args.scheme:
        raise ValueError("--g and --scheme both name the function; give one of them")
    cfg = _load_config(args)
    alphas = cfg.get("alpha", [0.0, 0.5, 1.0])
    rates.check_alphas(alphas, 0.0, 1.0, "functionals")
    name = args.g or cfg.get("scheme")
    if not name:
        raise ValueError("--g is required")
    g = make_builtin(name, flag="--g" if args.g else "--scheme")
    if isinstance(g, ScaledFamily):
        raise ValueError("functionals needs a fixed function (give t)")
    return fns.FIELDS, fns.table(g, cfg.get("n", [1]), alphas)


def cmd_verify_bounds(args):
    cfg = _load_config(args)
    ts, ns, alphas = _grids(cfg)
    suite = rates.suite(cfg.get("suite", "first"), alphas)
    g = make_builtin(cfg.get("scheme", "euler"))
    A = opcalc.make_generator(cfg.get("generator", "diag_imag:k=128"))
    vectors = opcalc.test_vectors(A, seed=cfg["seed"])
    rows = [r.row() for r in suite(g, A, ts, ns, alphas, vectors)]
    rows.sort(key=lambda r: (r["scheme"], r["generator"], r["t"], r["n"],
                             r["alpha"], r["vector_id"]))
    return BOUND_FIELDS, rows


ORDER_FIELDS = ["scheme", "generator", "t", "alpha", "slope", "expected_exponent",
                "intercept", "r_squared", "used_points", "flag", "tag", "pass"]


def cmd_orders(args):
    cfg = _load_config(args)
    scheme = cfg.get("scheme", "euler")
    suite = cfg.get("suite", "first")
    if suite not in ("first", "second"):
        raise ValueError(f"--suite {suite!r} is not a suite of orders, which takes first or second")
    ts, ns, alphas = _grids(cfg)
    rates.check_alphas(alphas, *rates.ORDER_ALPHA, "orders")
    g = make_builtin(scheme)
    A = opcalc.make_generator(cfg.get("generator", "diag_imag:k=128"))
    second = suite == "second"
    rows = []
    for t in ts:
        for alpha in alphas:
            fit = rates.spectral_order(g, A, t, ns, alpha, second)
            expected = rates.expected_exponent(A, alpha, second)
            flag, ok = rates.order_verdict(fit, expected)
            rows.append({
                "scheme": scheme, "generator": A.name, "t": t, "alpha": alpha,
                "slope": fit.slope, "expected_exponent": expected,
                "intercept": fit.intercept, "r_squared": fit.r_squared,
                "used_points": fit.used_points, "flag": flag, "tag": f"order-{suite}",
                "pass": ok,
            })
    rows.sort(key=lambda r: (r["t"], r["alpha"]))
    return ORDER_FIELDS, rows


def cmd_sharpness(args):
    ns = sorted(_load_config(args).get("n", [4, 16, 64, 256, 1024]))
    shift = args.which != "euler"
    if shift and ns[-1] < 2:
        raise ValueError(f"--n {','.join(map(str, ns))} has no n >= 2, which the shift "
                         f"experiment of --which {args.which} needs")
    rows = rates.sharpness_rows(ns, euler=args.which != "shift", shift=shift)
    return ["experiment", "n", "value", "scaled", "reference", "pass"], rows


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
    "config": {"help": "JSON config file"},
    "out": {"help": "output CSV path (default: stdout)"},
    "json": {"action": "store_true", "help": "also write a JSON mirror at OUT.json (needs --out)"},
    "seed": {"default": str(opcalc.DEFAULT_SEED)},
    **{name: {} for name in ("scheme", "generator", "suite", "t", "n", "alpha")},
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
                 "config", "out", "json", "scheme", "n", "alpha")
    sp.add_argument("--g", help="function name, e.g. euler or kendall:t=0.5")
    command("verify-bounds", "error-vs-bound suites", cmd_verify_bounds, *OPTIONS)
    command("orders", "convergence-order fits of ||E_n A^{-alpha}||", cmd_orders,
            "config", "out", "scheme", "generator", "suite", "t", "n", "alpha")
    sp = command("sharpness", "sharp-constant experiments", cmd_sharpness, "out", "n")
    sp.add_argument("--which", choices=("euler", "shift", "both"), default="both")
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
