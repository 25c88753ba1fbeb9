"""Command-line entry point: configs in, reproducible CSV/JSON reports out.

Subcommands:

    functionals    rate functionals of a named function over an (n, alpha) grid
    verify-bounds  error-vs-bound suites (first/second order, holomorphic)
    optimality     lower-bound exponent fits from scalar spectral sweeps
    orders         empirical convergence-order fits per t
    sharpness      sharp-constant experiments (scalar sup, shift integrals)
    report         aggregate CSVs into a pass/fail summary by bound tag

Exit codes: 0 all pass, 1 any row failed or a fit missed its window
(or standard output was closed early), 2 usage errors.  Output is
deterministic: rows are sorted by their grid coordinates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import functionals as fns
from . import opcalc, rates
from .cmfun import ScaledFamily, make_builtin, power_scale

USAGE_ERROR = 2
FAILURE = 1


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
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


def _parse_list(text: str, cast, flag: str):
    items = [x for x in text.split(",") if x.strip()]
    if not items:
        print(f"error: --{flag} needs a comma-separated list of values, got {text!r}",
              file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return [cast(x) for x in items]


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    for key in ("scheme", "generator", "suite"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, cast in (("t", float), ("n", int), ("alpha", float)):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _parse_list(val, cast, key)
    return cfg


def _grids(cfg):
    ts = [float(x) for x in cfg.get("t", [1.0])]
    ns = [int(x) for x in cfg.get("n", [])]
    alphas = [float(x) for x in cfg.get("alpha", [1.0])]
    if not ns or any(n < 1 for n in ns) or any(t <= 0 for t in ts):
        print("error: need a nonempty positive n grid and positive t grid", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return ts, ns, alphas


BOUND_FIELDS = ["scheme", "generator", "t", "n", "alpha", "vector_id",
                "error", "bound", "slack", "tag", "pass"]


def cmd_functionals(args) -> int:
    cfg = _load_config(args)
    name = cfg.get("scheme") or args.g
    if not name:
        print("error: --g is required", file=sys.stderr)
        return USAGE_ERROR
    g = make_builtin(name, flag="--scheme" if cfg.get("scheme") else "--g")
    if isinstance(g, ScaledFamily):
        print("error: functionals needs a fixed function (give t)", file=sys.stderr)
        return USAGE_ERROR
    ns = [int(x) for x in cfg.get("n", [1])]
    alphas = [float(x) for x in cfg.get("alpha", [0.0, 0.5, 1.0])]
    rows = []
    for n in ns:
        gn = power_scale(g, n)
        L = fns.euler_power_L(gn.rational_n) if gn.rational_n else (
            fns.functional_L(gn) if gn.measure is not None else math.nan)
        a = fns.a_of(gn) if math.isfinite(gn.moments[2]) else math.nan
        b = fns.b_of(gn) if math.isfinite(gn.moments[3]) else math.nan
        d0 = fns.d0_of(gn) if math.isfinite(gn.moments[4]) else math.nan
        try:
            d1 = fns.d1_of(gn) if math.isfinite(gn.moments[4]) and gn.tail_integrable else math.nan
        except fns.DivergentError:
            d1 = math.nan
        for alpha in alphas:
            qv = fns.c_alpha_quad(gn, alpha)
            exact = fns.euler_c_alpha_exact(gn.rational_n, alpha) if gn.rational_n else math.nan
            rows.append({
                "g": g.name, "n": n, "alpha": alpha, "L": L, "a": a, "b": b,
                "c_alpha_quadrature": qv.value, "c_alpha_exact": exact,
                "d0": d0, "d1": d1, "residual_flags": qv.flag,
            })
    fields = ["g", "n", "alpha", "L", "a", "b", "c_alpha_quadrature",
              "c_alpha_exact", "d0", "d1", "residual_flags"]
    write_csv(args.out, fields, rows)
    if args.json and args.out:
        write_json(args.out + ".json", rows)
    return 0


# the alpha range each suite's theorem covers (see the docstrings in rates);
# `second` reads no alpha
SUITE_ALPHA = {"first": (0.0, 2.0), "nonb2": (0.0, 1.0), "second": None,
               "holo": (0.0, 1.0), "holo2": (0.0, 3.0)}


def _suite_rows(cfg, seed):
    scheme = cfg.get("scheme", "euler")
    gen = cfg.get("generator", "diag_imag:k=128")
    suite = cfg.get("suite", "first")
    ts, ns, alphas = _grids(cfg)
    if suite not in SUITE_ALPHA:
        print(f"error: unknown suite {suite!r}; available: {', '.join(SUITE_ALPHA)}",
              file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    if SUITE_ALPHA[suite] is not None:
        lo, hi = SUITE_ALPHA[suite]
        for alpha in alphas:
            if not lo <= alpha <= hi:
                print(f"error: --alpha {alpha:g} is outside [{lo:g}, {hi:g}], the range of "
                      f"suite {suite!r}", file=sys.stderr)
                raise SystemExit(USAGE_ERROR)
    g = make_builtin(scheme)
    A = opcalc.make_generator(gen)
    vectors = opcalc.test_vectors(A, seed=seed)
    Mc = opcalc.semigroup_constants(A)
    M0 = Mc[0]
    # Euler type: g_n(z) = (1 + z/(rn n))^{-rn n} has the closed-form r_{alpha, rn n}
    rn = g.rational_n
    cfn = None if rn is None else (lambda n, alpha: rates.euler_sharp_r(rn * n, alpha))
    suites = {
        "first": lambda t, n: rates.first_order_bounds(g, A, t, n, alphas, vectors, M0),
        "nonb2": lambda t, n: rates.non_b2_bounds(g, A, t, n, alphas, vectors, M0),
        "second": lambda t, n: rates.second_order_bounds(g, A, t, n, vectors, M0),
        "holo": lambda t, n: rates.holomorphic_bounds(g, A, t, n, alphas, vectors, Mc,
                                                      c_alpha_fn=cfn),
        "holo2": lambda t, n: rates.holomorphic_second_order(g, A, t, n, alphas, vectors, Mc),
    }
    if suite in ("holo", "holo2") and not (math.isfinite(Mc[1]) and math.isfinite(Mc[2])):
        raise ValueError(f"suite {suite!r} needs a sectorial generator; the spectrum of "
                         f"{gen!r} is not sectorial (M_1 = {Mc[1]}, M_2 = {Mc[2]})")
    rows = [r.row() for t in ts for n in ns for r in suites[suite](t, n)]
    rows.sort(key=lambda r: (r["scheme"], r["generator"], r["t"], r["n"],
                             r["alpha"], r["vector_id"]))
    return rows


def cmd_verify_bounds(args) -> int:
    cfg = _load_config(args)
    rows = _suite_rows(cfg, args.seed)
    write_csv(args.out, BOUND_FIELDS, rows)
    if args.json and args.out:
        write_json(args.out + ".json", rows)
    return FAILURE if any(not r["pass"] for r in rows) else 0


def cmd_optimality(args) -> int:
    cfg = _load_config(args)
    scheme = cfg.get("scheme", "euler")
    g = make_builtin(scheme)
    if isinstance(g, ScaledFamily):
        print("error: optimality needs a fixed function", file=sys.stderr)
        return USAGE_ERROR
    ts, ns, alphas = _grids(cfg)
    spectrum = cfg.get("spectrum", "imaginary")
    order = int(cfg.get("order", 1))
    rows = []
    bad = False
    for t in ts:
        for alpha in alphas:
            rep = rates.optimality_lower(g, alpha, t, ns, spectrum, order=order)
            tol = float(cfg.get("exponent_tol", 0.1))
            ok = rep["flag"] == "ok" and abs(rep["fitted_exponent"] - rep["expected_exponent"]) <= tol
            bad = bad or not ok
            rows.append({
                "scheme": scheme, "spectrum": spectrum, "t": t, "alpha": alpha,
                "order": order, "fitted_exponent": rep["fitted_exponent"],
                "expected_exponent": rep["expected_exponent"],
                "r_squared": rep["r_squared"], "flag": rep["flag"], "pass": ok,
            })
    fields = ["scheme", "spectrum", "t", "alpha", "order", "fitted_exponent",
              "expected_exponent", "r_squared", "flag", "pass"]
    write_csv(args.out, fields, rows)
    return FAILURE if bad else 0


def cmd_orders(args) -> int:
    cfg = _load_config(args)
    scheme = cfg.get("scheme", "euler")
    gen = cfg.get("generator", "diag_imag:k=128")
    g = make_builtin(scheme)
    A = opcalc.make_generator(gen)
    Y = rates._coords(A, opcalc.test_vectors(A, seed=args.seed))
    ts, ns, alphas = _grids(cfg)
    rows = []
    for t in ts:
        points = []
        for n in ns:
            errs = rates._errors(g, A, t, n, Y)
            points.append((n, max(errs)))
        fit = rates.fit_order(points)
        rows.append({
            "scheme": scheme, "generator": gen, "t": t,
            "slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "used_points": fit.used_points,
            "flag": fit.flag,
        })
    fields = ["scheme", "generator", "t", "slope", "intercept", "r_squared",
              "used_points", "flag"]
    write_csv(args.out, fields, rows)
    return 0


def cmd_sharpness(args) -> int:
    ns = _parse_list(args.n or "4,16,64,256,1024", int, "n")
    bad = False
    rows = []
    if args.which in ("euler", "both"):
        # holo-sharp at alpha = 0 on a positive spectrum:
        # sup_t |(1+t/n)^{-n} - e^{-t}| <= M_2 r_{0,n}, with M_2 = (2/e)^2 there (rho = 1)
        m2 = opcalc.SemigroupConstants(rho=1.0, kappa=1.0)[2.0]
        rep = rates.euler_scalar_sharpness(ns)
        for r in rep["rows"]:
            ok = rates.within_bound(r["sup"], m2 * rates.euler_sharp_r(r["n"], 0.0))
            bad = bad or not ok
            rows.append({"experiment": "euler-scalar", "n": r["n"], "value": r["sup"],
                         "scaled": r["n_sup"], "reference": rep["limit"], "pass": ok})
    if args.which in ("shift", "both"):
        rep = rates.shift_second_order_sharpness([n for n in ns if n >= 2])
        for r in rep["rows"]:
            ok = rates.within_bound(abs(r["I2"]), r["I2_bound"])
            bad = bad or not ok
            rows.append({"experiment": "shift-I1I2", "n": r["n"], "value": r["I1"],
                         "scaled": r["I1_scaled"], "reference": rep["target"], "pass": ok})
    fields = ["experiment", "n", "value", "scaled", "reference", "pass"]
    write_csv(args.out, fields, rows)
    return FAILURE if bad else 0


def cmd_report(args) -> int:
    summary = {}
    for path in args.inputs:
        with open(path) as fh:
            reader = csv.DictReader(fh)
            if "pass" not in (reader.fieldnames or ()):
                print(f"error: {path} has no 'pass' column, so it has nothing to report",
                      file=sys.stderr)
                return USAGE_ERROR
            for row in reader:
                tag = row.get("tag") or row.get("experiment") or "untagged"
                cell = summary.setdefault(tag, {"pass": 0, "fail": 0})
                cell["pass" if row["pass"] == "true" else "fail"] += 1
    rows = [{"tag": tag, "passed": c["pass"], "failed": c["fail"],
             "status": "ok" if c["fail"] == 0 else "FAIL"}
            for tag, c in sorted(summary.items())]
    write_csv(args.out, ["tag", "passed", "failed", "status"], rows)
    return FAILURE if any(r["failed"] for r in rows) else 0


# every option a subcommand may take; each subcommand registers only those it reads
OPTIONS = {
    "config": {"help": "JSON config file"},
    "out": {"help": "output CSV path (default: stdout)"},
    "json": {"action": "store_true", "help": "also write a JSON mirror"},
    "seed": {"type": lambda s: int(s, 0), "default": opcalc.DEFAULT_SEED},
    **{name: {} for name in ("scheme", "generator", "suite", "t", "n", "alpha")},
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cmapprox",
                                description="semigroup approximation verification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, func, *options):
        sp = sub.add_parser(name, help=help)
        for opt in options:
            sp.add_argument(f"--{opt}", **OPTIONS[opt])
        sp.set_defaults(func=func)
        return sp

    sp = command("functionals", "rate functionals over an (n, alpha) grid", cmd_functionals,
                 "config", "out", "json", "scheme", "n", "alpha")
    sp.add_argument("--g", help="function name, e.g. euler or kendall:t=0.5")
    command("verify-bounds", "error-vs-bound suites", cmd_verify_bounds, *OPTIONS)
    command("optimality", "lower-bound exponent fits", cmd_optimality,
            "config", "out", "scheme", "t", "n", "alpha")
    command("orders", "convergence-order fits", cmd_orders,
            "config", "out", "seed", "scheme", "generator", "t", "n")
    sp = command("sharpness", "sharp-constant experiments", cmd_sharpness, "out", "n")
    sp.add_argument("--which", choices=("euler", "shift", "both"), default="both")
    sp = command("report", "aggregate CSVs into a pass/fail summary", cmd_report, "out")
    sp.add_argument("inputs", nargs="+", help="CSV files to aggregate")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the handler
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is left to devnull
        # so the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return FAILURE
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
