"""End-to-end benchmark of the cmapprox command line.

    python3 perfbench/run.py --workload sectorial --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Load model: a closed loop with one client.  Each CLI command runs in a fresh
Python process, one at a time, the way a user pays the import of
`scipy.special` and the package on every run.  A pass runs a workload's
commands once; another pass starts while it should end within --seconds,
and each metric is the median over passes.  The seed goes to `--seed` of every
`verify-bounds` command, where it sets the test vectors; `functionals` has
no random input.

Workloads (why each exists):

- sectorial: `holo` and `holo2` on the 512-point Dirichlet Laplacian with
  the spline scheme.  Dense operator work (SVD `opnorm`, `frac_power`,
  `spectral_map`) and `c_alpha` quadrature share the run; the semigroup
  constants are closed form, so that layer does almost nothing.
- advection: the first-order suite on `advection:d=64`.  Most of the time
  goes to the sampled-sup semigroup constants (2,560 SVDs), though the
  suite reads only M_0.  No quadrature.  It stands in for the 58 s d=256
  case, which has the same cause but is too slow to repeat.
- analytic: `functionals` for spline and Euler up to n = 1024, and the
  `frac_tail` non-B2 suite on a diagonal generator.  The analytic side
  (quadrature of the defect, scalar mpmath `eval_at`) does all the work;
  the only matrices are diagonal.

End-to-end metrics (trace 0), per pass and summed over the commands:
wall_s (spawn to exit), setup_s (spawn to `cmapprox.cli` imported, on the
monotonic clock parent and child share), compute_s = wall_s - setup_s, and
peak_rss_mb (largest peak RSS of a command's process).  The times are
calibrated: `calib.py`, which only imports the libraries the commands
import, runs just before each command, and the command's times are scaled
by CALIBRATION_REF_S over its time.  On a shared 2-core machine whose speed
drifted by up to a third within twenty minutes, the scaling cancelled most
of that drift.  The unscaled medians are in the report.  A command fails when its exit code is
not 0 or an output check in `oracles.py` fails; failures are reported as
`failed` of `attempted`.

Per-layer metrics (trace 1) come from `tracer.py`: passes alternate
untraced and traced, at least two traced, whose counts must repeat exactly.
trace.overhead_s is the traced minus the untraced median wall time.

The last line of standard output is the JSON result; a run manifest and a
per-metric table come before it, and a full report is written under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# One BLAS thread, in this process and the commands it starts, set before
# numpy loads.  On a shared 2-core machine a 2-thread BLAS made the same
# command's wall time swing by 30% between runs, one thread by 4%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import mpmath
import numpy
import scipy

import oracles
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CLI_SOURCE = os.path.join(ROOT, "src", "cmapprox", "cli.py")
COMMAND_TIMEOUT_S = 150
CALIBRATION_REF_S = 0.5   # seconds calib.py took on the 2-core machine the benchmark was made on

GRID_T = ["--t", "0.25,1,4"]
GRID_N = ["--n", "4,16,64,256"]
FN_GRID = ["--n", "1,4,16,64,256,1024", "--alpha", "0,0.5,1"]
LAPLACIAN = ["--scheme", "spline", "--generator", "laplacian:d=512"]


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    # verify-bounds: rows per (t, n) cell, with 8 test vectors
    rows_per_cell: int = 0

    @property
    def seeded(self) -> bool:
        return self.argv[0] == "verify-bounds"


WORKLOADS = {
    "sectorial": [
        # 1 operator-norm row + 8 vectors x (a holo-sharp row for each of the
        # 3 alphas + a holo-frac / holo-A1 row for alpha 0.5 and 1)
        Command("holo", ("verify-bounds", *LAPLACIAN, "--suite", "holo", *GRID_T, *GRID_N,
                         "--alpha", "0,0.5,1"), rows_per_cell=41),
        Command("holo2", ("verify-bounds", *LAPLACIAN, "--suite", "holo2", *GRID_T, *GRID_N,
                          "--alpha", "0,0.5,1"), rows_per_cell=24),
    ],
    "advection": [
        Command("first", ("verify-bounds", "--scheme", "euler", "--generator", "advection:d=64",
                          "--suite", "first", "--t", "1", "--n", "4,16", "--alpha", "1"),
                rows_per_cell=8),
    ],
    "analytic": [
        Command("functionals-spline", ("functionals", "--g", "spline", *FN_GRID)),
        Command("functionals-euler", ("functionals", "--g", "euler", *FN_GRID)),
        Command("frac_tail", ("verify-bounds", "--scheme", "frac_tail:gamma=0.5",
                              "--generator", "diag_imag:k=256,min=0.1,max=100",
                              "--suite", "nonb2", *GRID_T, *GRID_N, "--alpha", "0.5,1"),
                rows_per_cell=16),
    ],
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics that are counts and must repeat exactly between traced passes
EXACT_SUFFIXES = ("_calls", "_share", ".points", ".tails_unconverged", ".rows")


# ----------------------------------------------------------------------
# running commands
# ----------------------------------------------------------------------

def command_argv(cmd: Command, workload: str, seed: int) -> list[str]:
    argv = list(cmd.argv) + ["--out", out_path(workload, cmd)]
    if cmd.seeded:
        argv += ["--seed", str(seed)]
    return argv


def out_path(workload: str, cmd: Command) -> str:
    """Output CSV, relative to the checkout root (the commands' working directory)."""
    return os.path.join(os.path.basename(WORK), f"{workload}-{cmd.name}.csv")


def spawn(argv: list[str], trace: bool) -> dict:
    """Run one command in a fresh interpreter; times are on the monotonic clock."""
    record_path = os.path.join(WORK, "record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), record_path, "1" if trace else "0",
             *argv],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"argv": argv, "exit": None, "wall_s": time.monotonic() - start, "stderr": "",
                "problems": [f"no exit within {COMMAND_TIMEOUT_S} s"]}
    end = time.monotonic()
    out = {"argv": argv, "exit": proc.returncode, "wall_s": end - start,
           "stderr": proc.stderr.decode(errors="replace")[-2000:]}
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        out["problems"] = [f"no record from the child (exit {proc.returncode})"]
        return out
    out["setup_s"] = record["imported"] - start
    out["peak_rss_mb"] = record["peak_rss_kb"] / 1024.0
    if trace:
        out["profile"] = tracer.command_profile(record["trace"])
    return out


class OutputChecker:
    """Checks each command's CSV once per distinct content."""

    def __init__(self, seed: int):
        self.seed = seed
        self.verdicts: dict[str, list[str]] = {}

    def check(self, cmd: Command, data: bytes) -> tuple[list[str], int]:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        key = hashlib.sha256(data).hexdigest()
        if key not in self.verdicts:
            try:
                if cmd.seeded:
                    problems = oracles.check_bound_rows(cmd.argv, rows, cmd.rows_per_cell, self.seed)
                else:
                    problems = oracles.check_functional_rows(cmd.argv, rows, self.seed)
            except (KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            self.verdicts[key] = problems
        return self.verdicts[key], len(rows)


def run_pass(workload: str, seed: int, trace: bool) -> list[dict]:
    """Runs the workload's commands once, back to back; outputs are kept for checking."""
    results = []
    for cmd in WORKLOADS[workload]:
        path = os.path.join(ROOT, out_path(workload, cmd))
        if os.path.exists(path):
            os.remove(path)
        calib = None if trace else calibrate()
        res = spawn(command_argv(cmd, workload, seed), trace)
        res["calib_s"] = calib
        try:
            with open(path, "rb") as fh:
                res["csv"] = fh.read()
        except OSError as exc:
            res.setdefault("problems", []).append(f"no output: {exc}")
        res["command"] = cmd
        results.append(res)
    return results


def check_run(res: dict, checker: OutputChecker) -> None:
    problems = res.setdefault("problems", [])
    if res["exit"] != 0:
        problems.append(f"exit code {res['exit']}: {res['stderr'].strip()[-300:]}")
    if "csv" in res:
        found, res["rows"] = checker.check(res["command"], res.pop("csv"))
        problems += found
        traced_rows = res.get("profile", {}).get("counters", {}).get("cli.rows")
        if traced_rows is not None and traced_rows != res["rows"]:
            problems.append(f"cli.rows {traced_rows} but the CSV has {res['rows']} rows")
    res["command"] = res["command"].name


def calibrate() -> float:
    """Wall time of one calib.py process.  Its output goes to pipes, as in
    spawn(): without them, waiting with a timeout polls every 50 ms."""
    start = time.monotonic()
    subprocess.run([sys.executable, os.path.join(HERE, "calib.py")], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                   timeout=COMMAND_TIMEOUT_S)
    return time.monotonic() - start


def pass_metrics(results: list[dict], calibrated: bool) -> dict:
    """Sums over one pass; calibrated, each command's times are divided by
    the calib.py time measured just before it and multiplied by CALIBRATION_REF_S."""
    def scale(r):
        return CALIBRATION_REF_S / r["calib_s"] if calibrated else 1.0

    wall = sum(r["wall_s"] * scale(r) for r in results)
    setup = sum(r.get("setup_s", r["wall_s"]) * scale(r) for r in results)
    return {"wall_s": wall, "setup_s": setup, "compute_s": wall - setup,
            "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in results)}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spawn([], trace=False)  # warm the byte-code and file caches; not timed
    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(run_pass(workload, seed, False))
        if trace:
            traced.append(run_pass(workload, seed, True))
        # start another pass only if it should end within the budget
        now = time.monotonic()
        if now + (now - began) - start > seconds and (not trace or len(traced) >= 2):
            break

    runs = [r for p in plain + traced for r in p]
    checker = OutputChecker(seed)
    for r in runs:
        check_run(r, checker)
    failed = [r for r in runs if r["problems"]]
    run_problems = []
    per_pass = [pass_metrics(p, calibrated=True) for p in plain]
    e2e = {k: statistics.median(m[k] for m in per_pass) for k in E2E_UNITS}
    raw = {k: statistics.median(pass_metrics(p, calibrated=False)[k] for p in plain)
           for k in E2E_UNITS}
    result = {"workload": workload, "passes": len(plain), "attempted": len(runs),
              "failed": len(failed), "e2e": e2e, "e2e_raw": raw, "per_pass": per_pass}
    if trace:
        layer_passes, absent = [], []
        for p in traced:
            metrics, absent = tracer.layer_metrics([r["profile"] for r in p if "profile" in r])
            layer_passes.append(metrics)
        counts = [{k: v for k, v in m.items() if k.endswith(EXACT_SUFFIXES)} for m in layer_passes]
        if any(c != counts[0] for c in counts[1:]):
            run_problems.append(f"counts differ between traced passes: {counts}")
        layers = tracer.merge_passes(layer_passes)
        traced_wall = statistics.median(pass_metrics(p, calibrated=False)["wall_s"] for p in traced)
        layers["trace.overhead_s"] = traced_wall - raw["wall_s"]
        result.update(layers=layers, absent=absent, command_counts=[
            {"command": r["command"], "calls": r["profile"]["calls"],
             "counters": r["profile"]["counters"], "distinct": r["profile"]["distinct"]}
            for r in traced[0] if "profile" in r])
    result["problems"] = run_problems + [f"{r['command']}: {p}" for r in failed for p in r["problems"]]
    result["correct"] = not result["problems"]
    result["commands"] = [{k: v for k, v in r.items() if k != "profile"} for r in runs]
    return result


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------

def blas_threads() -> list[dict]:
    """Thread count of each OpenBLAS bundled with numpy and scipy, if found."""
    found = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    found.append({"lib": os.path.basename(path), "threads": fn()})
                    break
    return found


def git_commit() -> str:
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(gitdir, ref)):
            with open(os.path.join(gitdir, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def manifest(workloads: list[str], seed: int, seconds: float, trace: bool) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "seed": seed, "seconds": seconds,
        "trace": int(trace), "commit": git_commit(), "src_lines": src_lines(),
        "commands": {w: [command_argv(c, w, seed) for c in WORKLOADS[w]] for w in workloads},
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def metric_entries(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + k: {"value": v, "unit": tracer.unit_of(k)}
                for k, v in result["layers"].items()}
    return {prefix + k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["e2e"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(CLI_SOURCE):
        print(f"error: {CLI_SOURCE} not found; run from a cmapprox checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    trace = bool(args.trace)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    man = manifest(workloads, args.seed, args.seconds, trace)
    results = [run_workload(w, args.seed, args.seconds, trace) for w in workloads]

    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update(metric_entries(res, trace, prefix))
        for problem in res["problems"]:
            print(f"FAIL {res['workload']}: {problem}", file=sys.stderr)
        fail_rate = res["failed"] / res["attempted"]
        print(f"{res['workload']}: {res['passes']} passes, fail_rate {fail_rate:g} "
              f"({res['failed']}/{res['attempted']} commands)")
        for name, entry in metric_entries(res, trace).items():
            note = " (absent)" if name in res.get("absent", ()) else ""
            print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}{note}")
    man["absent"] = sorted({a for r in results for a in r.get("absent", ())})
    print("manifest " + json.dumps(man, sort_keys=True))
    report = os.path.join(WORK, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump({"manifest": man, "results": results}, fh, indent=1, default=str)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
