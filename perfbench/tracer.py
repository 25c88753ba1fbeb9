"""Span tracer for one cmapprox process, installed from outside the package.

`Tracer.install` wraps every public function of each cmapprox module and
every public method of its public classes.  A function is replaced wherever
it is looked up at call time: in the module that defines it and in every
module that imported it by name (`rates` binds `scheme_apply`,
`semigroup_at` and `frac_power` that way).  Methods such as
`CMFunction.eval_at` and `GeneratorMatrix.spectral_map` are replaced on the
class.  A public name that no longer exists is skipped; the metrics that
need it are reported as absent by `layer_metrics`.

Each call records a span (name, start, end, parent) in memory; `dump` hands
them over when the command ends.  A few calls also feed counters: the
integrand points `quadrature.integrate` evaluates, unconverged
semi-infinite tails, the distinct arguments of `eval_at` and `c_alpha_*`
within the process, and the rows `cli.write_csv` writes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types

MODULES = ("cli", "rates", "opcalc", "functionals", "quadrature", "cmfun",
           "measures", "polyexp", "specialfns")

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # [name index, start, end, parent span index or -1, outermost call of its name]
        self.spans: list[list] = []
        self.counters = {"quadrature.points": 0, "quadrature.tails_unconverged": 0,
                         "cli.rows": 0}
        self.keys: dict[str, set] = {}
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._around = {
            "quadrature.integrate": self._count_points,
            "quadrature.integrate_semi_infinite": self._count_tails,
            "cmfun.CMFunction.eval_at": self._key_first_two("cmfun.eval_at"),
            "functionals.c_alpha_quad": self._key_first_two("functionals.c_alpha"),
            "functionals.c_alpha_measure": self._key_first_two("functionals.c_alpha"),
            "cli.write_csv": self._count_rows,
        }

    # -- installation -----------------------------------------------------

    def install(self, package: str = "cmapprox") -> None:
        loaded = {}
        for short in MODULES:
            try:
                loaded[short] = importlib.import_module(f"{package}.{short}")
            except ModuleNotFoundError:
                continue
        lookup_sites = [m for name, m in sys.modules.items()
                        if m is not None and (name == package or name.startswith(package + "."))]
        for short, mod in loaded.items():
            for attr in _public_names(mod):
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for site in lookup_sites:
                        for key, val in list(vars(site).items()):
                            if val is obj:
                                setattr(site, key, wrapped)
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        spans, stack, depth = self.spans, self._stack, self._depth
        around = self._around.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, clock(), 0.0, stack[-1] if stack else -1, depth[idx] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[idx] += 1
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, args, kwargs)
            finally:
                depth[idx] -= 1
                stack.pop()
                span[2] = clock()

        return traced

    # -- counters ---------------------------------------------------------

    def _count_points(self, fn, args, kwargs):
        f = args[0] if args else kwargs.pop("f")
        counters = self.counters

        def counted(x):
            counters["quadrature.points"] += len(x) if hasattr(x, "__len__") else 1
            return f(x)

        return fn(counted, *args[1:], **kwargs)

    def _count_tails(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        if not getattr(result, "converged", True):
            self.counters["quadrature.tails_unconverged"] += 1
        return result

    def _key_first_two(self, key: str):
        seen = self.keys.setdefault(key, set())

        def around(fn, args, kwargs):
            # (function name, argument): eval_at(self, z) and c_alpha_*(g, alpha);
            # an array argument is keyed by its bytes
            if len(args) >= 2:
                arg = args[1].tobytes() if hasattr(args[1], "tobytes") else args[1]
                seen.add((getattr(args[0], "name", id(args[0])), arg))
            return fn(*args, **kwargs)

        return around

    def _count_rows(self, fn, args, kwargs):
        # write_csv(path, fieldnames, rows)
        counters = self.counters
        rows = args[2]
        if hasattr(rows, "__len__"):
            counters["cli.rows"] += len(rows)
            return fn(*args, **kwargs)

        def counted():
            for row in rows:
                counters["cli.rows"] += 1
                yield row

        return fn(*args[:2], counted(), *args[3:], **kwargs)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters,
                "distinct": {k: len(v) for k, v in self.keys.items()}}


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)


# ----------------------------------------------------------------------
# aggregation (runs in the benchmark process)
# ----------------------------------------------------------------------

# metric -> (span name, what to take): "calls" counts spans, "s" sums the
# inclusive time of calls not nested in a call of the same name.
SPAN_METRICS = {
    "opcalc.constants_s": ("opcalc.semigroup_constants", "s"),
    "opcalc.opnorm_calls": ("opcalc.opnorm", "calls"),
    "opcalc.opnorm_s": ("opcalc.opnorm", "s"),
    "opcalc.frac_power_s": ("opcalc.frac_power", "s"),
    "opcalc.scheme_s": ("opcalc.scheme_apply", "s"),
    "opcalc.semigroup_s": ("opcalc.semigroup_at", "s"),
    "opcalc.spectral_map_calls": ("opcalc.GeneratorMatrix.spectral_map", "calls"),
    "opcalc.generator_s": ("opcalc.make_generator", "s"),
    "cmfun.eval_at_calls": ("cmfun.CMFunction.eval_at", "calls"),
    "cmfun.eval_at_s": ("cmfun.CMFunction.eval_at", "s"),
    "functionals.delta_calls": ("functionals.delta", "calls"),
    "functionals.delta_s": ("functionals.delta", "s"),
    "quadrature.integrate_calls": ("quadrature.integrate", "calls"),
    "cli.main_s": (ROOT_SPAN, "s"),
}

C_ALPHA_SPANS = ("functionals.c_alpha_quad", "functionals.c_alpha_measure")

# metric -> span whose presence it needs
COUNTER_SOURCES = {
    "quadrature.points": "quadrature.integrate",
    "quadrature.tails_unconverged": "quadrature.integrate_semi_infinite",
    "cli.rows": "cli.write_csv",
}

UNITS = {"_s": "s", "_calls": "count", "_share": "ratio"}


def unit_of(metric: str) -> str:
    if metric == "trace.self_coverage":
        return "ratio"
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def command_profile(dump: dict) -> dict:
    """Per-command calls, outermost inclusive time and module self time."""
    names, spans = dump["names"], dump["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = [0] * len(names)
    inclusive = [0.0] * len(names)
    self_s: dict[str, float] = {}
    for i, (idx, start, end, _, outer) in enumerate(spans):
        calls[idx] += 1
        if outer:
            inclusive[idx] += end - start
        module = names[idx].split(".", 1)[0]
        self_s[module] = self_s.get(module, 0.0) + (end - start) - covered[i]
    return {
        "calls": {n: c for n, c in zip(names, calls)},
        "inclusive_s": {n: t for n, t in zip(names, inclusive)},
        "self_s": self_s,
        "counters": dump["counters"],
        "distinct": dump["distinct"],
    }


def layer_metrics(profiles: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass over a workload's commands.

    Returns (metrics, absent): a metric whose span no longer exists in the
    program is listed in `absent` and given the value 0.
    """
    traced = set().union(*(p["calls"] for p in profiles))

    def total(section, key):
        return sum(p[section].get(key, 0) for p in profiles)

    metrics: dict[str, float] = {}
    absent: list[str] = []
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = total("self_s", mod)
        if not any(n.startswith(mod + ".") for n in traced):
            absent.append(f"{mod}.self_s")
    for metric, (span, kind) in SPAN_METRICS.items():
        metrics[metric] = total("calls" if kind == "calls" else "inclusive_s", span)
        if span not in traced:
            absent.append(metric)
    for metric, span in COUNTER_SOURCES.items():
        metrics[metric] = total("counters", metric)
        if span not in traced:
            absent.append(metric)

    metrics["cli.output_s"] = total("inclusive_s", "cli.write_csv") + total("inclusive_s", "cli.write_json")
    if "cli.write_csv" not in traced:
        absent.append("cli.output_s")

    c_calls = sum(total("calls", s) for s in C_ALPHA_SPANS)
    metrics["functionals.c_alpha_calls"] = c_calls
    metrics["functionals.c_alpha_s"] = sum(total("inclusive_s", s) for s in C_ALPHA_SPANS)
    metrics["functionals.c_alpha_distinct_share"] = (
        total("distinct", "functionals.c_alpha") / c_calls if c_calls else 0.0)
    if not traced.intersection(C_ALPHA_SPANS):
        absent += ["functionals.c_alpha_calls", "functionals.c_alpha_s",
                   "functionals.c_alpha_distinct_share"]

    e_calls = metrics["cmfun.eval_at_calls"]
    metrics["cmfun.eval_at_repeat_share"] = (
        1.0 - total("distinct", "cmfun.eval_at") / e_calls if e_calls else 0.0)
    if "cmfun.CMFunction.eval_at" not in traced:
        absent.append("cmfun.eval_at_repeat_share")

    main_s = metrics["cli.main_s"]
    self_sum = sum(metrics[f"{mod}.self_s"] for mod in MODULES)
    metrics["trace.self_coverage"] = self_sum / main_s if main_s else 0.0
    return metrics, sorted(set(absent))


def merge_passes(passes: list[dict]) -> dict:
    """Median of each metric over repeated traced passes (counts are equal)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
