"""Spans and counts around the calls into cyclotrace's layers.

The wrappers live here, not in the program: each one replaces a
function everywhere a cyclotrace module holds a reference to it, so a
call is caught whichever namespace the caller looks the name up in
(`bqf.sqrt_mod_roots` and `analytic.sqrt_mod_roots` are one function).
Spans are kept in memory as [name, start, end, parent] and written out
once, when the worker ends.  Traced runs are single-threaded, so one
stack gives each span its parent.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import partial


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def timed(self, name, fn, tallies=()):
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for count, measure in tallies:
                (self.peak if count.endswith(".max") else self.add)(count, measure(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _one(args, result):
    return 1


# (module, attribute, span name, tallies); "Class.method" patches the class.
# A tally is (count name, measure(args, result)); a name ending in ".max"
# keeps the largest value, any other name the sum.
SPANS = [
    ("special_forms", "rhs_trace", "special_forms.rhs_trace", ()),
    ("special_forms", "hurwitz_gen", "special_forms.hurwitz_gen", ()),
    ("special_forms", "theta_N_minus", "special_forms.theta_N_minus", ()),
    ("special_forms", "build_fD", "special_forms.build_fD", ()),
    ("fqm", "rankin_cohen", "fqm.rankin_cohen",
     [("fqm.rankin_cohen.terms", lambda args, result: len(result.terms))]),
    ("fqm", "tensor", "fqm.tensor",
     [("fqm.tensor.pairs", lambda args, result: len(args[0].terms) * len(args[1].terms))]),
    ("fqm", "restrict", "fqm.restrict", ()),
    ("fqm", "ct_pairing", "fqm.ct_pairing", ()),
    ("arith", "cohen_H", "arith.cohen_H", ()),
    ("bqf", "hypothesis_check", "bqf.hypothesis_check", [("bqf.hypothesis_check.calls", _one)]),
    ("bqf", "indefinite_class_reps", "bqf.indefinite_class_reps", ()),
    ("bqf", "pell_automorph", "bqf.pell_automorph", ()),
    ("analytic", "FkAEvaluator.layer_delta", "analytic.layer_delta", ()),
    ("analytic", "FkAEvaluator.eval", "analytic.eval",
     [("analytic.eval.points", lambda args, result: len(result))]),
    ("analytic", "cycle_integral", "analytic.cycle_integral",
     [("analytic.cycle_integral.panels", lambda args, result: result[2].get("panels", 0)),
      ("analytic.layer_cutoff.max", lambda args, result: result[2].get("layer_cutoff", 0))]),
    ("analytic", "lhs_latticesum", "analytic.lhs_latticesum",
     [("analytic.latticesum.cutoff",
       lambda args, result: sum(result.cutoff.get(key, 0) for key in ("s_cutoff", "t_cutoff")))]),
    ("cli", "cmd_table", "cli.table", ()),
    ("cli", "compute_trace", "cli.compute_trace", ()),
]

# hot leaf calls: counted only, their time stays with the caller's span
COUNTS = [
    ("bqf", "sqrt_mod_roots", "bqf.sqrt_mod_roots.calls"),
    ("bqf", "reduce_definite", "bqf.reduce_definite.calls"),
    ("analytic", "hyp2f1", "analytic.hyp2f1.calls"),
]

# read from `special_forms.hurwitz.cache_info()` when the worker ends
CACHE_COUNTS = ["special_forms.hurwitz.hits", "special_forms.hurwitz.misses"]


def metric_names(span: str, tallies) -> list[str]:
    return [span + ".s"] + [count for count, _ in tallies]


# every per-layer metric the wrappers can give
LAYER_METRICS = {name for _, _, span, tallies in SPANS for name in metric_names(span, tallies)}
LAYER_METRICS |= {count for _, _, count in COUNTS} | set(CACHE_COUNTS)


def _replace_everywhere(orig, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "cyclotrace" or name.startswith("cyclotrace."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer that exists; return the metrics of the ones not found."""
    missing = []
    plan = [(m, a, partial(tracer.timed, n, tallies=t), metric_names(n, t)) for m, a, n, t in SPANS]
    plan += [(m, a, partial(tracer.counted, n), [n]) for m, a, n in COUNTS]
    for module_name, attr, make, names in plan:
        try:
            owner = importlib.import_module("cyclotrace." + module_name)
        except ImportError:
            missing += names
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None) if owner is not None else None
        if orig is None:
            missing += names
            continue
        wrapper = make(orig)
        if path:
            setattr(owner, leaf, wrapper)
        else:
            _replace_everywhere(orig, wrapper)
    return missing


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out
