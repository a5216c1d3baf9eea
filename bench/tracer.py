"""Per-layer call counts and self times for one revcat invocation.

``Tracer.install`` wraps the public functions and methods of each revcat
layer in the namespaces where callers look them up, so a call made through
any import path is seen.  Each wrapper is a span: it counts the call and adds
its self time (duration minus the time of nested spans) to an in-memory
total per span name.  Nothing is kept per call; ``summary`` returns the
totals when the invocation ends.

``layer_metrics`` turns the summed totals of a workload pass into the
benchmark's per-layer metrics.  This module imports revcat only inside
``install``, so the harness can use ``layer_metrics`` without loading it.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# Span name -> dotted paths of the module functions it wraps.
FUNCTIONS = {
    "cat.enumerate": ["revcat.cat.rel.enumerate_rel", "revcat.cat.pinj.enumerate_pinj"],
    "cat.laws": ["revcat.cat.laws.law_suite"],
    "order.kleene": ["revcat.order.kleene_fix", "revcat.order.kleene_pfix"],
    "functionals.apply": [
        "revcat.functionals.expr.apply_functional",
        "revcat.functionals.param.apply_param",
    ],
    "functionals.space_of": ["revcat.functionals.spaces.space_of"],
    "functionals.conj": ["revcat.functionals.expr.conj", "revcat.functionals.param.conj_param"],
    "functionals.trace": ["revcat.functionals.trace.trace"],
    "functionals.checks": [
        "revcat.functionals.fixpoints.check_fixed_point_adjoint",
        "revcat.functionals.fixpoints.check_pfix_adjoint",
        "revcat.functionals.fixpoints.check_conj_preservation",
        "revcat.functionals.fixpoints.check_pfix_identity",
        "revcat.functionals.naturality.check_naturality",
        "revcat.functionals.naturality.check_self_conjugate",
        "revcat.functionals.trace.check_dagger_trace",
    ],
    "functionals.generate": [
        "revcat.functionals.fixpoints.random_endo_functional",
        "revcat.functionals.fixpoints.random_param_functional",
    ],
    "revlang.parse": [
        "revcat.revlang.parser.parse_program",
        "revcat.revlang.parser.parse_value",
        "revcat.revlang.parser.parse_callref_text",
    ],
    "revlang.validate": ["revcat.revlang.validate.validate_program"],
    "revlang.invert": [
        "revcat.revlang.invert.invert_program",
        "revcat.revlang.invert.invert_def",
        "revcat.revlang.invert.invert_binding",
    ],
    "revlang.match": ["revcat.revlang.syntax.match"],
    "revlang.instantiate": ["revcat.revlang.syntax.instantiate"],
    "revlang.roundtrip": ["revcat.revlang.denote.roundtrip_check"],
    "cli.emit": ["revcat.cli._emit"],
}

MORPHISMS = [
    "revcat.cat.rel.RelMorphism",
    "revcat.cat.pinj.PInjMorphism",
    "revcat.cat.dstoch.StochMorphism",
]
# Span name -> method wrapped on every morphism class.  Validation runs in
# ``__post_init__`` of the dataclasses and in ``__init__`` of StochMorphism.
MORPHISM_METHODS = {
    "cat.compose": "compose",
    "cat.dagger": "dagger",
    "cat.leq": "leq",
    "cat.join": "join",
    "cat.eq": "__eq__",
}
# Span name -> (dotted class path, method).
METHODS = {
    "report.check": [("revcat.report.Checker", "check")],
    "report.skip": [("revcat.report.Checker", "skip")],
    "report.other": [("revcat.report.LawReport", "merge"), ("revcat.report.LawReport", "to_doc")],
    "revlang.eval": [("revcat.revlang.interp.Evaluator", "call")],
}


def _resolve(path: str):
    module, _, name = path.rpartition(".")
    return getattr(sys.modules[module], name)


def _morphism_key(m):
    """Value identity of a morphism that does not call its traced ``__eq__``."""
    for attr in ("rows", "table"):
        body = getattr(m, attr, None)
        if body is not None:
            return (type(m).__name__, m.src.size, m.dst.size, body)
    return (type(m).__name__, m.src.size, m.dst.size, m.matrix.tobytes())


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Time of the nested spans of each open span; the bottom entry
        # collects the time of top-level spans.
        self._children = [0.0]
        self._seen_daggers: set = set()
        self._eval_depth = 0

    def span(self, name: str, fn, enter=None, leave=None):
        """Wrap ``fn`` so each call counts and adds its self time to ``name``.

        ``enter(args)`` runs before the timed call and ``leave(result)``
        after it (``result`` is None if the call raised).  The whole wrapper,
        its bookkeeping and hooks included, counts as nested time of the
        enclosing span, so a span's self time holds none of the tracer's
        work for its children.  What hooked wrappers spend outside the
        wrapped call also goes to the ``trace.hooks`` total.
        """
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = perf_counter
        hooked = enter is not None or leave is not None

        @wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            if enter is not None:
                enter(args)
            result = None
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stop = clock()
                calls[name] += 1
                self_s[name] += stop - start - children.pop()
                if leave is not None:
                    leave(result)
                done = clock()
                children[-1] += done - entered
                if hooked:
                    self_s["trace.hooks"] += (start - entered) + (done - stop)

        return traced

    def install(self, main):
        """Wrap every traced function and method; return ``main`` as the root span.

        Call after ``revcat.cli`` is imported, so every revcat module that
        binds a traced function by name is loaded and gets the wrapper.
        """
        # Span name -> (enter, leave) hooks that keep its extra counts.
        hooks = {
            "cat.enumerate": (None, self._count_morphisms),
            "cat.dagger": (self._note_dagger, None),
            "order.kleene": (None, self._count_iterations),
            "revlang.eval": (self._eval_in, self._eval_out),
        }
        for name, paths in FUNCTIONS.items():
            for path in paths:
                original = _resolve(path)
                self._rebind(original, self.span(name, original, *hooks.get(name, ())))
        for path in MORPHISMS:
            cls = _resolve(path)
            init = "__post_init__" if "__post_init__" in vars(cls) else "__init__"
            self._wrap_method(cls, init, "cat.construct")
            for name, method in MORPHISM_METHODS.items():
                self._wrap_method(cls, method, name, *hooks.get(name, ()))
        for name, targets in METHODS.items():
            for path, method in targets:
                self._wrap_method(_resolve(path), method, name, *hooks.get(name, ()))
        return self.span("cli", main)

    def _wrap_method(self, cls, method, name, enter=None, leave=None):
        setattr(cls, method, self.span(name, vars(cls)[method], enter, leave))

    @staticmethod
    def _rebind(original, wrapper) -> None:
        """Replace ``original`` under every name any revcat module binds it to."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "revcat" or module_name.startswith("revcat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _note_dagger(self, args) -> None:
        key = _morphism_key(args[0])
        if key in self._seen_daggers:
            self.counts["cat.dagger.repeats"] += 1
        else:
            self._seen_daggers.add(key)

    def _count_morphisms(self, result) -> None:
        if result is not None:
            self.counts["cat.enumerate.morphisms"] += len(result)

    def _count_iterations(self, result) -> None:
        if result is not None:
            self.counts["order.kleene.iterations"] += result.iterations

    def _eval_in(self, args) -> None:
        self._eval_depth += 1
        if self._eval_depth > self.counts["revlang.eval.max_depth"]:
            self.counts["revlang.eval.max_depth"] = self._eval_depth

    def _eval_out(self, result) -> None:
        self._eval_depth -= 1

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the totals of several invocations; depths take the maximum."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counts": defaultdict(int)}
    for summary in summaries:
        for kind in ("calls", "self_s"):
            for name, value in summary[kind].items():
                out[kind][name] += value
        for name, value in summary["counts"].items():
            if name.endswith("max_depth"):
                out["counts"][name] = max(out["counts"][name], value)
            else:
                out["counts"][name] += value
    return out


# (metric, unit) in the order they are reported.
LAYER_METRICS = [
    ("cat.construct.calls", "count"),
    ("cat.construct.self_s", "s"),
    ("cat.compose.calls", "count"),
    ("cat.compose.self_s", "s"),
    ("cat.dagger.calls", "count"),
    ("cat.dagger.self_s", "s"),
    ("cat.dagger.repeat_share", "ratio"),
    ("cat.leq.calls", "count"),
    ("cat.leq.self_s", "s"),
    ("cat.join.calls", "count"),
    ("cat.join.self_s", "s"),
    ("cat.eq.calls", "count"),
    ("cat.eq.self_s", "s"),
    ("cat.enumerate.calls", "count"),
    ("cat.enumerate.morphisms", "count"),
    ("cat.enumerate.self_s", "s"),
    ("cat.laws.self_s", "s"),
    ("order.kleene.calls", "count"),
    ("order.kleene.iterations", "count"),
    ("order.kleene.self_s", "s"),
    ("functionals.apply.calls", "count"),
    ("functionals.apply.self_s", "s"),
    ("functionals.space_of.calls", "count"),
    ("functionals.space_of.self_s", "s"),
    ("functionals.conj.calls", "count"),
    ("functionals.conj.self_s", "s"),
    ("functionals.trace.calls", "count"),
    ("functionals.trace.self_s", "s"),
    ("functionals.checks.self_s", "s"),
    ("functionals.generate.self_s", "s"),
    ("report.check.calls", "count"),
    ("report.skip.calls", "count"),
    ("report.skip_share", "ratio"),
    ("report.self_s", "s"),
    ("revlang.parse.self_s", "s"),
    ("revlang.validate.self_s", "s"),
    ("revlang.invert.self_s", "s"),
    ("revlang.eval.calls", "count"),
    ("revlang.eval.max_depth", "count"),
    ("revlang.eval.self_s", "s"),
    ("revlang.match.calls", "count"),
    ("revlang.match.self_s", "s"),
    ("revlang.instantiate.calls", "count"),
    ("revlang.instantiate.self_s", "s"),
    ("revlang.roundtrip.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.self_s", "s"),
]


def layer_metrics(total: dict) -> dict[str, float]:
    """Per-layer metrics from the merged totals of one workload pass."""
    calls, self_s, counts = total["calls"], total["self_s"], total["counts"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    checks, skips = calls.get("report.check", 0), calls.get("report.skip", 0)
    derived = {
        "cat.dagger.repeat_share": share(counts.get("cat.dagger.repeats", 0), calls.get("cat.dagger", 0)),
        "report.skip_share": share(skips, checks + skips),
        "report.self_s": sum(self_s.get(s, 0.0) for s in ("report.check", "report.skip", "report.other")),
    }
    out = {}
    for metric, _ in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif kind == "calls":
            out[metric] = calls.get(span, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(span, 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    return out
