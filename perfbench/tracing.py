"""Per-layer spans, recorded from outside the toolkit.

:func:`install` wraps the public functions of every ``plausikit`` module,
in the module that defines them and wherever another ``plausikit`` module
imported them by name.  A wrapped call made while an operation is open
records one span (name, start, end, parent span, operation id); spans stay
in memory until :meth:`Tracer.dump`.  Per-state helpers (``eq_class``,
``min_set``, ``Model.__hash__``, ``children``...) are left unwrapped because
spanning them would swamp the run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# Layer -> functions that get a span.  Names listed in OUTERMOST get a span
# only when no span of the same name is open (the evaluator recurses).
WRAPPED = {
    "cli": ["main"],
    "model": ["load_model", "validate", "save_model", "model_from_json",
              "model_to_json", "uniformity_counterexample",
              "connectedness_counterexample"],
    "syntax": ["parse", "format_formula", "enumerate_formulas"],
    "semantics": ["truth_set", "holds", "is_valid_on"],
    "dynamics": ["announce", "upgrade", "announce_restrict", "upgrade_promote"],
    "rewrite": ["reduce_dynamic", "replay", "translate_gt", "translate_safe"],
    "bisim": ["check_structural", "greatest_structural", "definable_pairs",
              "check_bc", "modal_equiv", "hennessy_milner"],
    "generate": ["generate", "random_formula", "rename_states"],
    "suites": ["run_suite"],
    "corpus": ["load_corpus"],
}
OUTERMOST = {"semantics.truth_set"}

# Per-layer metric -> (kind, span names or counter name).
METRICS = {
    "cli.main.calls": ("calls", ["cli.main"]),
    "cli.main.self_s": ("self", ["cli.main"]),
    "model.load_model.self_s": ("self", ["model.load_model"]),
    "model.validate.calls": ("calls", ["model.validate"]),
    "model.validate.self_s": ("self", ["model.validate"]),
    "syntax.parse.self_s": ("self", ["syntax.parse"]),
    "syntax.format_formula.self_s": ("self", ["syntax.format_formula"]),
    "semantics.truth_set.calls": ("calls", ["semantics.truth_set"]),
    "semantics.truth_set.self_s": ("self", ["semantics.truth_set"]),
    "dynamics.announce_restrict.calls": ("calls", ["dynamics.announce_restrict"]),
    "dynamics.announce_restrict.self_s": ("self", ["dynamics.announce_restrict"]),
    "dynamics.upgrade_promote.calls": ("calls", ["dynamics.upgrade_promote"]),
    "dynamics.upgrade_promote.self_s": ("self", ["dynamics.upgrade_promote"]),
    "rewrite.reduce_dynamic.self_s": ("self", ["rewrite.reduce_dynamic"]),
    "rewrite.steps": ("counter", "rewrite.steps"),
    "rewrite.out_nodes": ("counter", "rewrite.out_nodes"),
    "rewrite.translate.self_s": ("self", ["rewrite.translate_gt",
                                          "rewrite.translate_safe"]),
    "bisim.definable_pairs.calls": ("calls", ["bisim.definable_pairs"]),
    "bisim.definable_pairs.self_s": ("self", ["bisim.definable_pairs"]),
    "bisim.family_pairs": ("counter", "bisim.family_pairs"),
    "bisim.check_bc.self_s": ("self", ["bisim.check_bc"]),
    "bisim.structural.self_s": ("self", ["bisim.check_structural",
                                         "bisim.greatest_structural"]),
    "generate.generate.self_s": ("self", ["generate.generate"]),
    "generate.random_formula.self_s": ("self", ["generate.random_formula"]),
    "suites.run_suite.self_s": ("self", ["suites.run_suite"]),
    "suites.trials": ("counter", "suites.trials"),
    "corpus.load_corpus.self_s": ("self", ["corpus.load_corpus"]),
}


def _count_rewrite(tracer, result):
    from plausikit.syntax import formula_size
    reduced, trace = result
    tracer.counters["rewrite.steps"] += len(trace)
    tracer.counters["rewrite.out_nodes"] += formula_size(reduced)


def _count_family(tracer, result):
    tracer.counters["bisim.family_pairs"] += len(result)


def _count_trials(tracer, result):
    tracer.counters["suites.trials"] += result.trials


COUNTERS = {
    "rewrite.reduce_dynamic": _count_rewrite,
    "bisim.definable_pairs": _count_family,
    "suites.run_suite": _count_trials,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []          # indices of open spans
        self.open_names = defaultdict(int)
        self.counters = defaultdict(int)
        self.op = None           # current operation id; None records nothing

    def wrap(self, name, fn):
        outermost = name in OUTERMOST
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None or (outermost and self.open_names[name]):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.open_names[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.open_names[name] -= 1
                self.stack.pop()
            if count is not None:
                count(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def metrics(self) -> dict:
        """Every per-layer metric over the spans recorded so far."""
        calls = defaultdict(int)
        total = defaultdict(float)
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                covered[self.spans[parent][0]] += end - start
        out = {}
        for metric, (kind, what) in METRICS.items():
            if kind == "counter":
                out[metric] = self.counters[what]
            elif kind == "calls":
                out[metric] = sum(calls[n] for n in what)
            else:
                out[metric] = sum(total[n] - covered[n] for n in what)
        return out

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED, wherever a plausikit module holds it."""
    import plausikit.cli  # noqa: F401  (the package does not import it)
    from plausikit import semantics

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "plausikit" or n.startswith("plausikit.")]
    for layer, names in WRAPPED.items():
        home = sys.modules[f"plausikit.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    method = semantics.Evaluator.truth_set
    semantics.Evaluator.truth_set = tracer.wrap("semantics.truth_set", method)
