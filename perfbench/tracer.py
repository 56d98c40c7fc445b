"""Per-layer tracing of lri from outside the package.

The tracer replaces public functions and methods of each lri layer with
wrappers that record a span (name, parent span, request id, start, end) or
bump a counter.  A function imported by name into another module is replaced
there too, so `kb.ground`, `cli.maximal_positions` and the workloads' own
imports are traced like `formula.ground` and `engine.maximal_positions`.  Spans stay in memory
until `dump` writes them out; `layer_metrics` turns them into the per-layer
figures named in BENCHMARK.json.

A layer's self time is its span's duration minus the duration of its child
spans.  Calls are single-threaded and nested, so child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path, span name).  The span name is the metric prefix.
SPANS = (
    ("lri.formula", "parse_formula", "formula.parse"),
    ("lri.formula", "parse_statements", "formula.parse"),
    ("lri.formula", "ground", "formula.ground"),
    ("lri.kb", "loads", "kb.loads"),
    ("lri.cnf", "clausify", "cnf.clausify"),
    ("lri.cnf", "CnfBuilder.clause_set", "cnf.clause_set"),
    ("lri.sat", "solve", "sat.solve"),
    ("lri.engine", "DomainOfRules.__init__", "engine.domain_build"),
    ("lri.engine", "maximal_positions", "engine.positions"),
    ("lri.engine", "justifications", "engine.justifications"),
    ("lri.engine", "maximal_consistent_contexts", "engine.contexts"),
    ("lri.engine", "reasonably_infers", "engine.infer"),
    ("lri.variety", "variety_of", "variety.variety_of"),
    ("lri.variety", "upper_level", "variety.upper_level"),
    ("lri.variety", "is_compatible", "variety.compat"),
    ("lri.variety", "partition_graph", "variety.partition"),
    ("lri.cli", "main", "cli.main"),
)

# Counted without a span, so their own time stays with the caller's span.
COUNTED = (
    ("lri.engine", "DomainOfRules.consistent", "consistent"),
    ("lri.engine", "DomainOfRules.selection_entails", "entails"),
)

# The per-layer metrics in BENCHMARK.json order, with their units.
METRICS = (
    ("cnf.clause_set_s", "s"),
    ("cnf.clause_set_calls", "count"),
    ("cnf.clauses_per_set_mean", "count"),
    ("cnf.clauses_per_set_max", "count"),
    ("cnf.clausify_s", "s"),
    ("cnf.clausify_calls", "count"),
    ("sat.solve_s", "s"),
    ("sat.solve_calls", "count"),
    ("sat.decisions", "count"),
    ("sat.unsat_ratio", "ratio"),
    ("engine.domain_build_s", "s"),
    ("engine.positions_s", "s"),
    ("engine.justifications_s", "s"),
    ("engine.contexts_s", "s"),
    ("engine.infer_s", "s"),
    ("engine.consistent_calls", "count"),
    ("engine.consistency_hit_ratio", "ratio"),
    ("engine.entails_calls", "count"),
    ("engine.positions_per_check", "ratio"),
    ("engine.justifications_per_check", "ratio"),
    ("kb.loads_s", "s"),
    ("kb.ground_statements", "count"),
    ("formula.parse_s", "s"),
    ("formula.ground_s", "s"),
    ("variety.variety_of_s", "s"),
    ("variety.upper_level_s", "s"),
    ("variety.compat_s", "s"),
    ("variety.partition_s", "s"),
    ("cli.import_s", "s"),
    ("cli.render_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Counts that must repeat exactly when the same work is traced twice.
EXACT = (
    "sat.solve_calls",
    "sat.decisions",
    "engine.consistent_calls",
    "cnf.clauses_per_set_max",
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _note(name: str, result):
    """The part of a result a metric needs, kept on the span."""
    if name == "sat.solve":
        return [result.decisions, result.satisfiable]
    if name == "cnf.clause_set":
        return len(result.clauses)
    if name in ("engine.positions", "engine.justifications"):
        return len(result)
    if name == "kb.loads":
        return len(result.axioms) + len(result.hypotheses) + len(result.queries)
    return None


class Tracer:
    """Wraps lri's layers, keeps spans and counters in memory.

    A span is the list [id, parent id, request id, name, start, end, note,
    consistent calls inside, entailment calls inside]; the two inner counts
    feed the per-check ratios of the enumerators.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = 0
        self.import_s: list[float] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, path, name in SPANS:
            self._replace(module, path, self._span_wrapper(name))
        for module, path, name in COUNTED:
            self._replace(module, path, self._count_wrapper(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        self._patch(owner, attr, wrapper)
        if "." in path:
            return  # a method: patching the class reaches every caller
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if mod is owner or not isinstance(names, dict):
                continue
            for key, value in list(names.items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                span = [
                    len(spans), stack[-1][0] if stack else -1,
                    tracer.request, name, 0.0, 0.0, None,
                    counts["consistent"], counts["entails"],
                ]
                spans.append(span)
                stack.append(span)
                span[4] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[5] = perf_counter()
                    stack.pop()
                    span[7] = counts["consistent"] - span[7]
                    span[8] = counts["entails"] - span[8]
                span[6] = _note(name, result)
                return result

            return wrapper

        return make

    def _count_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if name != "consistent":
                    return fn(*args, **kwargs)
                solves = counts["sat.solve"]
                result = fn(*args, **kwargs)
                if counts["sat.solve"] == solves:
                    counts["consistent_hits"] += 1
                return result

            return wrapper

        return make

    # -- merging and output -------------------------------------------------

    def add_child(self, path: str) -> None:
        """Merge the spans a traced child process wrote (see lri_traced.py)."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        offset = len(self.spans)
        for span in data["spans"]:
            span[0] += offset
            if span[1] >= 0:
                span[1] += offset
            span[2] = self.request
            self.spans.append(span)
        self.counts.update(data["counts"])
        self.import_s.extend(data["import_s"])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": [
                        "id", "parent", "request", "name", "start", "end",
                        "note", "consistent_calls", "entails_calls",
                    ],
                    "spans": self.spans,
                    "counts": self.counts,
                    "import_s": self.import_s,
                },
                handle,
            )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures over every span recorded so far."""
        own: Counter = Counter()
        child_time: Counter = Counter()
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[5] - span[4]
        sizes: list[int] = []
        decisions = unsat = 0
        positions = position_checks = found = entail_checks = 0
        ground_statements = 0
        for span in self.spans:
            name = span[3]
            own[name] += span[5] - span[4] - child_time[span[0]]
            note = span[6]
            if name == "cnf.clause_set" and note is not None:
                sizes.append(note)
            elif name == "sat.solve" and note is not None:
                decisions += note[0]
                unsat += not note[1]
            elif name == "engine.positions" and span[7]:
                positions += note or 0
                position_checks += span[7]
            elif name == "engine.justifications" and span[8]:
                found += note or 0
                entail_checks += span[8]
            elif name == "kb.loads" and note is not None:
                ground_statements += note
        calls = self.counts
        consistent = calls["consistent"]
        return {
            "cnf.clause_set_s": own["cnf.clause_set"],
            "cnf.clause_set_calls": calls["cnf.clause_set"],
            "cnf.clauses_per_set_mean": _ratio(sum(sizes), len(sizes)),
            "cnf.clauses_per_set_max": max(sizes, default=0),
            "cnf.clausify_s": own["cnf.clausify"],
            "cnf.clausify_calls": calls["cnf.clausify"],
            "sat.solve_s": own["sat.solve"],
            "sat.solve_calls": calls["sat.solve"],
            "sat.decisions": decisions,
            "sat.unsat_ratio": _ratio(unsat, calls["sat.solve"]),
            "engine.domain_build_s": own["engine.domain_build"],
            "engine.positions_s": own["engine.positions"],
            "engine.justifications_s": own["engine.justifications"],
            "engine.contexts_s": own["engine.contexts"],
            "engine.infer_s": own["engine.infer"],
            "engine.consistent_calls": consistent,
            "engine.consistency_hit_ratio": _ratio(
                calls["consistent_hits"], consistent
            ),
            "engine.entails_calls": calls["entails"],
            "engine.positions_per_check": _ratio(positions, position_checks),
            "engine.justifications_per_check": _ratio(found, entail_checks),
            "kb.loads_s": own["kb.loads"],
            "kb.ground_statements": ground_statements,
            "formula.parse_s": own["formula.parse"],
            "formula.ground_s": own["formula.ground"],
            "variety.variety_of_s": own["variety.variety_of"],
            "variety.upper_level_s": own["variety.upper_level"],
            "variety.compat_s": own["variety.compat"],
            "variety.partition_s": own["variety.partition"],
            "cli.import_s": (
                statistics.median(self.import_s) if self.import_s else 0.0
            ),
            "cli.render_s": own["cli.main"],
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
