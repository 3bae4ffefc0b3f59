"""Span recorder installed into orbitkit from outside.

Each traced public function is replaced, wherever orbitkit's modules
look it up, by a wrapper that records a span: (name, start, end,
parent span, operation id).  Spans stay in memory and are written out
once, at the end.  Nothing in orbitkit is edited, and uninstalling puts
every original object back.

Self time of a span is its duration minus the durations of its child
spans; the program is single-threaded, so children never overlap.
"""

import importlib
import json
import sys
import time
from collections import Counter

# (span name, layer module, attribute path).  Layer names are orbitkit's
# module names; the span name is what the per-layer metrics are keyed by.
TRACED = (
    ("partitions.count_partitions", "orbitkit.partitions", "count_partitions"),
    ("partitions.enumerate_partitions", "orbitkit.partitions", "enumerate_partitions"),
    ("rootsys.build_root_system", "orbitkit.rootsys", "build_root_system"),
    ("rootsys.positive_root_count", "orbitkit.rootsys", "positive_root_count"),
    ("rootsys.group_dimension", "orbitkit.rootsys", "group_dimension"),
    ("orbits.nilpotent_orbit_count", "orbitkit.orbits", "nilpotent_orbit_count"),
    ("orbits.classify_nilpotent_orbits_typeA", "orbitkit.orbits",
     "classify_nilpotent_orbits_typeA"),
    ("orbits.orbit_dimension_typeA", "orbitkit.orbits", "orbit_dimension_typeA"),
    ("orbits.centralizer_dimension_oracle", "orbitkit.orbits", "centralizer_dimension_oracle"),
    ("embedcheck.rank2_cases_report", "orbitkit.embedcheck", "rank2_cases_report"),
    ("embedcheck.principal_table", "orbitkit.embedcheck", "principal_table"),
    ("embedcheck.dimension_gap_exceptions", "orbitkit.embedcheck", "dimension_gap_exceptions"),
    ("embedcheck.subregular_membership_check", "orbitkit.embedcheck",
     "subregular_membership_check"),
    ("embedcheck.embedding_verdict", "orbitkit.embedcheck", "embedding_verdict"),
    ("lndcalc.mul", "orbitkit.lndcalc.poly", "MultiPoly.__mul__"),
    ("lndcalc.pow", "orbitkit.lndcalc.poly", "MultiPoly.__pow__"),
    ("lndcalc.normal_form", "orbitkit.lndcalc.quotient", "QuotientRing.normal_form"),
    ("lndcalc.apply_derivation", "orbitkit.lndcalc.derivations", "apply_derivation"),
    ("lndcalc.delta_degree", "orbitkit.lndcalc.derivations", "delta_degree"),
    ("lndcalc.witness_search", "orbitkit.lndcalc.derivations",
     "verify_semicompatibility_witness"),
    ("cli.main", "orbitkit.cli", "main"),
    ("cli.Report.to_json", "orbitkit.cli", "Report.to_json"),
)

SPAN_NAMES = tuple(name for name, _, _ in TRACED)
LAYERS = ("partitions", "rootsys", "orbits", "embedcheck", "lndcalc", "cli")

# lru_cache'd functions whose cache_info() gives a hit ratio.
CACHED = (("rootsys.build_root_system", "orbitkit.rootsys", "build_root_system"),
          ("rootsys.positive_root_count", "orbitkit.rootsys", "positive_root_count"))


def _count_items(counters, args, result):
    counters["partitions.enumerate_partitions.items"] += len(result)


def _count_terms(counters, args, result):
    counters["lndcalc.normal_form.terms_in"] += len(args[1].terms)
    counters["lndcalc.normal_form.terms_out"] += len(result.terms)


def _count_steps(counters, args, result):
    # delta_degree applies the derivation once per degree, plus the
    # application that reaches zero
    counters["lndcalc.delta_degree.steps"] += result + 1


def _count_found(counters, args, result):
    counters["lndcalc.witness_search.found"] += bool(result.found)


_HOOKS = {
    "partitions.enumerate_partitions": _count_items,
    "lndcalc.normal_form": _count_terms,
    "lndcalc.delta_degree": _count_steps,
    "lndcalc.witness_search": _count_found,
}


def _resolve(module_name, path):
    """(owner, object) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, getattr(owner, attr)


class SpanRecorder:
    """Records spans of the TRACED functions while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self.op)
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Patch every place orbitkit looks a traced function up: the
        defining module, each orbitkit module that imported it by name,
        and class attributes (including aliases such as __rmul__)."""
        if self._patched:
            raise RuntimeError("recorder is already installed")
        importlib.import_module("orbitkit.cli")  # loads every layer
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "orbitkit" or n.startswith("orbitkit."))]
        for index, (name, module_name, path) in enumerate(TRACED):
            owner, original = _resolve(module_name, path)
            wrapper = self._wrap(index, name, original)
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                for attr, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, attr, original))
                        setattr(target, attr, wrapper)
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def cache_counts(self) -> dict:
        out = {}
        for name, module_name, path in CACHED:
            info = _resolve(module_name, path)[1].cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def dump(self) -> dict:
        """Everything the recorder holds, as JSON-ready data."""
        return {"names": list(SPAN_NAMES), "spans": self.spans,
                "counters": dict(self.counters), "cache": self.cache_counts()}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class LayerTotals:
    """Sums span data from one or more recorder dumps."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.root_ns = 0
        self.counters = Counter()
        self.cache = {name: [0, 0] for name, _, _ in CACHED}
        self.by_op: dict[int, Counter] = {}

    def add(self, dump: dict):
        names = dump["names"]
        spans = dump["spans"]
        for (index, start, end, parent, op), own in zip(spans, self_times(spans)):
            name = names[index]
            self.calls[name] += 1
            self.self_ns[name] += own
            self.by_op.setdefault(op, Counter())[name] += own
            if parent < 0:
                self.root_ns += end - start
        self.counters.update(dump["counters"])
        for name, (hits, misses) in dump["cache"].items():
            self.cache[name][0] += hits
            self.cache[name][1] += misses

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items()
                   if name.split(".")[0] == layer) / 1e9
