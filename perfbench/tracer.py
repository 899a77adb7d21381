"""Per-layer spans recorded from outside the package.

The traced run replaces public functions of ``graphpower`` with timing
wrappers, under every module attribute a caller looks them up by: modules
that did ``from .graph import ball`` hold their own reference, so
``graphpower.experiments.ball`` is patched as well as ``graphpower.graph.ball``.
Nothing under ``src/`` changes, and the untraced run never installs a tracer.

A span's busy time is inclusive; its self time excludes the spans opened
inside it.  A call that re-enters a span already open (``power_max_degree``
calling ``power_degrees``) belongs to the outer span and opens no new one,
so busy time is never counted twice.  Spans and counters stay in memory and
are read out when the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


def _edges(counter):
    def hook(counts, args, result):
        counts[counter] += result.m
    return hook


def _bfs_visits(counts, args, result):
    # a G^r degree is the number of vertices one truncated BFS reaches
    counts["metrics.bfs_visits"] += sum(result)


def _lagrange_iterations(counts, args, result):
    counts["theory.lagrange_iterations"] += result.iterations


def _emit_bytes(counts, args, result):
    counts["experiments.emit_bytes"] += os.path.getsize(args[2])


# span -> every module attribute it is installed under
SPANS = {
    "graph.gnp_sample": ["graph.gnp_sample", "experiments.gnp_sample"],
    "graph.graph_power": ["graph.graph_power", "experiments.graph_power"],
    # installed on Graph itself, around the calls that build the lists
    "graph.adjacency": [],
    "graph.subgraph": ["graph.ball", "experiments.ball", "metrics.ball",
                       "graph.induced_subgraph", "experiments.induced_subgraph",
                       "coloring.induced_subgraph", "graph.neighborhood_union",
                       "coloring.neighborhood_union", "graph.is_forest",
                       "coloring.is_forest"],
    "metrics.power_degrees": ["metrics.power_degrees", "metrics.power_max_degree",
                              "metrics.high_degree_set", "coloring.power_max_degree",
                              "coloring.high_degree_set"],
    "metrics.clique_exact": ["metrics.max_clique_exact", "coloring.max_clique_exact"],
    "metrics.independent_set": ["metrics.greedy_independent_set"],
    "metrics.codegree": ["metrics.codegree_max"],
    "metrics.short_cycle": ["metrics.short_cycle_proximity"],
    "coloring.two_phase": ["coloring.two_phase_power_coloring"],
    "coloring.greedy": ["coloring.greedy_power_coloring",
                        "coloring.greedy_coloring_explicit"],
    "coloring.verify": ["coloring.verify_proper_power_coloring"],
    "coloring.dsatur_exact": ["coloring.dsatur_chromatic_exact"],
    "theory.pmf": ["theory.degree_sum_pmf"],
    "theory.lemma2_exact": ["theory.lemma2_min_exact"],
    "theory.lagrange": ["theory.lemma2_min_lagrange"],
    "experiments.trial": ["experiments.run_single_trial"],
    "experiments.summarize": ["experiments.summarize"],
    "experiments.emit": ["experiments.emit"],
}

# attribute -> counter hook on each result.  Hooks run on re-entrant calls
# too: power_max_degree and high_degree_set reach the metrics.power_degrees
# attribute, so every BFS pass is counted there exactly once.
HOOKS = {
    "graph.gnp_sample": _edges("graph.edges_sampled"),
    "experiments.gnp_sample": _edges("graph.edges_sampled"),
    "graph.graph_power": _edges("graph.power_edges"),
    "experiments.graph_power": _edges("graph.power_edges"),
    "metrics.power_degrees": _bfs_visits,
    "theory.lemma2_min_lagrange": _lagrange_iterations,
    "experiments.emit": _emit_bytes,
}

# span -> (error it counts and re-raises, counter)
ERRORS = {
    "metrics.clique_exact": ("BudgetExceededError", "metrics.clique_budget_hits"),
    "coloring.dsatur_exact": ("BudgetExceededError", "coloring.dsatur_budget_hits"),
    "coloring.two_phase": ("ForestViolationError", "coloring.two_phase_failures"),
}

COUNTERS = ("graph.edges_sampled", "graph.power_edges", "metrics.bfs_visits",
            "metrics.clique_budget_hits", "coloring.dsatur_budget_hits",
            "theory.lagrange_iterations", "experiments.emit_bytes")


def _calls_name(span):
    # two-phase calls are attempts: each one either colors or hits a cycle
    return ("coloring.two_phase_attempts" if span == "coloring.two_phase"
            else f"{span}_calls")


def per_layer_units():
    """Unit of every per-layer metric a traced run reports, by name."""
    units = {}
    for span in SPANS:
        units[f"{span}_ms"] = units[f"{span}_self_ms"] = "ms/op"
        units[_calls_name(span)] = "count/op"
    units.update({c: "count/op" for c in COUNTERS})
    units["coloring.two_phase_success_ratio"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


class Tracer:
    """Spans and counters for one traced run; ``install`` patches the package,
    ``restore`` puts the original functions back."""

    def __init__(self):
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []           # open spans: [start_ns, ns in nested spans]
        self._open = defaultdict(int)
        self._undo = []

    def wrap(self, name, fn, hook=None, error=((), None)):
        """``fn`` inside span ``name``; ``hook(counts, args, result)`` after
        each call; ``error`` = (exception classes, counter) to count."""
        stack, open_, counts = self._stack, self._open, self.counts
        error_cls, error_counter = error
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if open_[name]:
                result = fn(*args, **kwargs)
                if hook:
                    hook(counts, args, result)
                return result
            frame = [clock(), 0]
            stack.append(frame)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            except error_cls:
                counts[error_counter] += 1
                raise
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                open_[name] -= 1
                self.busy_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook:
                hook(counts, args, result)
            return result

        return traced

    def install(self, package):
        for name, sites in SPANS.items():
            error = ERRORS.get(name)
            if error:
                error = (getattr(package.errors, error[0]), error[1])
            for site in sites:
                module_name, attr = site.split(".")
                module = getattr(package, module_name)
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(name, original, HOOKS.get(site),
                                                error or ((), None)))
                self._undo.append((module, attr, original))
        graph_cls = package.graph.Graph
        original = graph_cls.adjacency_lists
        build = self.wrap("graph.adjacency", original)

        def adjacency_lists(g):
            # cached after the first call; only builds are layer work
            return build(g) if g._adj is None else original(g)

        graph_cls.adjacency_lists = adjacency_lists
        self._undo.append((graph_cls, "adjacency_lists", original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Raw totals, JSON-ready."""
        return {"busy_ns": dict(self.busy_ns), "self_ns": dict(self.self_ns),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def per_layer_metrics(totals, ops, overhead):
    """Per-op values of every per-layer metric from a traced run's totals."""
    busy, self_, calls, counts = (totals[k] for k in
                                  ("busy_ns", "self_ns", "calls", "counts"))
    out = {}
    for span in SPANS:
        out[f"{span}_ms"] = busy.get(span, 0) / 1e6 / ops
        out[f"{span}_self_ms"] = self_.get(span, 0) / 1e6 / ops
        out[_calls_name(span)] = calls.get(span, 0) / ops
    for c in COUNTERS:
        out[c] = counts.get(c, 0) / ops
    attempts = calls.get("coloring.two_phase", 0)
    failures = counts.get("coloring.two_phase_failures", 0)
    out["coloring.two_phase_success_ratio"] = (
        (attempts - failures) / attempts if attempts else 0.0)
    out["trace_overhead"] = overhead
    return out
