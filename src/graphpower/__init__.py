"""Structural statistics, colorings and closed-form evaluators for powers
of binomial random graphs.

Each submodule, and each name below, loads on first use: ``theory``
imports neither numpy nor the process pool, so a caller of the
closed-form evaluators alone does not pay for them.
"""

import importlib

_EXPORTS = {
    "errors": "BudgetExceededError ConfigError DomainError ForestViolationError "
              "GraphPowerError MemoryBudgetError NoConvergenceError",
    "graph": "Graph ball gnp_sample graph_power induced_subgraph is_forest "
             "neighborhood_union power_table read_dimacs read_edgelist "
             "write_dimacs write_edgelist",
    "metrics": "PowerDegreeSummary clique_lower_bound codegree_max "
               "greedy_independent_set high_degree_set independence_number "
               "max_clique_exact power_degrees power_max_degree "
               "power_max_degrees power_neighborhood_edge_count "
               "short_cycle_proximity",
    "coloring": "Coloring dsatur_chromatic_exact greedy_power_coloring "
                "two_phase_power_coloring verify_proper_power_coloring",
    "theory": "DegreeProfile LagrangeSolution aks_chi_bound d_star degree_sum_pmf "
              "iterated_log janson_k0 janson_mu layer_entropy lemma2_min_exact "
              "lemma2_min_lagrange log_u u_value",
    "experiments": "ExperimentConfig TrialRecord emit parse_config_file "
                   "read_records run_experiment verify_theorem",
    "rng": "RandomSource derive_seed splitmix64",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
