"""Structural statistics, colorings and closed-form evaluators for powers
of binomial random graphs."""

from .errors import (BudgetExceededError, ConfigError, DomainError,
                     ForestViolationError, GraphPowerError, MemoryBudgetError,
                     NoConvergenceError)
from .graph import (Graph, ball, bfs_layers, gnp_sample, graph_power,
                    induced_subgraph, is_forest, neighborhood_union,
                    read_dimacs, read_edgelist, truncated_bfs, write_dimacs,
                    write_edgelist)
from .metrics import (PowerDegreeSummary, clique_lower_bound, codegree_max,
                      greedy_independent_set, high_degree_set,
                      independence_number, max_clique_exact, power_degree,
                      power_degrees, power_max_degree,
                      power_neighborhood_edge_count, short_cycle_proximity)
from .coloring import (Coloring, dsatur_chromatic_exact, greedy_power_coloring,
                       two_phase_power_coloring, verify_proper_power_coloring)
from .theory import (DegreeProfile, LagrangeSolution, TheoryParams,
                     aks_chi_bound, conjecture_gap, d_star, degree_sum_pmf,
                     iterated_log, janson_k0, janson_mu, layer_entropy,
                     lemma2_min_exact, lemma2_min_lagrange, log_u, u_value)
from .experiments import (ExperimentConfig, TrialRecord, emit,
                          parse_config_file, read_records, run_experiment,
                          verify_theorem)
from .rng import RandomSource, derive_seed, splitmix64

__version__ = "0.1.0"
