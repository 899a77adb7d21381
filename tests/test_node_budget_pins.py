"""The two exact searches pinned node for node.

Each pin is the smallest ``node_budget`` at which ``dsatur_chromatic_exact``
or ``max_clique_exact`` returns on a fixed graph: it succeeds at that budget
and raises BudgetExceededError one node below it.  Records carry
``exact_cert_chi`` and ``exact_omega``, whose values are these budget
outcomes, so a change to either search that moves a node count shows here.
The pins were found by scanning every budget from 0 up, but for C_1501 and
the chromatic number of G(150, 3/n)^3, where they were found by bisection.
"""

import pytest

from graphpower import BudgetExceededError, RandomSource, gnp_sample, graph_power
from graphpower.coloring import dsatur_chromatic_exact
from graphpower.metrics import max_clique_exact

from test_graph import cycle_graph


def sample_power(n, d, r, seed):
    return graph_power(gnp_sample(n, d / n, RandomSource(seed)), r)


GRAPHS = {
    "C1501": lambda: cycle_graph(1501),
    "G(40,5/n)^2 seed 1": lambda: sample_power(40, 5, 2, 1),
    "G(40,5/n)^2 seed 2": lambda: sample_power(40, 5, 2, 2),
    "G(60,5/n)^2 seed 3": lambda: sample_power(60, 5, 2, 3),
    "G(60,5/n)^2 seed 4": lambda: sample_power(60, 5, 2, 4),
    "G(80,5/n)^2 seed 5": lambda: sample_power(80, 5, 2, 5),
    "G(150,3/n)^3 seed 1": lambda: sample_power(150, 3, 3, 1),
    "G(150,3/n)^3 seed 2": lambda: sample_power(150, 3, 3, 2),
    "G(150,3/n)^3 seed 3": lambda: sample_power(150, 3, 3, 3),
    "G(150,3/n)^3 seed 4": lambda: sample_power(150, 3, 3, 4),
}

# (graph, smallest budget, chromatic number); the search on the other
# G(150, 3/n)^3 samples needs more than 20 000 nodes
CHROMATIC = [
    ("C1501", 1501, 3),
    ("G(40,5/n)^2 seed 1", 252, 10),
    ("G(40,5/n)^2 seed 2", 817, 11),
    ("G(60,5/n)^2 seed 3", 43, 14),
    ("G(60,5/n)^2 seed 4", 39, 11),
    ("G(80,5/n)^2 seed 5", 604, 13),
    ("G(150,3/n)^3 seed 4", 16918, 17),
]

# (graph, smallest budget, clique number)
CLIQUE = [
    ("C1501", 3, 2),
    ("G(40,5/n)^2 seed 1", 18, 10),
    ("G(40,5/n)^2 seed 2", 16, 11),
    ("G(60,5/n)^2 seed 3", 43, 14),
    ("G(60,5/n)^2 seed 4", 42, 11),
    ("G(80,5/n)^2 seed 5", 37, 12),
    ("G(150,3/n)^3 seed 1", 52, 14),
    ("G(150,3/n)^3 seed 2", 88, 18),
    ("G(150,3/n)^3 seed 3", 56, 22),
    ("G(150,3/n)^3 seed 4", 111, 17),
]


@pytest.mark.parametrize("name, budget, chi", CHROMATIC,
                         ids=[c[0] for c in CHROMATIC])
def test_chromatic_pin(name, budget, chi):
    g = GRAPHS[name]()
    assert dsatur_chromatic_exact(g, node_budget=budget).palette_size == chi
    with pytest.raises(BudgetExceededError):
        dsatur_chromatic_exact(g, node_budget=budget - 1)


@pytest.mark.parametrize("name, budget, omega", CLIQUE, ids=[c[0] for c in CLIQUE])
def test_clique_pin(name, budget, omega):
    g = GRAPHS[name]()
    assert max_clique_exact(g, node_budget=budget) == omega
    with pytest.raises(BudgetExceededError):
        max_clique_exact(g, node_budget=budget - 1)
