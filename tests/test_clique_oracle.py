"""The exact clique and independence solvers on powers of small G(n, d/n),
against networkx's maximum clique."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (RandomSource, gnp_sample, graph_power,
                        independence_number, max_clique_exact)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def powers(draw):
    """(G^r, networkx copy of G^r) for G ~ G(n, d/n), n <= 25, r in 1..3."""
    n = draw(st.integers(1, 25))
    d = draw(st.floats(0.5, 6.0))
    r = draw(st.integers(1, 3))
    g = gnp_sample(n, min(d / n, 1.0), RandomSource(draw(st.integers(0, 2 ** 32))))
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edge_array().tolist())
    return graph_power(g, r), nx.power(h, r)


def clique_number(h):
    return nx.max_weight_clique(h, weight=None)[1]


@SETTINGS
@given(powers())
def test_clique_number(pair):
    gp, h = pair
    assert max_clique_exact(gp) == clique_number(h)


@SETTINGS
@given(powers())
def test_independence_number(pair):
    gp, h = pair
    assert independence_number(gp) == clique_number(nx.complement(h))
