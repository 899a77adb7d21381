"""The exact clique and independence solvers on powers of small G(n, d/n),
against networkx's maximum clique, and across the 64-bit word boundaries
where the packed bit rows become the solvers' Python ints."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (RandomSource, gnp_sample, graph_power,
                        independence_number, max_clique_exact)

from test_bfs_oracle import nx_graph
from test_dense_path import forced

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def powers(draw):
    """(G^r, networkx copy of G^r) for G ~ G(n, d/n), n <= 25, r in 1..3."""
    n = draw(st.integers(1, 25))
    d = draw(st.floats(0.5, 6.0))
    r = draw(st.integers(1, 3))
    g = gnp_sample(n, min(d / n, 1.0), RandomSource(draw(st.integers(0, 2 ** 32))))
    return graph_power(g, r), nx.power(nx_graph(g), r)


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


@pytest.mark.parametrize("dense", [False, True], ids=["csr", "bit-rows"])
@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_across_word_boundaries(n, dense, monkeypatch):
    """G(n, 4/n)^2 with a row of one, two or three words, built by the sort
    kernel (its bit rows packed from the CSR) or on bit rows."""
    g = gnp_sample(n, 4.0 / n, RandomSource(n))
    forced(monkeypatch, dense)
    gp = graph_power(g, 2)
    assert (gp._indices is None) == dense
    h = nx.power(nx_graph(g), 2)
    assert max_clique_exact(gp) == clique_number(h)
    assert independence_number(gp) == clique_number(nx.complement(h))
