"""The greedy colorings against frozen references.

``reference_coloring_explicit`` is the earlier greedy of an explicit graph,
kept verbatim apart from its name (and ``_mex`` inlined from the package):
it builds the adjacency lists and takes the smallest color absent from each
vertex's colored neighbours as a set.  The current function runs on the
CSR arrays, or on bit rows when the graph is dense, and must return the
same coloring for every order.

The greedy and two-phase colorings of G^r ran one truncated BFS per vertex
before they moved onto the rows of an explicit power; those walks are
frozen in ``walk_oracle``.  Each case runs on the CSR rows with
``SHORT_ROW`` at 0 and above n, and on the color-class scan of the dense
branch, so every vertex takes each of the three ways to its color.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Coloring, ForestViolationError, Graph, RandomSource,
                        coloring, gnp_sample, graph_power, greedy_power_coloring,
                        two_phase_power_coloring)
from graphpower.coloring import greedy_coloring_explicit
from graphpower.graph import DEFAULT_EDGE_CAP, power_table

from walk_oracle import bfs_greedy_power_coloring, bfs_two_phase_power_coloring

SETTINGS = settings(max_examples=150, deadline=None)


def _mex(used):
    c = 0
    while c in used:
        c += 1
    return c


def reference_coloring_explicit(gp: Graph, order=None) -> Coloring:
    """Greedy coloring of an explicit graph (e.g. a materialized power)."""
    n = gp.n
    if order is None:
        order = range(n)
    adj = gp.adjacency_lists()
    colors = [-1] * n
    for v in order:
        used = {colors[w] for w in adj[v] if colors[w] >= 0}
        colors[v] = _mex(used)
    return Coloring(colors)


@st.composite
def powers(draw):
    n = draw(st.integers(0, 120))
    p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.08, 0.2, 0.5, 1.0]))
    r = draw(st.sampled_from([1, 2, 3]))
    g = gnp_sample(n, p, RandomSource(draw(st.integers(0, 2 ** 32 - 1))))
    return graph_power(g, r)


@SETTINGS
@given(powers(), st.data())
def test_matches_frozen_reference(gp, data):
    for order in (None, data.draw(st.permutations(range(gp.n)))):
        got = greedy_coloring_explicit(gp, order)
        want = reference_coloring_explicit(gp, order)
        assert got.colors == want.colors and got.radius == 1
        assert all(type(c) is int for c in got.colors)


@st.composite
def graphs(draw):
    """Sparse and dense samples, cycles, and the forests on which the
    two-phase coloring succeeds: paths, random trees and G(n, c/n) with
    c < 1."""
    kind = draw(st.sampled_from(["sparse", "dense", "cycle", "path", "tree",
                                 "subcritical"]))
    n = draw(st.integers(1, 40))
    src = RandomSource(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "sparse":
        return gnp_sample(n, min(1.0, draw(st.floats(1.0, 4.0)) / n), src)
    if kind == "dense":
        return gnp_sample(min(n, 20), draw(st.floats(0.3, 1.0)), src)
    if kind == "cycle":
        n = max(n, 3)
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "tree":
        label = draw(st.permutations(range(n)))
        return Graph.from_edges(n, [(label[i], label[draw(st.integers(0, i - 1))])
                                    for i in range(1, n)])
    return gnp_sample(n, draw(st.floats(0.1, 0.99)) / n, src)


def on_every_branch(g, color):
    """``color()`` with every CSR row taking the set, then the bincount,
    then with every graph on the color-class scan of the dense branch."""
    out = []
    for dense, short_row in ((False, g.n + 1), (False, 0), (True, 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coloring, "_dense", lambda gp: dense)
            mp.setattr(coloring, "SHORT_ROW", short_row)
            out.append(color())
    return out


def outcome(color):
    """("colors", list) or ("cycle", the forest violation's witness)."""
    try:
        return "colors", color()
    except ForestViolationError as exc:
        return "cycle", exc.cycle


@SETTINGS
@given(graphs(), st.integers(1, 4), st.data())
def test_greedy_equals_the_bfs_walk(g, r, data):
    for order in (None, data.draw(st.permutations(range(g.n)))):
        want = bfs_greedy_power_coloring(g, r, order)
        got = on_every_branch(
            g, lambda: greedy_power_coloring(g, r, order).colors)
        assert got == [want] * 3


@SETTINGS
@given(graphs(), st.integers(2, 4))
def test_two_phase_equals_the_bfs_walk(g, r):
    want = outcome(lambda: bfs_two_phase_power_coloring(g, r))
    got = on_every_branch(
        g, lambda: outcome(lambda: two_phase_power_coloring(
            g, r, *power_table(g, r, DEFAULT_EDGE_CAP)).colors))
    assert got == [want] * 3
