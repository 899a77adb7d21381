"""The truncated-BFS kernel and everything built on it, against networkx.

networkx's ``single_source_shortest_path_length`` returns its distances in
BFS visit order.  Edges are added to the networkx graph in sorted order, so
its adjacency rows are sorted like :class:`~graphpower.graph.Graph`'s and
the two searches visit vertices in the same order.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Coloring, Graph, ball, bfs_layers, graph_power,
                        greedy_power_coloring, neighborhood_union,
                        power_degrees, truncated_bfs,
                        verify_proper_power_coloring)
from graphpower.coloring import greedy_coloring_explicit

SETTINGS = settings(max_examples=150, deadline=None)
radii = st.integers(0, 4)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph.from_edges(n, edges)


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_array().tolist())
    return h


def distances(g, v, r):
    return nx.single_source_shortest_path_length(nx_graph(g), v, cutoff=r)


def vertex(g):
    return st.integers(0, g.n - 1)


@SETTINGS
@given(st.data(), graphs(), radii)
def test_ball_and_layers(data, g, r):
    v = data.draw(vertex(g))
    dist = distances(g, v, r)
    assert ball(g, v, r) == sorted(dist)
    if r >= 1:
        assert bfs_layers(g, v, r) == tuple(
            sum(1 for d in dist.values() if d == i) for i in range(1, r + 1))


@SETTINGS
@given(st.data(), graphs(), radii)
def test_kernel_layers_over_many_start_sets(data, g, r):
    # several searches share one stamp array; none may see another's marks
    starts = data.draw(st.lists(st.lists(vertex(g), max_size=3), max_size=5))
    h = nx_graph(g)
    for start, layers in zip(starts, truncated_bfs(g, r, starts)):
        dist = {}
        for v in start:
            for w, d in nx.single_source_shortest_path_length(
                    h, v, cutoff=r).items():
                dist[w] = min(d, dist.get(w, d))
        depth = max(dist.values(), default=0)
        assert [set(layer) for layer in layers] == [
            {w for w, d in dist.items() if d == i} for i in range(1, depth + 1)]
        assert sum(map(len, layers)) == len(dist) - len(set(start))


@SETTINGS
@given(st.data(), graphs(), radii)
def test_neighborhood_union(data, g, r):
    sources = data.draw(st.lists(vertex(g), max_size=4))  # duplicates allowed
    reached = set()
    for v in sources:
        reached.update(distances(g, v, r))
    assert neighborhood_union(g, sources, r) == sorted(reached)
    assert neighborhood_union(g, sources, r, include_sources=False) == sorted(
        reached - set(sources))


@SETTINGS
@given(graphs(), radii)
def test_power_degrees(g, r):
    assert power_degrees(g, r) == [len(distances(g, v, r)) - 1
                                   for v in range(g.n)]


@SETTINGS
@given(st.data(), graphs(), st.integers(1, 4))
def test_first_violating_pair(data, g, r):
    colors = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    coloring = Coloring(colors, max(colors) + 1, r)
    expected = next(((v, w) for v in range(g.n) for w in distances(g, v, r)
                     if w > v and colors[w] == colors[v]), None)
    assert verify_proper_power_coloring(g, r, coloring) == (
        expected is None, expected)


@SETTINGS
@given(st.data(), graphs(), st.integers(1, 4))
def test_greedy_implicit_equals_explicit(data, g, r):
    order = data.draw(st.permutations(range(g.n)))
    implicit = greedy_power_coloring(g, r, order)
    explicit = greedy_coloring_explicit(graph_power(g, r), order)
    assert implicit.colors == explicit.colors
