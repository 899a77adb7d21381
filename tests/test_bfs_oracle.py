"""The truncated-BFS kernel and everything built on it, and the blocked
G^r-degree kernel, against networkx and the explicit power.

networkx's ``single_source_shortest_path_length`` returns its distances in
BFS visit order.  Edges are added to the networkx graph in sorted order, so
its adjacency rows are sorted like :class:`~graphpower.graph.Graph`'s and
the two searches visit vertices in the same order.
"""

import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Coloring, Graph, ball, bfs_layers, gnp_sample,
                        graph_power, greedy_power_coloring, metrics,
                        neighborhood_union, power_degrees, truncated_bfs,
                        verify_proper_power_coloring)
from graphpower.coloring import greedy_coloring_explicit
from graphpower.rng import RandomSource

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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120), st.floats(0.3, 0.95), st.integers(2, 4),
       st.integers(0, 2 ** 32))
def test_power_degrees_dense(n, p, r, seed):
    # at r >= 3 the path counts of (A+I)^r pass 255, so a product that
    # wrapped a narrow entry to 0 would drop a pair
    g = gnp_sample(n, p, RandomSource(seed))
    assert power_degrees(g, r) == graph_power(g, r).degrees().tolist()


@pytest.mark.parametrize("n", [2, 3, 60])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_power_degrees_complete(n, r):
    g = gnp_sample(n, 1.0, RandomSource(0))
    assert power_degrees(g, r) == [n - 1] * n == graph_power(g, r).degrees().tolist()


def degrees_in_small_blocks(g, r, budget):
    """power_degrees under a key budget of a few keys, and its blocks as
    (rows, peak expansion, halved)."""
    blocks = []
    ball_sizes = metrics._ball_sizes

    def record(g, r, start, stop):
        sizes, peak = ball_sizes(g, r, start, stop)
        blocks.append((stop - start, peak, sizes is None))
        return sizes, peak

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "POWER_KEY_BUDGET", budget)
        mp.setattr(metrics, "_ball_sizes", record)
        degs = power_degrees(g, r)
    # a block may pass the budget only as one row; only larger ones halve
    assert all(peak <= budget for rows, peak, halved in blocks
               if rows > 1 and not halved)
    assert all(rows > 1 for rows, peak, halved in blocks if halved)
    return degs, blocks


@SETTINGS
@given(graphs(max_n=30), st.integers(2, 4))
def test_power_degrees_in_small_blocks(g, r):
    degs, _ = degrees_in_small_blocks(g, r, 3)
    assert degs == [len(distances(g, v, r)) - 1 for v in range(g.n)]


def test_power_degrees_blocks_halve_to_single_rows():
    g = gnp_sample(300, 0.02, RandomSource(3))
    degs, blocks = degrees_in_small_blocks(g, 3, 4)
    assert degs == graph_power(g, 3).degrees().tolist()
    assert any(halved for _, _, halved in blocks)
    assert sum(rows for rows, _, halved in blocks if not halved) == g.n


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_power_degrees_empty_and_single_vertex(r):
    assert power_degrees(Graph.from_edges(0, []), r) == []
    assert power_degrees(Graph.from_edges(1, []), r) == [0]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_power_degrees_are_python_ints(r):
    g = gnp_sample(200, 0.02, RandomSource(2))
    degs = power_degrees(g, r)
    assert type(degs) is list and all(type(d) is int for d in degs)
    assert json.loads(json.dumps(degs)) == degs


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
