"""Balls, the frozen truncated BFS of ``walk_oracle`` that the other
oracles run on, and the (A+I)^r block kernel behind ``power_degrees`` and
``graph_power``, against networkx and the scipy product in
``power_oracle``.
"""

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Coloring, Graph, ball, gnp_sample, graph,
                        graph_power, greedy_power_coloring, metrics,
                        neighborhood_union, power_degrees,
                        verify_proper_power_coloring)
from graphpower.coloring import greedy_coloring_explicit
from graphpower.rng import RandomSource

from power_oracle import scipy_power
from walk_oracle import _truncated_bfs

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
    layers = next(_truncated_bfs(g, r, [(v,)]))
    assert [len(layer) for layer in layers] == [
        sum(1 for d in dist.values() if d == i)
        for i in range(1, max(dist.values()) + 1)]


@SETTINGS
@given(st.data(), graphs(), radii)
def test_kernel_layers_over_many_start_sets(data, g, r):
    # several searches share one stamp array; none may see another's marks
    starts = data.draw(st.lists(st.lists(vertex(g), max_size=3), max_size=5))
    h = nx_graph(g)
    for start, layers in zip(starts, _truncated_bfs(g, r, starts)):
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
    assert power_degrees(g, r) == scipy_power(g, r).degrees().tolist()


@pytest.mark.parametrize("n", [2, 3, 60])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_power_degrees_complete(n, r):
    g = gnp_sample(n, 1.0, RandomSource(0))
    assert power_degrees(g, r) == [n - 1] * n == scipy_power(g, r).degrees().tolist()


def block_peaks(g, r):
    """Per vertex, the keys each hop of its ball expansion joins: the summed
    degree of the vertices at distance exactly k, for k = 0..r-1."""
    deg = g.degrees().tolist()
    peaks = np.zeros((g.n, r), dtype=np.int64)
    for v, layers in enumerate(_truncated_bfs(g, r - 1, zip(range(g.n)))):
        for k, layer in enumerate([[v]] + layers):
            peaks[v, k] = sum(deg[w] for w in layer)
    return peaks


def degrees_in_small_blocks(g, r, budget):
    """power_degrees under a key budget of a few keys, and its blocks as
    (rows, peak expansion, sizes halved from), the peaks found by BFS."""
    yielded = []
    power_blocks = graph._power_blocks

    def record(g, r):
        for start, stop, rows in power_blocks(g, r):
            yielded.append((start, stop))
            yield start, stop, rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "POWER_KEY_BUDGET", budget)
        mp.setattr(metrics, "_power_blocks", record)
        degs = power_degrees(g, r)
    peaks = block_peaks(g, r)
    cap = graph.POWER_INT32_KEYS // max(g.n, 1)

    def block_peak(start, stop):
        return int(peaks[start:stop].sum(axis=0).max(initial=0))

    # the first block tries every row under the row cap; a later one at
    # most doubles the last one and is capped by 3/4 budget / peak.  The sizes
    # a block was halved from are the ones it tried first, each after the
    # size twice it overran
    blocks = []
    start, rows = 0, cap
    for got_start, stop in yielded:
        assert got_start == start
        size = stop - start
        tried = [min(rows, g.n - start)]
        while tried[-1] > size:
            tried.append(tried[-1] // 2)
        assert tried.pop() == size
        assert all(block_peak(start, start + t) > budget for t in tried)
        peak = block_peak(start, stop)
        blocks.append((size, peak, tried))
        rows = min(2 * size, max(1, budget * 3 // 4 * size // max(peak, 1)), cap)
        start = stop
    assert start == g.n
    # a block may pass the budget only as one row; only larger ones halve
    assert all(peak <= budget for rows, peak, _ in blocks if rows > 1)
    assert all(size > 1 for _, _, halved in blocks for size in halved)
    return degs, blocks


@SETTINGS
@given(graphs(max_n=30), st.integers(2, 4))
def test_power_degrees_in_small_blocks(g, r):
    degs, _ = degrees_in_small_blocks(g, r, 3)
    assert degs == [len(distances(g, v, r)) - 1 for v in range(g.n)]


def test_power_degrees_blocks_halve_to_single_rows():
    g = gnp_sample(300, 0.02, RandomSource(3))
    degs, blocks = degrees_in_small_blocks(g, 3, 4)
    assert degs == scipy_power(g, 3).degrees().tolist()
    assert any(halvings for _, _, halvings in blocks)
    assert sum(rows for rows, _, _ in blocks) == g.n


@st.composite
def sparse_and_dense_graphs(draw):
    n = draw(st.integers(1, 120))
    p = draw(st.one_of(st.floats(0.5, 4.0).map(lambda d: min(1.0, d / n)),
                       st.floats(0.3, 0.95)))
    return gnp_sample(n, p, RandomSource(draw(st.integers(0, 2 ** 32))))


@settings(max_examples=80, deadline=None)
@given(sparse_and_dense_graphs(), st.integers(2, 4), st.booleans())
def test_graph_power_equals_scipy_product(g, r, three_key_budget):
    want = scipy_power(g, r)
    with pytest.MonkeyPatch.context() as mp:
        if three_key_budget:
            mp.setattr(graph, "POWER_KEY_BUDGET", 3)
        got = graph_power(g, r)
    assert got.indptr.dtype == got.indices.dtype == np.int64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


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
    # the lexicographically first violating pair
    expected = next(((v, w) for v in range(g.n)
                     for w in sorted(distances(g, v, r))
                     if w > v and colors[w] == colors[v]), None)
    assert verify_proper_power_coloring(graph_power(g, r), coloring) == (
        expected is None, expected)


@SETTINGS
@given(st.data(), graphs(), st.integers(1, 4))
def test_greedy_implicit_equals_explicit(data, g, r):
    order = data.draw(st.permutations(range(g.n)))
    implicit = greedy_power_coloring(g, r, order)
    explicit = greedy_coloring_explicit(graph_power(g, r), order)
    assert implicit.colors == explicit.colors
