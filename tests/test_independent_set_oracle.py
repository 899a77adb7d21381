"""The min-degree greedy independent set against two frozen references and
networkx.

``reference_independent_set`` and ``list_independent_set`` are earlier
implementations, kept verbatim apart from their names.  The first copies
every row into a set and pushes one lazy-heap entry per degree decrement;
the second walks the adjacency lists and pushes one entry per touched
vertex.  The rule they implement (least alive-degree, smallest index on
ties, delete the pick and its neighbours) fixes the output, so the current
function, which runs on the CSR arrays, must return the same list.
"""

import heapq

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Graph, RandomSource, gnp_sample, graph_power,
                        greedy_independent_set)

SETTINGS = settings(max_examples=120, deadline=None)


def reference_independent_set(g: Graph) -> list:
    n = g.n
    adj = [set(row) for row in g.adjacency_lists()]
    deg = [len(a) for a in adj]
    alive = [True] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        chosen.append(v)
        kill = [v] + [w for w in adj[v] if alive[w]]
        for w in kill:
            alive[w] = False
        for w in kill:
            for x in adj[w]:
                if alive[x]:
                    deg[x] -= 1
                    heapq.heappush(heap, (deg[x], x))
    return sorted(chosen)


def list_independent_set(g: Graph) -> list:
    adj = g.adjacency_lists()
    deg = g.degrees().tolist()
    alive = [True] * g.n
    heap = list(zip(deg, range(g.n)))
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        chosen.append(v)
        kill = [v] + [w for w in adj[v] if alive[w]]
        for w in kill:
            alive[w] = False
        touched = set()
        for w in kill:
            for x in adj[w]:
                if alive[x]:
                    deg[x] -= 1
                    touched.add(x)
        for x in touched:
            heapq.heappush(heap, (deg[x], x))
    return sorted(chosen)


@st.composite
def gnp_graphs(draw):
    n = draw(st.integers(0, 120))
    p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.6]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return gnp_sample(n, p, RandomSource(seed))


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_array().tolist())
    return h


@SETTINGS
@given(gnp_graphs(), st.sampled_from([1, 2]))
def test_matches_frozen_reference(g, r):
    gp = graph_power(g, r) if r > 1 else g
    chosen = greedy_independent_set(gp)
    assert chosen == reference_independent_set(gp) == list_independent_set(gp)
    assert all(type(v) is int for v in chosen)


@SETTINGS
@given(gnp_graphs(), st.sampled_from([1, 2]))
def test_independent_and_maximal(g, r):
    gp = graph_power(g, r) if r > 1 else g
    chosen = greedy_independent_set(gp)
    h = nx_graph(gp)
    assert chosen == sorted(set(chosen))
    assert h.subgraph(chosen).number_of_edges() == 0
    assert nx.is_dominating_set(h, chosen)


def test_ties_go_to_the_smallest_index():
    # every vertex of C6 has degree 2, so 0 goes first; deleting 0, 1, 5
    # leaves 2 and 4 at degree 1, and 2 goes next
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert greedy_independent_set(g) == [0, 2, 4]
    # a path 0-1-2-3-4: the two leaves have degree 1, leaf 0 goes first
    path = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert greedy_independent_set(path) == [0, 2, 4]


def test_least_alive_degree_goes_first():
    # star K_{1,4} with centre 0: a leaf (degree 1) beats the centre
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert greedy_independent_set(star) == [1, 2, 3, 4]
