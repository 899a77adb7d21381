"""``induced_subgraph`` against a frozen reference.

``reference_induced_subgraph`` is the earlier implementation, kept verbatim
apart from its name: it walks the sorted vertex set and reads each
neighbour's new index one numpy scalar at a time.  The current function
reads the rows of the vertex set by one row gather and relabels them
through one label array, and must give the same CSR arrays,
for vertex sets with duplicates, empty and full ones.  The reference's index
map is not compared: the current function returns the graph alone, in which
a vertex's new index is its rank in sorted(s), as in that map.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Graph, RandomSource, gnp_sample, high_degree_set,
                        induced_subgraph, neighborhood_union, power_max_degree)
from graphpower.graph import power_table

SETTINGS = settings(max_examples=200, deadline=None)


def reference_induced_subgraph(g: Graph, s):
    """Graph induced on vertex set s, plus the old->new index map.

    New indices follow the sorted order of s.
    """
    s = sorted(set(s))
    index_map = {v: i for i, v in enumerate(s)}
    ns = len(s)
    mask = np.full(g.n, -1, dtype=np.int64)
    for v, i in index_map.items():
        mask[v] = i
    edges = []
    for v in s:
        nv = index_map[v]
        for w in g.neighbors(v):
            mw = mask[w]
            if mw > nv:
                edges.append((nv, mw))
    return Graph.from_edges(ns, edges), index_map


def assert_same(h, want):
    h_ref, _ = want
    assert h.n == h_ref.n
    assert np.array_equal(h.indptr, h_ref.indptr)
    assert np.array_equal(h.indices, h_ref.indices)


@st.composite
def graphs(draw, max_n=20):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def vertex_sets(draw, g):
    kind = draw(st.sampled_from(["any", "empty", "full"]))
    if kind == "empty" or g.n == 0:
        return []
    if kind == "full":
        return draw(st.permutations(range(g.n)))
    # duplicates allowed, in any order
    return draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))


@SETTINGS
@given(graphs().flatmap(lambda g: st.tuples(st.just(g), vertex_sets(g))))
def test_matches_frozen_reference(case):
    g, s = case
    assert_same(induced_subgraph(g, s), reference_induced_subgraph(g, s))


def test_two_phase_closures_match():
    # the subgraph the two-phase coloring builds: S and its radius-r ball
    for n, r, seed in ((2000, 2, 1), (3000, 3, 2)):
        g = gnp_sample(n, 2.0 / n, RandomSource(seed))
        degrees = power_table(g, r, None)[0]
        s = high_degree_set(degrees, r, power_max_degree(degrees, r - 1).delta)
        closure = neighborhood_union(g, s, r)
        assert closure
        assert_same(induced_subgraph(g, closure),
                    reference_induced_subgraph(g, closure))
