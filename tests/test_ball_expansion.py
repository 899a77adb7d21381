"""Short cycles, co-degrees and the coloring verifier, as ball expansions
from every root, against the per-vertex Python walks they replaced (frozen
in ``walk_oracle``) and, for the short cycles, against networkx's
length-bounded cycle enumeration.

Every comparison also runs with a key budget of 3 or 1, so blocks of one
root and the halve-and-redo path run, and on forced int64 keys (a bound on
the keys below n leaves no room for one row)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Coloring, Graph, codegree_max, gnp_sample, graph,
                        graph_power, greedy_power_coloring,
                        short_cycle_proximity, verify_proper_power_coloring)
from graphpower.graph import power_table
from graphpower.metrics import vertices_on_short_cycles
from graphpower.rng import RandomSource

from walk_oracle import (bfs_short_cycle_proximity,
                         bfs_verify_proper_power_coloring,
                         counter_codegree_max, dfs_vertices_on_short_cycles)


def union(a, b):
    """The disjoint union of two graphs, b's vertices after a's."""
    edges = a.edge_array().tolist() + (b.edge_array() + a.n).tolist()
    return Graph.from_edges(a.n + b.n, edges)


def sample(draw, max_n, d_range):
    n = draw(st.integers(1, max_n))
    d = draw(st.floats(*d_range))
    return gnp_sample(n, min(1.0, d / n), RandomSource(draw(st.integers(0, 2 ** 32))))


@st.composite
def graphs(draw):
    """Sparse, dense (small: the path DFS is exponential there), with two
    components and isolated vertices, or edgeless, n = 0 included."""
    kind = draw(st.sampled_from(["sparse", "dense", "disconnected", "empty"]))
    if kind == "sparse":
        return sample(draw, 30, (0.5, 2.5))
    if kind == "dense":
        return gnp_sample(draw(st.integers(1, 7)), draw(st.floats(0.3, 1.0)),
                          RandomSource(draw(st.integers(0, 2 ** 32))))
    if kind == "disconnected":
        g = union(sample(draw, 15, (1.0, 3.0)), sample(draw, 6, (0.5, 6.0)))
        return union(g, Graph.from_edges(draw(st.integers(0, 3)), []))
    return Graph.from_edges(draw(st.integers(0, 8)), [])


# (POWER_KEY_BUDGET, force int64 keys); None keeps the default
LAYOUTS = st.sampled_from([(None, False), (3, False), (1, False), (None, True),
                           (3, True)])


def layout(mp, g, budget, int64):
    if budget is not None:
        mp.setattr(graph, "POWER_KEY_BUDGET", budget)
    if int64:
        mp.setattr(graph, "POWER_INT32_KEYS", max(g.n - 1, 0))


SETTINGS = settings(max_examples=200, deadline=None)


@settings(max_examples=150, deadline=None)
@given(graphs(), LAYOUTS, st.integers(1, 4))
def test_root_blocks_cover_every_root_once_in_order(g, lay, cap):
    """Blocks run over consecutive roots, no block of more than one root
    expands past the budget nor holds more than ``POWER_INT32_KEYS // n``
    roots, and ``expand`` returns each key's neighbours as keys of the
    same row, int64 only when the bound leaves no room for one row, with
    the position of the key that reached each one."""
    blocks = []

    def grow(roots, expand):
        reached, run = expand(roots)
        # every vertex is a root: local row 0 holds the block's first
        blocks.append((int(roots[0]), roots, reached, run))

    with pytest.MonkeyPatch.context() as mp:
        layout(mp, g, *lay)
        if not lay[1]:
            mp.setattr(graph, "POWER_INT32_KEYS", cap * g.n)
        list(graph._root_blocks(g, grow))
        budget = graph.POWER_KEY_BUDGET
    n = g.n
    assert [start for start, *_ in blocks] == sorted(
        {start for start, *_ in blocks})
    assert sum(roots.size for _, roots, _, _ in blocks) == n
    for start, roots, reached, run in blocks:
        dtype = np.int64 if lay[1] else np.int32
        assert roots.dtype == reached.dtype == dtype
        assert roots.tolist() == [i * (n + 1) + start for i in range(roots.size)]
        assert reached.tolist() == [i * n + w for i in range(roots.size)
                                    for w in g.neighbors(start + i).tolist()]
        assert run.tolist() == [i for i in range(roots.size)
                                for _ in g.neighbors(start + i).tolist()]
        assert roots.size == 1 or reached.size <= budget
        assert lay[1] or roots.size <= cap


@st.composite
def rooted_graphs(draw):
    """A graph and sorted roots: none, one isolated vertex (appended to the
    graph), every vertex, or a random subset."""
    g = draw(graphs())
    kind = draw(st.sampled_from(["empty", "isolated", "every", "subset"]))
    if kind == "isolated":
        g = union(g, Graph.from_edges(1, []))
        return g, [g.n - 1]
    if kind == "subset":
        return g, sorted(draw(st.sets(st.integers(0, max(g.n - 1, 0)),
                                      max_size=g.n)))
    return g, list(range(g.n)) if kind == "every" else []


def kernel(dense):
    return graph._bit_power_blocks if dense else graph._power_blocks


@settings(max_examples=150, deadline=None)
@given(rooted_graphs(), st.integers(1, 4), st.booleans(), LAYOUTS)
def test_table_from_roots_is_the_full_tables_columns(case, r, dense, lay):
    """Either power kernel from given roots, in blocks of a few keys, holds
    the columns of the full table at those roots at every radius: a block's
    radius past its own last growing hop reads its last ball sizes, as a
    radius past the table's last row reads that row."""
    g, roots = case
    with pytest.MonkeyPatch.context() as mp:
        layout(mp, g, *lay)
        mp.setattr(graph, "_dense", lambda g: dense)
        full = power_table(g, r, None)[0]
        blocks = list(kernel(dense)(g, r, np.array(roots, dtype=np.int64)))
    ends = [0] + [stop for _, stop, _ in blocks]
    assert [start for start, *_ in blocks] == ends[:-1] and ends[-1] == len(roots)
    for start, stop, (_, sizes) in blocks:
        for s in range(r + 1):
            part = sizes[min(s, len(sizes)) - 1] - 1 if s and sizes else 0
            assert (part == full[min(s, len(full) - 1)][roots[start:stop]]).all()


@pytest.mark.parametrize("root", [-45, -1, 50, 55])
@pytest.mark.parametrize("dense", [False, True])
def test_table_refuses_roots_outside_the_graph(root, dense):
    """A kernel is a generator: it refuses at its first block."""
    g = gnp_sample(50, 0.1, RandomSource(3))
    blocks = kernel(dense)(g, 2, [0, root] if root > 0 else [root, 0])
    with pytest.raises(ValueError, match="vertices of g"):
        next(blocks)


@SETTINGS
@given(graphs(), st.integers(3, 16), st.integers(0, 3), LAYOUTS)
def test_short_cycles_equal_the_path_dfs(g, t, s, lay):
    with pytest.MonkeyPatch.context() as mp:
        layout(mp, g, *lay)
        core = vertices_on_short_cycles(g, t)
        z = short_cycle_proximity(g, s, t)
    assert core == dfs_vertices_on_short_cycles(g, t)
    assert z == bfs_short_cycle_proximity(g, s, t)
    assert type(z) is int and all(type(v) is int for v in core)


@SETTINGS
@given(graphs(), st.integers(1, 4), LAYOUTS)
def test_codegree_equals_the_counters(g, r, lay):
    with pytest.MonkeyPatch.context() as mp:
        layout(mp, g, *lay)
        got = codegree_max(g, r)
    assert got == counter_codegree_max(g, r)
    assert all(type(x) is int for x in got)


@SETTINGS
@given(st.data(), graphs(), st.integers(1, 4), LAYOUTS)
def test_verifier_equals_the_bfs_walk(data, g, r, lay):
    """Colors from a palette of 1-3 are mostly improper, so the witness
    pair itself is compared; a greedy coloring of G^r must pass."""
    colors = data.draw(st.lists(st.integers(0, data.draw(st.integers(0, 2))),
                                min_size=g.n, max_size=g.n))
    coloring = Coloring(colors, r)
    greedy = greedy_power_coloring(g, r)
    with pytest.MonkeyPatch.context() as mp:
        layout(mp, g, *lay)
        gp = graph_power(g, r)
        got = verify_proper_power_coloring(gp, coloring)
        assert verify_proper_power_coloring(gp, greedy) == (True, None)
    assert got == bfs_verify_proper_power_coloring(g, r, colors)


def networkx_short_cycles(g, t):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_array().tolist())
    return {v for cycle in nx.simple_cycles(h, length_bound=t) for v in cycle}


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(3, 16))
def test_short_cycles_equal_networkx(g, t):
    assert vertices_on_short_cycles(g, t) == networkx_short_cycles(g, t)


def test_short_cycles_equal_networkx_at_the_cap():
    """t = 16 on G(300, 2.5/n): the path DFS walks about 10**7 paths here;
    the ball expansion needs no work cap."""
    g = gnp_sample(300, 2.5 / 300, RandomSource(12))
    got = vertices_on_short_cycles(g, 16)
    assert got and got == networkx_short_cycles(g, 16)


@pytest.mark.parametrize("length", range(3, 18))
def test_a_cycle_is_found_from_its_own_length_on(length):
    """C_L with a pendant path: every cycle vertex at t = L, none at
    t = L - 1, for odd and even L alike."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(0, length), (length, length + 1)]
    g = Graph.from_edges(length + 2, edges)
    assert vertices_on_short_cycles(g, length) == set(range(length))
    assert vertices_on_short_cycles(g, length - 1) == set()
    if length <= 16:
        assert short_cycle_proximity(g, 1, length) == length + 1


def test_short_cycles_below_length_three_are_empty():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert vertices_on_short_cycles(g, 2) == set()
