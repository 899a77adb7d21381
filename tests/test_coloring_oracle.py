"""The greedy coloring of an explicit graph against a frozen reference.

``reference_coloring_explicit`` is the earlier implementation, kept
verbatim apart from its name (and ``_mex`` inlined from the package): it
builds the adjacency lists and takes the smallest color absent from each
vertex's colored neighbours as a set.  The current function runs on the
CSR arrays and must return the same coloring for every order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import Coloring, Graph, RandomSource, gnp_sample, graph_power
from graphpower.coloring import greedy_coloring_explicit

SETTINGS = settings(max_examples=150, deadline=None)


def _mex(used):
    c = 0
    while c in used:
        c += 1
    return c


def reference_coloring_explicit(gp: Graph, order=None, radius=1) -> Coloring:
    """Greedy coloring of an explicit graph (e.g. a materialized power)."""
    n = gp.n
    if order is None:
        order = range(n)
    adj = gp.adjacency_lists()
    colors = [-1] * n
    for v in order:
        used = {colors[w] for w in adj[v] if colors[w] >= 0}
        colors[v] = _mex(used)
    return Coloring(colors, max(colors) + 1 if n else 0, radius)


@st.composite
def powers(draw):
    n = draw(st.integers(0, 120))
    p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.08, 0.2, 0.5, 1.0]))
    r = draw(st.sampled_from([1, 2, 3]))
    g = gnp_sample(n, p, RandomSource(draw(st.integers(0, 2 ** 32 - 1))))
    return graph_power(g, r), r


@SETTINGS
@given(powers(), st.data())
def test_matches_frozen_reference(power, data):
    gp, r = power
    for order in (None, data.draw(st.permutations(range(gp.n)))):
        got = greedy_coloring_explicit(gp, order, radius=r)
        want = reference_coloring_explicit(gp, order, radius=r)
        assert got.colors == want.colors
        assert got.palette_size == want.palette_size and got.radius == r
        assert all(type(c) is int for c in got.colors)
