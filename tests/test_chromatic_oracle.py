"""The exact chromatic number against an independent brute-force
k-colourability test, on small graphs and on powers of small G(n, p)."""

import random
from itertools import combinations

import pytest

from graphpower import Graph, RandomSource, gnp_sample, graph_power
from graphpower.coloring import dsatur_chromatic_exact


def k_colourable(n, edges, k):
    """Whether some assignment of k colours to vertices 0..n-1 is proper.

    Tries the assignments in vertex order, up to renaming the colours (a
    vertex takes at most one colour above those used before it), and drops
    a partial assignment at its first conflict.
    """
    earlier = [[] for _ in range(n)]
    for u, v in edges:
        earlier[max(u, v)].append(min(u, v))
    colors = []

    def extend(v):
        if v == n:
            return True
        for c in range(min(k, max(colors, default=-1) + 2)):
            if all(colors[u] != c for u in earlier[v]):
                colors.append(c)
                if extend(v + 1):
                    return True
                colors.pop()
        return False

    return extend(0)


def brute_force_chi(g):
    edges = g.edge_array().tolist()
    return next(k for k in range(g.n + 1) if k_colourable(g.n, edges, k))


def check_exact(g):
    coloring = dsatur_chromatic_exact(g)
    assert coloring.palette_size == brute_force_chi(g)
    assert all(coloring.colors[u] != coloring.colors[v]
               for u, v in g.edge_array().tolist())


@pytest.mark.parametrize("n", range(7))
def test_small_graphs_from_edge_masks(n):
    pairs = list(combinations(range(n), 2))
    rng = random.Random(n)
    for _ in range(1000):
        mask = rng.getrandbits(len(pairs)) if pairs else 0
        check_exact(Graph.from_edges(n, [e for i, e in enumerate(pairs)
                                         if mask >> i & 1]))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_powers_of_small_gnp(r):
    rng = random.Random(r)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = gnp_sample(n, rng.choice([0.1, 0.2, 0.35, 0.6]),
                       RandomSource(rng.getrandbits(32)))
        check_exact(graph_power(g, r))
