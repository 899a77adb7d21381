"""Whole-trial oracle: every ``experiments._measure_*`` rebuilt from networkx.

Given a config and a trial index, :func:`oracle_trial` returns the
``(values, exact)`` pair that ``run_single_trial`` must record, computed
from the definitions rather than from the package:

- the sample, one uniform double per pair i < j in lexicographic order,
  an edge when it is below p (the bernoulli mode, which small n selects);
- the powers by ``nx.power`` and their degrees;
- greedy colorings by ``nx.greedy_color`` in the stated vertex order;
- the clique number by ``nx.find_cliques``;
- the min-degree greedy independent set by a plain loop;
- the two-phase coloring from its specification, on ``nx.is_forest`` and a
  BFS over each tree;
- the certificate's chromatic number by a k-colourability search;
- the vertices on short cycles edge by edge: an edge uv lies on a cycle of
  length <= t exactly when u and v stay within t - 1 of each other
  without it.

Only the per-trial seed (``derive_seed``) and the closed-form ``d_star``
come from the package.  The budgets of the exact solvers are not modelled:
at the sizes the tests use they are never hit, so every exact flag is True.
"""

import math
from itertools import count

import networkx as nx
import numpy as np

from graphpower import theory
from graphpower.rng import derive_seed

CYCLE_LENGTH_CAP = 16


def sample(cfg, trial):
    """The trial's G(n, p) as a networkx graph on 0..n-1."""
    assert cfg.n * (cfg.n - 1) // 2 <= 2 ** 21 and cfg.sample_mode != "skip"
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, trial)))
    g = nx.Graph()
    g.add_nodes_from(range(cfg.n))
    if cfg.n > 1 and 0 < cfg.p < 1:
        i, j = np.triu_indices(cfg.n, k=1)
        keep = rng.random(i.size) < cfg.p
        g.add_edges_from(zip(i[keep].tolist(), j[keep].tolist()))
    elif cfg.p == 1:
        g.add_edges_from((i, j) for i in range(cfg.n)
                         for j in range(i + 1, cfg.n))
    return g


def degrees(g, r):
    """The G^r degree of every vertex, in vertex order."""
    h = nx.power(g, r)
    return [h.degree(v) for v in range(g.number_of_nodes())]


def max_degree(g, r):
    """(Delta(G^r), the smallest vertex that attains it)."""
    degs = degrees(g, r)
    if not degs:
        return 0, -1
    return max(degs), degs.index(max(degs))


def greedy(h, order):
    """Greedy colors of h in the given order, as a list by vertex."""
    colors = nx.greedy_color(h, strategy=lambda graph, colors: iter(order))
    return [colors[v] for v in range(h.number_of_nodes())]


def is_proper(h, colors):
    return all(colors[u] != colors[v] for u, v in h.edges())


def two_phase_or_greedy(g, r):
    """(colors, two_phase_ok) of the coloring of G^r the trials make.

    S holds the vertices whose G^r degree passes Delta(G^(r-1)).  When S
    and its radius-r neighbourhood induce a forest, the S-vertices are
    colored first, in BFS order over each tree from its smallest vertex
    (neighbours in increasing order), and then the rest in index order;
    otherwise every vertex is colored in index order.
    """
    n = g.number_of_nodes()
    gr = nx.power(g, r)
    threshold = max_degree(g, r - 1)[0]
    s_set = [v for v, d in enumerate(degrees(g, r)) if d > threshold]
    if not s_set:
        return greedy(gr, range(n)), True
    near = nx.multi_source_dijkstra_path_length(g, set(s_set), cutoff=r)
    closure = g.subgraph(near)
    if not nx.is_forest(closure):
        return greedy(gr, range(n)), False
    seen, walk = set(), []
    for root in sorted(closure):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for x in queue:
            walk.append(x)
            for y in sorted(closure[x]):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    in_s = set(s_set)
    first = [x for x in walk if x in in_s]
    rest = [v for v in range(n) if v not in in_s]
    return greedy(gr, first + rest), True


def clique_number(h):
    return max((len(c) for c in nx.find_cliques(h)), default=0)


def chromatic_number(h):
    """The least k for which a k-coloring exists, searched vertex by vertex
    (the vertices of a largest clique first), each vertex taking one of
    the colors used so far or the next one."""
    clique = max(nx.find_cliques(h), key=len, default=[])
    order = list(clique) + sorted(set(h) - set(clique),
                                  key=lambda v: -h.degree(v))
    place = {v: i for i, v in enumerate(order)}
    earlier = [[place[w] for w in h[v] if place[w] < i]
               for i, v in enumerate(order)]

    def colorable(k):
        colors = []

        def extend(i):
            if i == len(order):
                return True
            for c in range(min(k, max(colors, default=-1) + 2)):
                if all(colors[j] != c for j in earlier[i]):
                    colors.append(c)
                    if extend(i + 1):
                        return True
                    colors.pop()
            return False

        return extend(0)

    return next(k for k in count(len(clique)) if colorable(k))


def min_degree_independent_set(h):
    """Take the vertex of least degree among those left (smallest index on
    ties), delete it and its neighbours, and repeat."""
    alive = set(h)
    chosen = []
    while alive:
        v = min(alive, key=lambda x: (sum(1 for w in h[x] if w in alive), x))
        chosen.append(v)
        alive -= {v, *h[v]}
    return chosen


def short_cycle_proximity(g, s, t):
    """Z_{s,t}: the vertices within s of a vertex on a cycle of length <= t."""
    on_cycle = set()
    for u, v in list(g.edges()):
        g.remove_edge(u, v)
        if v in nx.single_source_shortest_path_length(g, u, cutoff=t - 1):
            on_cycle |= {u, v}
        g.add_edge(u, v)
    if not on_cycle:
        return 0
    return len(nx.multi_source_dijkstra_path_length(g, on_cycle, cutoff=s))


def delta_concentration(cfg, g):
    values = {f"delta_{s}": max_degree(g, s)[0] for s in range(1, cfg.r + 1)}
    values["d_star"] = theory.d_star(cfg.n, cfg.r)
    values["ratio"] = values[f"delta_{cfg.r}"] / values["d_star"]
    return values, {f"delta_{s}": True for s in range(1, cfg.r + 1)}


def chi2_equality(cfg, g):
    delta1, top = max_degree(g, 1)
    colors, ok = two_phase_or_greedy(g, 2)
    palette = max(colors, default=-1) + 1
    ball = nx.single_source_shortest_path_length(g, top, cutoff=2)
    cert = chromatic_number(nx.power(g.subgraph(ball), 2))
    values = {
        "delta_1": delta1,
        "two_phase_ok": ok,
        "palette": palette,
        "proper": is_proper(nx.power(g, 2), colors),
        "equality": ok and palette == delta1 + 1,
        "cert_chi": cert,
        "cert_matches": ok and cert == palette,
    }
    return values, {"palette": ok, "cert_chi": True}


def chi_sandwich(cfg, g):
    r = cfg.r
    deltas = {s: max_degree(g, s)[0] for s in sorted({1, r // 2, r - 1})}
    colors, ok = two_phase_or_greedy(g, r)
    palette = max(colors, default=-1) + 1
    values = {
        **{f"delta_{s}": v for s, v in deltas.items()},
        "two_phase_ok": ok,
        "palette": palette,
        "proper": is_proper(nx.power(g, r), colors),
        "clique_lb": deltas[r // 2] + 1,
        "lb_ok": deltas[r // 2] + 1 <= palette,
        "bound_ok": (palette <= deltas[r - 1] + 1) if ok else None,
    }
    return values, {"palette": ok}


def clique_sandwich(cfg, g):
    r, n = cfg.r, cfg.n
    if r == 1:
        lower = 2 if g.number_of_edges() else min(n, 1)
    else:
        lower = max_degree(g, r // 2)[0] + 1
    upper = max_degree(g, (r + 1) // 2)[0] + 1
    omega = clique_number(nx.power(g, r))
    values = {
        "clique_lower": lower,
        "clique_upper": upper,
        "omega": omega,
        "lower_ok": lower <= omega,
        "upper_ok": omega <= upper,
    }
    return values, {"omega": True}


def dense_chi(cfg, g):
    gr = nx.power(g, cfg.r)
    palette = max(greedy(gr, range(cfg.n)), default=-1) + 1
    alpha = len(min_degree_independent_set(gr))
    theta = cfg.d ** cfg.r / math.log(cfg.d)
    values = {
        "palette": palette,
        "alpha_greedy": alpha,
        "theta": theta,
        "ratio_chi": palette / theta,
        "ratio_alpha": (cfg.n / alpha) / theta,
        "ordering_ok": palette >= cfg.n / alpha,
    }
    return values, {"palette": False, "alpha_greedy": False}


def degree_pmf(cfg, g):
    degs = degrees(g, cfg.r)
    values = {"n": cfg.n}
    for k in range(cfg.degree_cap + 1):
        values[f"count_{k}"] = degs.count(k)
    return values, {}


MEASURES = {
    "delta-concentration": delta_concentration,
    "chi2-equality": chi2_equality,
    "chi-sandwich": chi_sandwich,
    "clique-sandwich": clique_sandwich,
    "dense-chi": dense_chi,
    "degree-pmf": degree_pmf,
}


def oracle_trial(cfg, trial):
    """The (values, exact) of trial ``trial`` of the campaign ``cfg``."""
    g = sample(cfg, trial)
    values, exact = MEASURES[cfg.kind](cfg, g)
    if cfg.measure_z:
        t = max(min(2 * cfg.r, CYCLE_LENGTH_CAP), 3)
        values["z_proximity"] = short_cycle_proximity(g, cfg.r, t)
        exact["z_proximity"] = True
    return values, exact
