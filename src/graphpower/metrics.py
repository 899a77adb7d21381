"""Degree, clique, independence, co-degree and cycle-proximity statistics
of G and its powers, computed implicitly (the (A+I)^r block kernel of
:mod:`graphpower.graph` for the degrees, truncated BFS for the rest)
whenever possible.

All operations are pure functions of an immutable :class:`~graphpower.graph.Graph`.
Ties in argmax reductions always go to the smallest vertex index.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .graph import (Graph, _gather_rows, _power_blocks, ball, first_copies,
                    truncated_bfs)

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_CYCLE_LENGTH_CAP = 16


@dataclass
class PowerDegreeSummary:
    """Max degree of G^r with its argmax vertex."""

    r: int
    delta: int
    argmax: int


def power_degrees(g: Graph, r) -> list:
    """Degrees in G^r for every vertex: the row nnz of (A+I)^r minus one,
    counted block by block from the power kernel; the power is never held
    whole."""
    if r == 1:
        return g.degrees().tolist()
    degs = np.empty(g.n, dtype=np.int64)
    for start, stop, keys in _power_blocks(g, r):
        degs[start:stop] = np.bincount(keys // g.n, minlength=stop - start) - 1
    return degs.tolist()


def power_max_degree(g: Graph, r) -> PowerDegreeSummary:
    """Exact max degree of G^r without materializing the power."""
    degs = power_degrees(g, r)
    if not degs:
        return PowerDegreeSummary(r, 0, -1)
    delta = max(degs)
    argmax = degs.index(delta)  # smallest index wins ties
    return PowerDegreeSummary(r, delta, argmax)


def high_degree_set(g: Graph, r, threshold) -> list:
    """Vertices whose G^r-degree strictly exceeds the threshold."""
    degs = power_degrees(g, r)
    return [v for v, d in enumerate(degs) if d > threshold]


def clique_lower_bound(g: Graph, r) -> int:
    """Largest radius-floor(r/2) ball size: a clique in G^r.

    For r = 1 the ball argument degenerates; any edge gives a 2-clique.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return 2 if g.m > 0 else (1 if g.n > 0 else 0)
    return power_max_degree(g, r // 2).delta + 1


# -- exact clique / independence ------------------------------------------


def _adjacency_bitsets(g: Graph):
    bits = [0] * g.n
    for v, row in enumerate(g.adjacency_lists()):
        b = 0
        for w in row:
            b |= 1 << w
        bits[v] = b
    return bits


def _max_clique_bitset(n, adjbits, node_budget):
    """Branch and bound with a greedy-coloring bound (Tomita-style)."""
    best = 0
    nodes = 0

    def expand(size, cand):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError("clique node budget exceeded", lower=best)
        if cand == 0:
            if size > best:
                best = size
            return
        order = []
        bounds = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            q = uncolored
            while q:
                v = (q & -q).bit_length() - 1
                vbit = 1 << v
                q &= ~(adjbits[v] | vbit)
                uncolored &= ~vbit
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            expand(size + 1, cand & adjbits[v])
            cand &= ~(1 << v)

    if n == 0:
        return 0
    expand(0, (1 << n) - 1)
    return best


def max_clique_exact(g: Graph, node_budget=DEFAULT_NODE_BUDGET) -> int:
    """Exact clique number; raises BudgetExceededError past the node budget."""
    return _max_clique_bitset(g.n, _adjacency_bitsets(g), node_budget)


def independence_number(g: Graph, node_budget=DEFAULT_NODE_BUDGET) -> int:
    """Exact independence number: the clique number of the implicit
    complement."""
    n = g.n
    full = (1 << n) - 1
    comp = [full ^ b ^ (1 << v) for v, b in enumerate(_adjacency_bitsets(g))]
    return _max_clique_bitset(n, comp, node_budget)


def greedy_independent_set(g: Graph) -> list:
    """Min-degree greedy independent set, returned sorted.

    Repeatedly takes the alive vertex of least alive-degree (smallest index
    on ties) and deletes it and its neighbours.  A lazy heap holds one
    current (degree, vertex) entry per alive vertex: each pick pushes one
    entry per distinct vertex whose alive-degree it lowered, and stale
    entries are skipped on pop.  Runs on the CSR arrays and builds no
    adjacency lists: a pick gathers the rows of the neighbours it deletes in
    one go, subtracts one per alive vertex they reach, and finds the
    distinct ones by a sort.
    """
    indptr, indices = g.indptr.tolist(), g.indices
    width = g.degrees()
    deg = width.copy()
    alive = np.ones(g.n, dtype=bool)
    heap = list(zip(deg.tolist(), range(g.n)))
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        chosen.append(v)
        alive[v] = False
        row = indices[indptr[v]:indptr[v + 1]]
        kill = row[alive[row]]
        alive[kill] = False
        reached = _gather_rows(indices, g.indptr[kill], width[kill])
        reached = reached[alive[reached]]
        np.subtract.at(deg, reached, 1)
        reached.sort()
        touched = reached[first_copies(reached)]
        for x, dx in zip(touched.tolist(), deg[touched].tolist()):
            heapq.heappush(heap, (dx, x))
    return sorted(chosen)


# -- cycle proximity -------------------------------------------------------


def vertices_on_short_cycles(g: Graph, t) -> set:
    """All vertices lying on some cycle of length <= t (exact enumeration).

    DFS over simple paths anchored at their minimum vertex; intended for
    small t on sparse graphs.  Raises BudgetExceededError past 5e7 paths.
    """
    if t < 3:
        return set()
    adj = g.adjacency_lists()
    on_cycle = set()
    work = 0
    for a in range(g.n):
        # simple paths a -> ... with interior vertices > a, closing back to a
        stack = [(a, [a], {a})]
        while stack:
            u, path, used = stack.pop()
            work += 1
            if work > 50_000_000:
                raise BudgetExceededError("cycle enumeration work cap exceeded")
            for w in adj[u]:
                if w == a and len(path) >= 3:
                    on_cycle.update(path)
                elif w > a and w not in used and len(path) < t:
                    stack.append((w, path + [w], used | {w}))
    return on_cycle


def short_cycle_proximity(g: Graph, s, t) -> int:
    """Z_{s,t}: number of vertices within distance s of a cycle of length <= t."""
    if t < 3:
        raise ValueError("t must be >= 3")
    if t > DEFAULT_CYCLE_LENGTH_CAP:
        raise BudgetExceededError(
            f"cycle length {t} exceeds cap {DEFAULT_CYCLE_LENGTH_CAP}")
    core = vertices_on_short_cycles(g, t)
    layers = next(truncated_bfs(g, s, [core]))
    return len(core) + sum(map(len, layers))


# -- co-degree and neighborhood density ------------------------------------


def codegree_max(g: Graph, r):
    """(layer_codegree, power_codegree) co-degree sparsity statistics.

    layer_codegree: max over v, 1 <= i <= r and w != v of the number of
    G-edges from w into the exact-distance layer N_i(v) (w itself excluded
    from the target set).  power_codegree: same with the punctured ball
    N(v) = ball(v, r) \\ {v} as target and w ranging over N(v).  Both are
    found by counting the neighbours of each layer's vertices.
    """
    adj = g.adjacency_lists()
    layer_best = 0
    power_best = 0
    for v, layers in enumerate(truncated_bfs(g, r, zip(range(g.n)))):
        into_ball = Counter()
        for layer in layers:
            into_layer = Counter(w for x in layer for w in adj[x])
            into_layer.pop(v, None)
            layer_best = max(layer_best, max(into_layer.values(), default=0))
            into_ball.update(into_layer)
        power_best = max(power_best, max(
            (into_ball[w] for layer in layers for w in layer), default=0))
    return layer_best, power_best


def power_neighborhood_edge_count(g: Graph, v, r) -> int:
    """Number of G^r-edges spanned by ball(v, r) \\ {v} (implicit)."""
    nv = set(ball(g, v, r))
    nv.discard(v)
    total = sum(w in nv for layers in truncated_bfs(g, r, zip(nv))
                for layer in layers for w in layer)
    return total // 2
