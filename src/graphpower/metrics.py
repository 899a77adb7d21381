"""Degree, clique, independence, co-degree and cycle-proximity statistics
of G and its powers, computed implicitly (blocked numpy ball expansion for
the degrees, truncated BFS for the rest) whenever possible.

All operations are pure functions of an immutable :class:`~graphpower.graph.Graph`.
Ties in argmax reductions always go to the smallest vertex index.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError
from .graph import Graph, ball, first_copies, truncated_bfs

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_CYCLE_LENGTH_CAP = 16
# keys one block expansion of power_degrees may hold (one row may pass it).
# A 2**16-key expansion's arrays (512 KB each) stay in a 2 MB L2 cache: on
# G(n, 2/n) it ran as fast as 2**20 and left peak RSS flat, where 2**20
# added up to 30 MB
POWER_KEY_BUDGET = 1 << 16


@dataclass
class PowerDegreeSummary:
    """Max degree of G^r with its argmax vertex and full degree histogram."""

    r: int
    delta: int
    argmax: int
    histogram: list = field(repr=False)

    @property
    def n(self):
        return int(sum(self.histogram))


def power_degree(g: Graph, v, r) -> int:
    """Degree of v in G^r, i.e. |ball(v, r)| - 1, via truncated BFS."""
    return len(ball(g, v, r)) - 1


def _ball_sizes(g: Graph, r, start, stop):
    """G^r degrees of rows start..stop-1 and the block's largest expansion,
    or (None, size) when an expansion of a block of more than one row would
    pass ``POWER_KEY_BUDGET`` keys.

    A ball is held as sorted keys ``local_row * n + v``.  Each hop joins
    every neighbour of the newest layer; ball keys are tagged 0 and reached
    keys 1 in the low bit, so after one sort the first copy of each key
    tells whether it is new.
    """
    n = g.n
    indptr, indices = g.indptr, g.indices
    rows = stop - start
    ball = np.arange(rows, dtype=np.int64) * (n + 1) + start
    frontier = ball
    peak = 0
    for _ in range(r):
        v = frontier % n
        lo = indptr[v]
        cnt = indptr[v + 1] - lo
        total = int(cnt.sum())
        if total > POWER_KEY_BUDGET and rows > 1:
            return None, total
        peak = max(peak, total)
        if total == 0:
            break
        # entry j, in the run of frontier entry i that starts at c_i, reads
        # indices[lo_i + j - c_i]
        lo -= np.cumsum(cnt) - cnt
        reached = indices[np.arange(total) + np.repeat(lo, cnt)]
        reached += np.repeat(frontier - v, cnt)
        tagged = np.concatenate([ball, reached])
        tagged <<= 1
        tagged[ball.size:] |= 1
        tagged.sort()
        keys = tagged >> 1
        first = first_copies(keys)
        ball = keys[first]
        first &= (tagged & 1).astype(bool)
        frontier = keys[first]
    return np.bincount(ball // n, minlength=rows) - 1, peak


def power_degrees(g: Graph, r) -> list:
    """Degrees in G^r for every vertex: the row nnz of (A+I)^r minus one.

    Rows go through :func:`_ball_sizes` in blocks, in the style of
    Gustavson's row-wise sparse product (ACM TOMS 4(3), 1978); the power is
    never held whole.  A block at most doubles the last one and is capped
    by the budget over the last block's largest expansion per row; a block
    whose expansion would pass the budget is halved and redone, down to one
    row.
    """
    n = g.n
    if r == 1:
        return g.degrees().tolist()
    degs = np.empty(n, dtype=np.int64)
    start, rows = 0, 1
    while start < n:
        stop = min(n, start + rows)
        sizes, peak = _ball_sizes(g, r, start, stop)
        if sizes is None:
            rows = (stop - start) // 2
            continue
        degs[start:stop] = sizes
        done = stop - start
        rows = min(2 * done, max(1, POWER_KEY_BUDGET * done // max(peak, 1)))
        start = stop
    return degs.tolist()


def power_max_degree(g: Graph, r) -> PowerDegreeSummary:
    """Exact max degree of G^r without materializing the power."""
    degs = power_degrees(g, r)
    if not degs:
        return PowerDegreeSummary(r, 0, -1, [])
    delta = max(degs)
    argmax = degs.index(delta)  # smallest index wins ties
    hist = np.bincount(np.asarray(degs, dtype=np.int64)).tolist()
    return PowerDegreeSummary(r, delta, argmax, hist)


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


def independence_number(g: Graph, mode="exact", node_budget=DEFAULT_NODE_BUDGET) -> int:
    """Independence number, exact (clique on the implicit complement) or a
    min-degree greedy lower bound (always valid, any size)."""
    n = g.n
    if mode == "greedy":
        return len(greedy_independent_set(g))
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    full = (1 << n) - 1
    comp = [full ^ b ^ (1 << v) for v, b in enumerate(_adjacency_bitsets(g))]
    return _max_clique_bitset(n, comp, node_budget)


def greedy_independent_set(g: Graph) -> list:
    """Min-degree greedy independent set, returned sorted.

    Repeatedly takes the alive vertex of least alive-degree (smallest index
    on ties) and deletes it and its neighbours.  A lazy heap holds one
    current (degree, vertex) entry per alive vertex: each pick pushes one
    entry per distinct vertex whose alive-degree it lowered, and stale
    entries are skipped on pop.
    """
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


# -- cycle proximity -------------------------------------------------------


def vertices_on_short_cycles(g: Graph, t, work_cap=50_000_000) -> set:
    """All vertices lying on some cycle of length <= t (exact enumeration).

    DFS over simple paths anchored at their minimum vertex; intended for
    small t on sparse graphs.
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
            if work > work_cap:
                raise BudgetExceededError("cycle enumeration work cap exceeded")
            for w in adj[u]:
                if w == a and len(path) >= 3:
                    on_cycle.update(path)
                elif w > a and w not in used and len(path) < t:
                    stack.append((w, path + [w], used | {w}))
    return on_cycle


def short_cycle_proximity(g: Graph, s, t, max_t=DEFAULT_CYCLE_LENGTH_CAP) -> int:
    """Z_{s,t}: number of vertices within distance s of a cycle of length <= t."""
    if t < 3:
        raise ValueError("t must be >= 3")
    if t > max_t:
        raise BudgetExceededError(f"cycle length {t} exceeds cap {max_t}")
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
