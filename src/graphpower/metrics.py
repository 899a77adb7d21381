"""Degree, clique, independence, co-degree and cycle-proximity statistics
of G and its powers, computed implicitly whenever possible: ball expansions
from every root, run on the one block driver of :mod:`graphpower.graph`,
count the degrees (the (A+I)^r kernel) and find the co-degrees and the
short cycles.  Max degrees, high-degree sets and the clique lower bound
are reads of the degree table of one :func:`graph.power_table` pass.

All operations are pure functions of an immutable :class:`~graphpower.graph.Graph`.
Ties in argmax reductions always go to the smallest vertex index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .graph import (Graph, _gather_rows, _power_blocks, _root_blocks, ball,
                    first_copies, neighborhood_union)

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_CYCLE_LENGTH_CAP = 16


@dataclass
class PowerDegreeSummary:
    """Max degree of G^r with its argmax vertex."""

    r: int
    delta: int
    argmax: int


def power_degrees(g: Graph, r) -> list:
    """Degrees in G^r for every vertex: the last ball sizes of the power
    kernel minus one, block by block; the power is never held whole."""
    degs = np.zeros(g.n, dtype=np.int64)
    for start, stop, (_, sizes) in _power_blocks(g, r):
        if sizes:
            degs[start:stop] = sizes[-1] - 1
    return degs.tolist()


def power_max_degree(degrees, r) -> PowerDegreeSummary:
    """Max degree of G^r with its argmax, read from a degree table."""
    row = degrees[min(r, len(degrees) - 1)]
    if not row.size:
        return PowerDegreeSummary(r, 0, -1)
    argmax = int(row.argmax())  # smallest index wins ties
    return PowerDegreeSummary(r, int(row[argmax]), argmax)


def high_degree_set(degrees, r, threshold) -> list:
    """Vertices whose G^r-degree in a degree table passes the threshold."""
    return np.flatnonzero(degrees[min(r, len(degrees) - 1)] > threshold).tolist()


def clique_lower_bound(degrees, r) -> int:
    """Largest radius-floor(r/2) ball size (a clique in G^r), read from the
    degree table of G^r.

    For r = 1 the ball argument degenerates; any edge gives a 2-clique.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return 2 if degrees[-1].any() else min(degrees.shape[1], 1)
    return power_max_degree(degrees, r // 2).delta + 1


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

    def enter(size, cand):
        """Count a search node; return its frame [size, candidates, order,
        bounds, next index], or None when it is a leaf."""
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError("clique node budget exceeded", lower=best)
        if cand == 0:
            if size > best:
                best = size
            return None
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
        return [size, cand, order, bounds, len(order) - 1]

    if n == 0:
        return 0
    # depth-first over an explicit stack, one frame per clique vertex, so
    # the search depth (up to n) does not depend on Python's recursion limit;
    # a frame branches on its vertices from the last colored to the first
    stack = [enter(0, (1 << n) - 1)]
    while stack:
        frame = stack[-1]
        size, cand, order, bounds, i = frame
        if i < 0 or size + bounds[i] <= best:
            stack.pop()
            continue
        v = order[i]
        frame[1] = cand & ~(1 << v)
        frame[4] = i - 1
        child = enter(size + 1, cand & adjbits[v])
        if child is not None:
            stack.append(child)
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


def _in_sorted(keys, table):
    """Mask of the keys found in the sorted, nonempty array ``table``."""
    at = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return table[at] == keys


def vertices_on_short_cycles(g: Graph, t) -> set:
    """All vertices lying on some cycle of length <= t.

    A BFS from every root at once, to depth h = t // 2, finds the shortest
    cycle through each root (Itai & Rodeh, SIAM J. Comput. 7(4), 1978).
    Each reached vertex carries a branch label, the depth-1 vertex it
    descends from (the smallest one when several parents reach it, which
    is still a BFS tree).  Root v lies on a cycle of length <= t exactly
    when a new vertex at depth k + 1 <= h is reached from two labels (a
    cycle of length 2k + 2), or an edge joins two depth-k vertices of
    different labels with 2k + 1 <= t: their tree paths share only v, and
    along any cycle of length L <= t through v the label changes on an
    edge with both ends within L // 2 of v.  Runs on the block driver of
    :mod:`graphpower.graph`; only the last two layers are held, since a
    neighbour of depth k lies at depth k - 1, k or k + 1.
    """
    if t < 3:
        return set()
    n = g.n
    h = t // 2
    hit = np.zeros(n, dtype=bool)

    def grow(_, roots, expand):
        found = np.zeros(roots.size, dtype=bool)
        prev, (front, _) = roots, expand(roots)
        label = front % n
        for k in range(1, (t + 1) // 2):
            if not front.size:
                break
            reached, cnt = expand(front)
            parent_label = np.repeat(label, cnt)
            at = np.minimum(np.searchsorted(front, reached), front.size - 1)
            level = front[at] == reached
            # an edge inside depth k across two branches: length 2k + 1
            found[reached[level & (label[at] != parent_label)] // n] = True
            if k == h:
                break
            new = ~level & ~_in_sorted(reached, prev)
            # the distinct (vertex, label) pairs of depth k + 1, sorted
            pair = reached[new] * np.int64(n) + parent_label[new]
            pair.sort()
            pair = pair[first_copies(pair)]
            key = pair // n
            first = first_copies(key)
            # a new vertex reached from two branches: length 2k + 2
            found[key[~first] // n] = True
            prev, front = front, key[first].astype(roots.dtype)
            label = pair[first] - key[first] * n
        return found

    for start, stop, found in _root_blocks(g, grow):
        hit[start:stop] = found
    return set(np.flatnonzero(hit).tolist())


def short_cycle_proximity(g: Graph, s, t) -> int:
    """Z_{s,t}: number of vertices within distance s of a cycle of length <= t.

    The s-neighbourhood of :func:`vertices_on_short_cycles`, grown as a
    vertex mask.
    """
    if t < 3:
        raise ValueError("t must be >= 3")
    if t > DEFAULT_CYCLE_LENGTH_CAP:
        raise BudgetExceededError(
            f"cycle length {t} exceeds cap {DEFAULT_CYCLE_LENGTH_CAP}")
    return len(neighborhood_union(g, vertices_on_short_cycles(g, t), s))


# -- co-degree and neighborhood density ------------------------------------


def codegree_max(g: Graph, r):
    """(layer_codegree, power_codegree) co-degree sparsity statistics.

    layer_codegree: max over v, 1 <= i <= r and w != v of the number of
    G-edges from w into the exact-distance layer N_i(v) (w itself excluded
    from the target set).  power_codegree: same with the punctured ball
    N(v) = ball(v, r) \\ {v} as target and w ranging over N(v).  Runs on the
    block driver of :mod:`graphpower.graph`: each layer is expanded once,
    and a sort of the keys (root, w) counts the edges from each w into it;
    one more sort of all of a root's keys counts them into the punctured
    ball.
    """
    n = g.n

    def runs(keys):
        """The distinct sorted keys and how often each occurs."""
        keys.sort()
        first = np.flatnonzero(first_copies(keys))
        return keys[first], np.diff(first, append=keys.size)

    def grow(start, roots, expand):
        layer_best = power_best = 0
        prev, (front, _) = roots, expand(roots)
        layers, into = [], []
        for _ in range(r):
            if not front.size:
                break
            reached = expand(front)[0]
            keys, count = runs(reached)
            into.append(reached)
            row = keys // n
            # w = v is left out
            layer_best = max(layer_best, count[keys - row * n != row + start]
                             .max(initial=0))
            layers.append(front)
            new = ~_in_sorted(keys, front) & ~_in_sorted(keys, prev)
            prev, front = front, keys[new]
        if into:
            keys, count = runs(np.concatenate(into))
            ball = np.sort(np.concatenate(layers))
            power_best = count[_in_sorted(keys, ball)].max(initial=0)
        return int(layer_best), int(power_best)

    layer = power = 0
    for _, _, (layer_best, power_best) in _root_blocks(g, grow):
        layer, power = max(layer, layer_best), max(power, power_best)
    return layer, power


def power_neighborhood_edge_count(g: Graph, v, r) -> int:
    """Number of G^r-edges spanned by ball(v, r) \\ {v} (implicit)."""
    nv = set(ball(g, v, r))
    nv.discard(v)
    # each w in N(v) counts the members of N(v) other than w within r of it
    return sum(len(nv.intersection(ball(g, w, r))) - 1 for w in nv) // 2
