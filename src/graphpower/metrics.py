"""Degree, clique, independence, co-degree and cycle-proximity statistics
of G and its powers, computed implicitly whenever possible: ball expansions
from every root, run on the one block driver of :mod:`graphpower.graph`,
count the degrees (the (A+I)^r kernel) and find the co-degrees and, on the
graph left by at most t // 2 rounds of leaf removal, the short cycles.
Those two tell the layer of each key a hop reaches by one sort with the
keys of the last layers tagged apart, as the power kernel does, and never
by a binary search.  A max degree with its argmax, high-degree sets and the
clique lower bound are reads of the degree table of one
:func:`graph.power_table` pass.  The maxima alone, which a
delta-concentration trial records, come from non-backtracking walk bounds
(:func:`power_max_degrees`), checked exactly only at the vertices whose
bound can pass them.

All operations are pure functions of an immutable :class:`~graphpower.graph.Graph`.
Ties in argmax reductions always go to the smallest vertex index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .graph import (Graph, _bit_ints, _dense, _gather_rows, _power_kernel,
                    _root_blocks, ball, first_copies, induced_subgraph,
                    neighborhood_union, power_table)

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_CYCLE_LENGTH_CAP = 16


@dataclass
class PowerDegreeSummary:
    """Max degree of G^r with its argmax vertex."""

    delta: int
    argmax: int


def power_degrees(g: Graph, r) -> list:
    """Degrees in G^r for every vertex, all 0 at r < 1: the last row of the
    degree table of one :func:`graph.power_table` pass; the power is never
    held whole."""
    return power_table(g, r, None)[0][-1].tolist() if r >= 1 else [0] * g.n


def power_max_degree(degrees, r) -> PowerDegreeSummary:
    """Max degree of G^r with its argmax, read from a degree table."""
    row = degrees[min(r, len(degrees) - 1)]
    if not row.size:
        return PowerDegreeSummary(0, -1)
    argmax = int(row.argmax())  # smallest index wins ties
    return PowerDegreeSummary(int(row[argmax]), argmax)


def _walk_bounds(g: Graph, r) -> list:
    """Upper bounds on the G^k degrees of every vertex, as rows for
    k = 1..K, K <= r; a radius past K reads row K.

    Row k is min(n - 1, S_1 + ... + S_k), S_j the number of non-backtracking
    walks of length j from each vertex: every vertex at distance j <= k ends
    a shortest path, a shortest path never backtracks, and distinct ends
    give distinct walks.  S_1 = deg, S_2 = A deg - deg and S_k = A S_{k-1} -
    (deg - 1) S_{k-2}: of the walks of length k - 1 from the neighbours of
    v, those that step straight back to v are the walks of length k - 2
    from v, each counted once for every neighbour it does not leave by
    (all deg of them for the empty walk, at k = 2).  Each product A x is
    one gather through ``indices`` and one ``uint64`` running sum,
    differenced at ``indptr``: the sum wraps modulo 2**64, so a difference
    is exact while its row's sum fits.  The rows stop once no bound can
    grow, every vertex with walks left being at n - 1, and before a product
    deg * S could pass 2**62, so that no row's sum wraps: that row and the
    ones past it are n - 1.
    """
    n = g.n
    deg = g.degrees()
    top = n - 1
    widest = int(deg.max(initial=0))

    def times_a(x):
        sums = np.zeros(g.indices.size + 1, dtype=np.uint64)
        np.cumsum(x[g.indices].view(np.uint64), out=sums[1:])
        return np.diff(sums[g.indptr]).view(np.int64)

    bounds = [deg]
    bound, walks, back, weight = deg, deg, 1, deg
    for _ in range(2, r + 1):
        if not walks[bound < top].any():
            break
        # weight * back passed this check a row earlier
        if widest * int(walks.max()) >= 1 << 62:
            bounds.append(np.full(n, top))
            break
        walks, back = times_a(walks) - weight * back, walks
        weight = deg - 1
        bound = np.minimum(bound + walks, top)
        bounds.append(bound)
    return bounds


def power_max_degrees(g: Graph, r) -> list:
    """[Delta(G^1), ..., Delta(G^r)], all 0 when g has no edge.

    Read from the walk bounds of :func:`_walk_bounds`, which are exact on a
    vertex whose ball is a tree, as almost every ball of G(n, d/n) is.
    Radius 1 knows Delta(G); radius k knows the larger of what radius
    k - 1 knows and the G^k degree of the vertex with the largest bound,
    counted on its :func:`graph.ball`, each a G^k degree some vertex
    reaches.  A vertex whose bound passes what its radius knows is a
    candidate.  One scan of :func:`graph._power_kernel` from the candidates
    alone keeps each block's largest ball at every radius (past its t, its
    last), with no degree table; no other vertex can pass what its radius
    knows, so Delta(G^k) is the larger of the two.  A radius past the last
    bound row has that row's bounds and takes what that row knows.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not g.m:
        return [0] * r
    bounds = _walk_bounds(g, r)
    known = [0, int(bounds[0].max())]  # by radius
    hot = np.zeros(g.n, dtype=bool)
    for k, bound in enumerate(bounds[1:], 2):
        seed = int(bound.argmax())
        known.append(max(known[-1], len(ball(g, seed, k)) - 1))
        hot |= bound > known[-1]
    found = np.array(known + known[-1:] * (r + 1 - len(known)))
    for *_, (_, sizes) in _power_kernel(g)(g, r, np.flatnonzero(hot)):
        for k, size in enumerate(sizes, 1):  # radius k and the ones past it
            np.maximum(found[k:], size.max() - 1, out=found[k:])
    return found[1:].tolist()


def high_degree_set(degrees, r, threshold) -> list:
    """Vertices whose G^r-degree in a degree table passes the threshold."""
    return np.flatnonzero(degrees[min(r, len(degrees) - 1)] > threshold).tolist()


def clique_lower_bound(degrees, r) -> int:
    """Largest radius-floor(r/2) ball size (a clique in G^r), read from the
    degree table of G^r; 0 when there are no vertices.

    For r = 1 the ball argument degenerates; any edge gives a 2-clique.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = degrees.shape[1]
    if r == 1:
        return 2 if degrees[-1].any() else min(n, 1)
    return min(n, power_max_degree(degrees, r // 2).delta + 1)


# -- exact clique / independence ------------------------------------------


def _adjacency_bitsets(g: Graph):
    """The rows of A as Python ints, bit w of row v set when v ~ w: the
    cached bit rows of A + I (:meth:`Graph.bit_rows`) read by
    :func:`graph._bit_ints`, each less its own vertex's bit."""
    return [row ^ (1 << v) for v, row in enumerate(_bit_ints(g.bit_rows()))]


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

    On a dense graph (:func:`graph._dense`) it runs on the cached packed
    rows of A + I (:meth:`Graph.bit_rows`; a power built on bit rows holds
    them already) instead: each pick is the first argmin of popcount(row &
    alive) over the rows of the alive vertices, their alive-degree plus
    one, and its own row is the closed neighbourhood it deletes.
    """
    if _dense(g):
        rows = g.bit_rows()
        alive = np.packbits(np.arange(rows.shape[1] * 64) < g.n,
                            bitorder="little").view(np.uint64)
        live = np.arange(g.n)
        chosen = []
        while live.size:
            i = int(np.bitwise_count(rows & alive).sum(axis=1).argmin())
            chosen.append(int(live[i]))
            alive &= ~rows[i]
            keep = ~np.unpackbits(rows[i].view(np.uint8),
                                  bitorder="little").view(bool)[live]
            live, rows = live[keep], rows[keep]
        return sorted(chosen)
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
        reached, _ = _gather_rows(indices, g.indptr[kill], width[kill])
        reached = reached[alive[reached]]
        np.subtract.at(deg, reached, 1)
        reached.sort()
        touched = reached[first_copies(reached)]
        for x, dx in zip(touched.tolist(), deg[touched].tolist()):
            heapq.heappush(heap, (dx, x))
    return sorted(chosen)


# -- cycle proximity -------------------------------------------------------


def _peel_leaves(g: Graph, rounds):
    """The sorted vertices left after at most ``rounds`` rounds that each
    remove every vertex of degree <= 1 in what is left.

    A vertex on a cycle keeps two neighbours on it and is never removed,
    so the graph left has the cycles of g, whatever the number of rounds
    (all of them leave its 2-core: Batagelj & Zaversnik, arXiv cs/0310049).
    Each round gathers the rows of the vertices it removes and takes their
    edges off the degrees by one bincount.
    """
    deg = g.degrees().copy()
    alive = np.ones(g.n, dtype=bool)
    leaves = np.flatnonzero(deg <= 1)
    for _ in range(rounds):
        if not leaves.size:
            break
        alive[leaves] = False
        lo = g.indptr[leaves]
        reached, _ = _gather_rows(g.indices, lo, g.indptr[leaves + 1] - lo)
        deg -= np.bincount(reached, minlength=g.n)
        leaves = np.flatnonzero(alive & (deg <= 1))
    return np.flatnonzero(alive)


def vertices_on_short_cycles(g: Graph, t) -> set:
    """All vertices lying on some cycle of length <= t.

    First removes the vertices of degree <= 1, round by round, for at
    most h = t // 2 rounds (:func:`_peel_leaves`): no cycle loses a
    vertex, and the cap keeps a long path from costing more rounds than
    the search.  Then a BFS from every root of the subgraph induced by
    the vertices left, at once, to depth h, finds the shortest cycle
    through each root (Itai & Rodeh, SIAM J. Comput. 7(4), 1978).  Each
    reached vertex carries a branch label, the depth-1 vertex it descends
    from (the smallest one when several parents reach it, which is still
    a BFS tree).  Root v lies on a cycle of length <= t exactly when a new
    vertex at depth k + 1 <= h is reached from two labels (a cycle of
    length 2k + 2), or an edge joins two depth-k vertices of different
    labels with 2k + 1 <= t: their tree paths share only v, and along any
    cycle of length L <= t through v the label changes on an edge with
    both ends within L // 2 of v.

    Runs on the block driver of :mod:`graphpower.graph`; only the last two
    layers are held, since a neighbour of depth k lies at depth k - 1, k
    or k + 1.  A hop tells which by one sort of int64 keys that pack
    (key, tag, label): tag 0 for the keys of depth k - 1, 1 for those of
    depth k with their labels, 2 for the reached keys with their parents'
    labels.  A key's first copy then tells its depth and its least label,
    and its last copy the greatest label that reached it.  The packed
    keys are below 8 rows n**2 for a block of rows roots; with int32 keys
    (rows n <= 2**30), below 2**62.
    """
    if t < 3:
        return set()
    h = t // 2
    core = _peel_leaves(g, h)
    sub = induced_subgraph(g, core)
    n = sub.n
    bits = max(n - 1, 1).bit_length()  # of a label
    shift = bits + 2  # past a tag and a label
    labels = (1 << bits) - 1
    hit = np.zeros(n, dtype=bool)

    def grow(layer0, expand):
        found = np.zeros(layer0.size, dtype=bool)
        prev, (front, _) = layer0, expand(layer0)
        # the tag and label of each key of depth k, its packed low bits
        low = (front % n).astype(np.int64)
        low |= 1 << bits
        for k in range(1, (t + 1) // 2):
            if not front.size:
                break
            reached, run = expand(front)
            # depth k - 1 is needed only to tell depth k + 1
            packed = np.concatenate([front, reached] if k == h else
                                    [prev, front, reached], dtype=np.int64)
            packed <<= shift
            at = packed.size - reached.size
            packed[at - front.size:at] |= low
            low = low[run]
            low += 1 << bits
            packed[at:] |= low
            packed.sort()
            head = np.flatnonzero(first_copies(packed >> shift))
            first = packed[head]
            tag = first >> bits
            tag &= 3
            new = tag == 2
            size = np.diff(head, append=packed.size)
            # the last copy of a key holds the greatest label reaching it:
            # past the least one, two branches reach a new key (a cycle
            # of length 2k + 2, counted below depth h), and past its own
            # label, an edge inside depth k joins two (length 2k + 1),
            # seen at least at its end of lesser label; a key of depth
            # k - 1 (tag 0) is neither
            size[tag == 0 if k < h else new] = 0
            check = np.flatnonzero(size > 1)
            last = packed[head[check] + size[check] - 1]
            cross = (last ^ first[check]) & labels != 0
            found[(first[check[cross]] >> shift) // n] = True
            if k == h:
                break
            first = first[new]
            prev, front = front, (first >> shift).astype(layer0.dtype)
            low = first & labels
            low |= 1 << bits
        return found

    for start, stop, found in _root_blocks(sub, grow):
        hit[start:stop] = found
    return set(core[hit].tolist())


def short_cycle_proximity(g: Graph, s, t) -> int:
    """Z_{s,t}: number of vertices within distance s of a cycle of length <= t.

    The s-neighbourhood of :func:`vertices_on_short_cycles`, grown as a
    vertex mask.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
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
    N(v) = ball(v, r) \\ {v} as target and w ranging over N(v).

    Runs on the block driver of :mod:`graphpower.graph`, each layer
    expanded once.  A hop takes the keys (root, w) its layer reaches and
    sorts them with the keys of the last two layers (at the last hop, of
    its own layer alone), tagged 0 in the low bit and the reached keys 1,
    as the power kernel does: each key's copies tagged 1 count its edges
    into the layer, and a first copy tagged 1 is a key of the next layer,
    with its edges into this one.  A w of N_i(v), i < r, has all its
    neighbours in the ball, so its count into N(v) is its degree, less one
    at i = 1 for the edge to v; a w of N_r(v) has its edges into
    N_{r-1}(v) \\ {v} and into N_r(v).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = g.n
    deg = g.degrees()

    def grow(layer0, expand):
        own = layer0 % n
        layer_best = power_best = 0
        prev, (front, _) = layer0, expand(layer0)
        back = 0  # each key's edges into the layer before, bar the root
        for i in range(1, r + 1):
            if not front.size:
                break
            reached = expand(front)[0]
            # the last hop needs no next layer, so no layer before it
            members = [front] if i == r else [prev, front]
            tagged = np.concatenate(members + [reached])
            tagged <<= 1
            tagged[tagged.size - reached.size:] |= 1
            tagged.sort()
            head = np.flatnonzero(first_copies(tagged >> 1))
            heads = tagged[head]
            outside = (heads & 1).astype(bool)
            # the copies of each key, less a layer's own
            count = np.diff(head, append=tagged.size) - ~outside
            key = heads >> 1
            row = key // n
            # w = v is left out
            layer_best = max(layer_best, count[key - row * n != own[row]]
                             .max(initial=0))
            if i == r:
                power_best = max(power_best, (back + count[~outside]).max())
                break
            power_best = max(power_best, deg[front % n].max() - (i == 1))
            prev, front, back = front, key[outside], count[outside]
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
