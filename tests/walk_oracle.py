"""References for the ball-expansion and coloring tests: the per-vertex
Python walks that computed short cycles, co-degrees, the coloring verdict,
the greedy and the two-phase coloring of G^r, and the component labels,
before those moved onto numpy ball expansions and explicit powers, kept as
they were.  They share a frozen copy of the truncated BFS they ran on, so
they stay fixed whatever becomes of the package.  The one change: the
verdict's witness is now the lexicographically first violating pair, where
it was the first w in the BFS visit order from v; and the two-phase
coloring counts its G^r degrees by the same BFS, where it called the
package's ``power_max_degree`` and ``high_degree_set``."""

from collections import Counter

from graphpower import ForestViolationError, induced_subgraph, is_forest


def _truncated_bfs(g, r, starts):
    """Exact-distance layers N_1..N_k (k <= r) of a BFS from each start set,
    each layer in visit order."""
    adj = g.adjacency_lists()
    mark = [-1] * g.n
    for i, frontier in enumerate(starts):
        for v in frontier:
            mark[v] = i
        layers = []
        for _ in range(r):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if mark[w] != i:
                        mark[w] = i
                        nxt.append(w)
            if not nxt:
                break
            layers.append(nxt)
            frontier = nxt
        yield layers


def bfs_power_degrees(g, r):
    """The G^r degree of every vertex: the vertices one BFS reaches."""
    return [sum(map(len, layers))
            for layers in _truncated_bfs(g, r, zip(range(g.n)))]


def dfs_vertices_on_short_cycles(g, t) -> set:
    """All vertices lying on some cycle of length <= t: DFS over simple
    paths anchored at their minimum vertex (the work cap is left out)."""
    if t < 3:
        return set()
    adj = g.adjacency_lists()
    on_cycle = set()
    for a in range(g.n):
        # simple paths a -> ... with interior vertices > a, closing back to a
        stack = [(a, [a], {a})]
        while stack:
            u, path, used = stack.pop()
            for w in adj[u]:
                if w == a and len(path) >= 3:
                    on_cycle.update(path)
                elif w > a and w not in used and len(path) < t:
                    stack.append((w, path + [w], used | {w}))
    return on_cycle


def bfs_short_cycle_proximity(g, s, t) -> int:
    """Z_{s,t}: vertices within distance s of a cycle of length <= t (the
    argument checks are left out)."""
    core = dfs_vertices_on_short_cycles(g, t)
    layers = next(_truncated_bfs(g, s, [core]))
    return len(core) + sum(map(len, layers))


def counter_codegree_max(g, r):
    """(layer_codegree, power_codegree), counted per vertex with Counters."""
    adj = g.adjacency_lists()
    layer_best = 0
    power_best = 0
    for v, layers in enumerate(_truncated_bfs(g, r, zip(range(g.n)))):
        into_ball = Counter()
        for layer in layers:
            into_layer = Counter(w for x in layer for w in adj[x])
            into_layer.pop(v, None)
            layer_best = max(layer_best, max(into_layer.values(), default=0))
            into_ball.update(into_layer)
        power_best = max(power_best, max(
            (into_ball[w] for layer in layers for w in layer), default=0))
    return layer_best, power_best


def bfs_verify_proper_power_coloring(g, r, colors):
    """(True, None) iff no two vertices at distance <= r share a color, else
    (False, (v, w)): the smallest such v, and the smallest such w > v."""
    for v, layers in enumerate(_truncated_bfs(g, r, zip(range(g.n)))):
        cv = colors[v]
        clash = [w for layer in layers for w in layer if colors[w] == cv and w > v]
        if clash:
            return False, (v, min(clash))
    return True, None


def connected_components(g):
    """Component label per vertex and the component count."""
    adj = g.adjacency_lists()
    label = [-1] * g.n
    count = 0
    for start in range(g.n):
        if label[start] != -1:
            continue
        stack = [start]
        label[start] = count
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if label[w] == -1:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label, count


def _mex(used):
    c = 0
    while c in used:
        c += 1
    return c


def _greedy_fill(g, r, order, colors):
    """Give each vertex of ``order`` in turn the smallest color absent from
    its distance-<= r neighborhood (uncolored vertices hold -1)."""
    balls = _truncated_bfs(g, r, zip(order))
    for v, layers in zip(order, balls):
        colors[v] = _mex({colors[w] for layer in layers for w in layer})


def bfs_greedy_power_coloring(g, r, order=None):
    """The colors of the greedy coloring of G^r in the given vertex order
    (default 0..n-1), one BFS per vertex (the order check is left out)."""
    colors = [-1] * g.n
    _greedy_fill(g, r, range(g.n) if order is None else order, colors)
    return colors


def bfs_two_phase_power_coloring(g, r):
    """The colors of the two-phase coloring of G^r (r >= 2), or
    ForestViolationError with its witness cycle; the S-vertices are colored
    in BFS order over each tree of the closure, rooted at its smallest
    vertex (the palette check is left out)."""
    n = g.n
    delta_prev = max(bfs_power_degrees(g, r - 1), default=0)
    s_set = [v for v, d in enumerate(bfs_power_degrees(g, r)) if d > delta_prev]
    colors = [-1] * n
    if s_set:
        reached = {w for layer in next(_truncated_bfs(g, r, [s_set]))
                   for w in layer}
        closure = sorted(reached | set(s_set))
        h, _ = induced_subgraph(g, closure)
        forest, cycle = is_forest(h)
        if not forest:
            raise ForestViolationError([closure[x] for x in cycle])
        label, _ = connected_components(h)
        roots = []
        for x, c in enumerate(label):
            if c == len(roots):
                roots.append(x)
        walk = []
        for root, layers in zip(roots, _truncated_bfs(h, h.n, zip(roots))):
            walk.append(root)
            for layer in layers:
                walk.extend(layer)
        in_s = set(s_set)
        _greedy_fill(g, r, [closure[x] for x in walk if closure[x] in in_s], colors)
    _greedy_fill(g, r, [v for v in range(n) if colors[v] < 0], colors)
    return colors
