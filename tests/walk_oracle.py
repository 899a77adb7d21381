"""References for the ball-expansion tests: the per-vertex Python walks that
computed short cycles, co-degrees and the coloring verdict before those
became numpy ball expansions, kept as they were.  They share a frozen copy
of the truncated BFS they ran on, so they stay fixed whatever becomes of
the package's own."""

from collections import Counter


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
    (False, (v, w)): the smallest such v, and the first w > v in its BFS
    visit order."""
    for v, layers in enumerate(_truncated_bfs(g, r, zip(range(g.n)))):
        cv = colors[v]
        for layer in layers:
            for w in layer:
                if colors[w] == cv and w > v:
                    return False, (v, w)
    return True, None
