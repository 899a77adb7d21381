"""Proper colorings of graph powers.

Greedy on the rows of an explicit power (one loop over the CSR arrays
serves both G^r and any explicit graph), exact chromatic number via DSATUR
branch-and-bound on an explicit graph, the constructive two-phase coloring
that achieves Delta(G^{r-1}) + 1 colors when the high-degree subgraph is a
forest, and the verifier, both on the power one kernel pass builds.

Tie-breaking is smallest-index / smallest-color everywhere, so runs are
reproducible and witnesses stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ForestViolationError, GraphPowerError
from .graph import (Graph, graph_power, induced_subgraph, is_forest,
                    neighborhood_union)
from .metrics import (DEFAULT_NODE_BUDGET, high_degree_set, max_clique_exact,
                      power_max_degree)

# rows shorter than this take the smallest absent color from a Python set,
# longer ones from np.bincount, whose fixed cost is the larger and whose
# cost per entry the smaller.  Greedy of G(2000, 2/n)^2, rows of about 6:
# 3.7 ms, 8.8 with bincount alone; of G(1000, 30/n)^2, rows of about 600:
# 8.4 ms, 26 with sets alone (best of 7, 2-core Xeon, numpy 2.4)
SHORT_ROW = 64


@dataclass
class Coloring:
    """Vertex -> color assignment plus the power radius it was checked against."""

    colors: list
    palette_size: int
    radius: int

    def __post_init__(self):
        if self.colors and min(self.colors) < 0:
            raise ValueError(f"negative color {min(self.colors)}")
        used = max(self.colors) + 1 if self.colors else 0
        if self.palette_size != used:
            raise ValueError(f"palette size {self.palette_size} does not match "
                             f"the {used} colors used")


def _mex(used):
    c = 0
    while c in used:
        c += 1
    return c


def _greedy_fill(gp: Graph, order, colors):
    """Give each vertex of ``order`` in turn the smallest color absent from
    its row of the explicit graph ``gp``; ``colors`` is an int64 array in
    which uncolored vertices hold -1.

    A row shorter than ``SHORT_ROW`` takes :func:`_mex` of its colors as a
    set.  A longer one takes the first zero of the counts of its colors
    shifted by one, so that uncolored neighbours land in the dropped slot 0.
    Both give the same color.
    """
    indptr, indices = gp.indptr.tolist(), gp.indices
    for v in order:
        lo, hi = indptr[v], indptr[v + 1]
        row = colors[indices[lo:hi]]
        if hi - lo < SHORT_ROW:
            colors[v] = _mex(set(row.tolist()))
        else:
            colors[v] = np.bincount(row + 1, minlength=row.size + 2)[1:].argmin()


def greedy_power_coloring(g: Graph, r, order=None) -> Coloring:
    """Greedy coloring of G^r in the given vertex order (default 0..n-1):
    :func:`greedy_coloring_explicit` on the explicit power."""
    return greedy_coloring_explicit(graph_power(g, r), order, r)


def greedy_coloring_explicit(gp: Graph, order=None, radius=1) -> Coloring:
    """Greedy coloring of an explicit graph (e.g. a materialized power) in
    the given vertex order (default 0..n-1).

    Each vertex gets the smallest color absent from its already-colored
    neighbours.  Runs on the CSR arrays and builds no adjacency lists.
    """
    n = gp.n
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all vertices")
    colors = np.full(n, -1, dtype=np.int64)
    _greedy_fill(gp, order, colors)
    return Coloring(colors.tolist(), int(colors.max()) + 1 if n else 0, radius)


def dsatur_greedy(gp: Graph) -> Coloring:
    """DSATUR heuristic coloring of an explicit graph (upper bound)."""
    n = gp.n
    adj = gp.adjacency_lists()
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    degrees = [len(a) for a in adj]
    uncolored = set(range(n))
    while uncolored:
        v = max(uncolored,
                key=lambda u: (len(neighbor_colors[u]), degrees[u], -u))
        c = _mex(neighbor_colors[v])
        colors[v] = c
        uncolored.discard(v)
        for w in adj[v]:
            neighbor_colors[w].add(c)
    return Coloring(colors, max(colors) + 1 if n else 0, 1)


def dsatur_chromatic_exact(gp: Graph, node_budget=DEFAULT_NODE_BUDGET):
    """Exact chromatic number of an explicit graph with a witness coloring.

    DSATUR branch-and-bound seeded by the exact clique lower bound and the
    DSATUR-greedy upper bound.  Intended for small instances (n <= ~80).
    Raises BudgetExceededError with the best bounds attached.
    """
    n = gp.n
    if n == 0:
        return 0, Coloring([], 0, 1)
    ub_col = dsatur_greedy(gp)
    best = ub_col.palette_size
    best_colors = list(ub_col.colors)
    try:
        lb = max_clique_exact(gp, node_budget=min(node_budget, 1_000_000))
    except BudgetExceededError as exc:
        lb = exc.lower or 1
    if lb >= best:
        return best, Coloring(best_colors, best, 1)

    adj = gp.adjacency_lists()
    degrees = [len(a) for a in adj]
    colors = [-1] * n
    neighbor_masks = [0] * n
    nodes = 0

    class _Done(Exception):
        pass

    def enter(num_colored, used):
        """Count a search node; return its frame [v, next color, color
        limit, used, touched], or None when it is a leaf."""
        nonlocal best, best_colors, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError("chromatic node budget exceeded",
                                      lower=lb, upper=best)
        if used >= best:
            return None
        if num_colored == n:
            best = used
            best_colors = colors.copy()
            if best <= lb:
                raise _Done
            return None
        v = -1
        v_key = None
        for u in range(n):
            if colors[u] < 0:
                key = (neighbor_masks[u].bit_count(), degrees[u], -u)
                if v_key is None or key > v_key:
                    v_key = key
                    v = u
        return [v, 0, min(used + 1, best - 1), used, None]

    # depth-first over an explicit stack, one frame per colored vertex, so
    # the search depth (up to n) does not depend on Python's recursion limit
    try:
        stack = [enter(0, 0)]
        while stack:
            frame = stack[-1]
            v, c, limit, used, touched = frame
            if touched is not None:  # undo the color tried last
                colors[v] = -1
                bit = ~(1 << (c - 1))
                for w in touched:
                    neighbor_masks[w] &= bit
            mask = neighbor_masks[v]
            while c < limit and (mask >> c) & 1:
                c += 1
            if c >= limit:
                stack.pop()
                continue
            colors[v] = c
            bit = 1 << c
            touched = [w for w in adj[v]
                       if colors[w] < 0 and not (neighbor_masks[w] & bit)]
            for w in touched:
                neighbor_masks[w] |= bit
            frame[1] = c + 1
            frame[4] = touched
            child = enter(len(stack), max(used, c + 1))
            if child is not None:
                stack.append(child)
    except _Done:
        pass
    return best, Coloring(best_colors, best, 1)


def two_phase_power_coloring(g: Graph, r, degrees, gp: Graph) -> Coloring:
    """Constructive coloring of G^r with at most Delta(G^{r-1}) + 1 colors,
    from the degree table and G^r = ``gp`` of one ``power_table`` pass.

    Phase 1 colors the high-degree set S over the forest induced by
    S and its radius-r neighborhood, trees rooted at their smallest vertex
    and traversed in BFS order.  Phase 2 colors the remaining vertices in
    increasing index order.  Both run the greedy on the rows of ``gp``.
    Raises ForestViolationError (with a witness cycle in original indices)
    when the forest condition fails; callers may fall back to greedy.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    n = g.n
    delta_prev = power_max_degree(degrees, r - 1).delta
    s_set = high_degree_set(degrees, r, delta_prev)

    phase1 = []
    if s_set:
        # closure is sorted, so h's vertex x is closure[x]
        closure = neighborhood_union(g, s_set, r)
        h, _ = induced_subgraph(g, closure)
        forest, cycle = is_forest(h)
        if not forest:
            raise ForestViolationError([closure[x] for x in cycle])
        # phase 1 order: the S-vertices in BFS visit order over each tree;
        # the first unreached vertex in index order is its tree's smallest
        adj = h.adjacency_lists()
        seen = [False] * h.n
        walk, i = [], 0
        for root in range(h.n):
            if seen[root]:
                continue
            seen[root] = True
            walk.append(root)
            while i < len(walk):
                for y in adj[walk[i]]:
                    if not seen[y]:
                        seen[y] = True
                        walk.append(y)
                i += 1
        in_s = set(s_set)
        phase1 = [closure[x] for x in walk if closure[x] in in_s]

    colors = np.full(n, -1, dtype=np.int64)
    _greedy_fill(gp, phase1, colors)
    # phase 2: all remaining vertices, increasing index order
    _greedy_fill(gp, np.flatnonzero(colors < 0).tolist(), colors)

    palette = int(colors.max()) + 1 if n else 0
    if palette > delta_prev + 1:
        raise GraphPowerError(
            f"{palette} colors exceed the bound {delta_prev + 1} despite the "
            "forest condition")
    return Coloring(colors.tolist(), palette, r)


def verify_proper_power_coloring(gp: Graph, coloring: Coloring):
    """(True, None) iff no two vertices adjacent in the explicit power
    ``gp`` = G^r share a color; otherwise (False, first violating pair).

    Compares ``color[rows]`` with ``color[indices]`` on the CSR arrays.  A
    clash shows first in the row of its smaller end, so the first in row
    order is the lexicographically first violating pair (v, w), w > v.
    """
    color = np.asarray(coloring.colors, dtype=np.int64)
    if color.size != gp.n:
        raise ValueError("coloring size mismatch")
    clash = np.flatnonzero(np.repeat(color, gp.degrees()) == color[gp.indices])
    if not clash.size:
        return True, None
    v = int(np.searchsorted(gp.indptr, clash[0], side="right")) - 1
    return False, (v, int(gp.indices[clash[0]]))


# -- serialization ---------------------------------------------------------


def write_coloring(coloring: Coloring, path):
    """Text format: ``s <palette_size> <r>`` then ``c <vertex> <color>`` lines."""
    with open(path, "w") as fh:
        fh.write(f"s {coloring.palette_size} {coloring.radius}\n")
        for v, c in enumerate(coloring.colors):
            fh.write(f"c {v} {c}\n")


def read_coloring(path) -> Coloring:
    """Inverse of :func:`write_coloring`; ValueError on a malformed file."""
    palette = radius = None
    assignments = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0] not in ("s", "c"):
                continue
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: too few fields in {line.strip()!r}")
            if parts[0] == "s":
                palette, radius = int(parts[1]), int(parts[2])
            elif parts[0] == "c":
                assignments[int(parts[1])] = int(parts[2])
    if palette is None:
        raise ValueError("missing solution header line")
    missing = next((v for v in range(len(assignments)) if v not in assignments),
                   None)
    if missing is not None:
        raise ValueError(f"vertex ids not contiguous: no color for vertex {missing}")
    colors = [assignments[v] for v in range(len(assignments))]
    return Coloring(colors, palette, radius)
