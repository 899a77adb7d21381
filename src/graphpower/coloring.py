"""Proper colorings of graph powers.

Greedy on the rows of an explicit power (one first-fit pass over one vertex
order serves G^r, any explicit graph and the two-phase coloring: a loop over
the CSR rows, or on a dense graph a scan that fills one color class at a
time on its bit rows read as Python ints), exact chromatic number via DSATUR
branch-and-bound on an explicit graph, the constructive two-phase coloring
that achieves Delta(G^{r-1}) + 1 colors when the high-degree subgraph is a
forest, and the verifier, both on the power one kernel pass builds.

Tie-breaking is smallest-index / smallest-color everywhere, so runs are
reproducible and witnesses stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, ForestViolationError, GraphPowerError
from .graph import (Graph, _bit_ints, _dense, graph_power, induced_subgraph,
                    is_forest, neighborhood_union)
from .metrics import (DEFAULT_NODE_BUDGET, high_degree_set, max_clique_exact,
                      power_max_degree)

# on a sparse graph, CSR rows shorter than this take the smallest absent
# color from a Python set, longer ones from np.bincount, whose fixed cost is
# the larger and whose cost per entry the smaller.  Greedy of G(2000, 2/n)^2,
# rows of about 6: 3.7 ms, 8.8 with bincount alone (best of 7, 2-core Xeon,
# numpy 2.4).  Dense graphs, such as G(1000, 30/n)^2 with rows of about
# 600, take the color-class scan of _greedy_fill instead
SHORT_ROW = 64


@dataclass
class Coloring:
    """Vertex -> color assignment and the power radius; the palette is derived."""

    colors: list
    radius: int = 1
    palette_size: int = field(init=False)

    def __post_init__(self):
        if self.colors and min(self.colors) < 0:
            raise ValueError(f"negative color {min(self.colors)}")
        self.palette_size = max(self.colors) + 1 if self.colors else 0


def _mex(used):
    c = 0
    while c in used:
        c += 1
    return c


def _ranked_bits(rows, order):
    """Packed rows relabelled by rank: bit i of each row is the bit of the
    vertex ``order[i]``, by one unpack, gather and pack.  The unpacking
    appends a zero column, which pads each gathered row to whole bytes, so
    the pack runs on the flat array (about 4x faster than along axis 1)."""
    width = rows.shape[1] * 64
    flat = np.unpackbits(rows.view(np.uint8), axis=1, count=width + 1,
                         bitorder="little")
    pick = np.full(-(-order.size // 8) * 8, width)
    pick[:order.size] = order
    return np.packbits(np.take(flat, pick, axis=1),
                       bitorder="little").reshape(len(rows), -1)


def _greedy_fill(gp: Graph, order):
    """First-fit colors of the explicit graph ``gp`` in ``order``, a
    permutation of its vertices, as an int64 array: each vertex in turn
    takes the smallest color absent from its row among the vertices
    colored before it.

    On a dense graph (:func:`graph._dense`) the colors are filled one class
    at a time.  Class c is the lexicographically first maximal independent
    set, in ``order``, of the vertices that no earlier class took.  That is
    the class first-fit gives c.  By induction on c: let classes 0..c-1
    agree, and let v be a vertex outside them.  First-fit gives v the color
    c exactly when no neighbour colored before v has c.  Those neighbours
    are the members of class c that come before v in ``order``, which are
    the members the scan has added when it reaches v; so the scan adds v
    exactly when first-fit colors it c.

    The closed rows of A + I (:meth:`Graph.bit_rows`) are read as Python
    ints (:func:`graph._bit_ints`).  A class takes the lowest bit of its
    candidates, drops it from the vertices left and clears that vertex's
    row from the candidates: one step per vertex and one per class, with
    no numpy call per vertex.  An increasing ``order`` is the identity and
    scans the rows as they are; any other relabels every row's bits by rank
    once (:func:`_ranked_bits`).

    Otherwise, a CSR row shorter than ``SHORT_ROW`` takes :func:`_mex` of
    its colors as a set, and a longer one the first zero of the counts of
    its colors shifted by one, so that uncolored neighbours land in the
    dropped slot 0.  All three give the same color.
    """
    order = np.asarray(order, dtype=np.int64)
    if _dense(gp):
        rows = gp.bit_rows()
        if np.all(order[1:] > order[:-1]):  # bit v is vertex v
            ints = _bit_ints(rows)
        else:  # bit i is vertex order[i]
            ints = _bit_ints(_ranked_bits(rows[order], order))
        left, taken, ends = (1 << gp.n) - 1, [], []
        while left:
            cand = left
            while cand:
                low = cand & -cand
                i = low.bit_length() - 1
                taken.append(i)
                left ^= low
                cand &= ~ints[i]
            ends.append(len(taken))
        colors = np.empty(gp.n, dtype=np.int64)
        colors[order[np.array(taken, dtype=np.int64)]] = np.repeat(
            np.arange(len(ends)), np.diff([0] + ends))
        return colors
    colors = np.full(gp.n, -1, dtype=np.int64)
    indptr, indices = gp.indptr.tolist(), gp.indices
    for v in order.tolist():
        lo, hi = indptr[v], indptr[v + 1]
        row = colors[indices[lo:hi]]
        if hi - lo < SHORT_ROW:
            colors[v] = _mex(set(row.tolist()))
        else:
            colors[v] = np.bincount(row + 1, minlength=row.size + 2)[1:].argmin()
    return colors


def greedy_power_coloring(g: Graph, r, order=None) -> Coloring:
    """Greedy coloring of G^r in the given vertex order (default 0..n-1):
    :func:`greedy_coloring_explicit` on the explicit power."""
    return Coloring(greedy_coloring_explicit(graph_power(g, r), order).colors, r)


def greedy_coloring_explicit(gp: Graph, order=None) -> Coloring:
    """Greedy coloring of an explicit graph (e.g. a materialized power) in
    the given vertex order (default 0..n-1), at radius 1.

    Each vertex gets the smallest color absent from its already-colored
    neighbours.  Runs on the CSR arrays, or on the packed bit rows of a
    dense graph, and builds no adjacency lists.
    """
    if order is None:
        order = np.arange(gp.n)
    else:  # read once: an iterator would be spent by the check
        order = list(order)
        if sorted(order) != list(range(gp.n)):
            raise ValueError("order must be a permutation of all vertices")
    return Coloring(_greedy_fill(gp, order).tolist())


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
    return Coloring(colors)


def dsatur_chromatic_exact(gp: Graph, node_budget=DEFAULT_NODE_BUDGET) -> Coloring:
    """A coloring of an explicit graph whose palette is its chromatic number.

    DSATUR branch-and-bound seeded by the exact clique lower bound, where it
    stops, and the DSATUR-greedy upper bound.  Intended for small instances
    (n <= ~80).  Raises BudgetExceededError with the best bounds attached.
    The clique bound's nodes are counted apart from the DSATUR nodes, each
    against ``node_budget``, so one call can visit up to 2 * ``node_budget``.
    """
    n = gp.n
    ub_col = dsatur_greedy(gp)
    best = ub_col.palette_size
    best_colors = ub_col.colors
    try:
        lb = max_clique_exact(gp, node_budget=node_budget)
    except BudgetExceededError as exc:
        lb = exc.lower or 1
    if lb >= best:
        return ub_col

    adj = gp.adjacency_lists()
    degrees = [len(a) for a in adj]
    colors = [-1] * n
    neighbor_masks = [0] * n
    nodes = 0

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
    stack = [enter(0, 0)]
    while stack and best > lb:
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
    return Coloring(best_colors)


def two_phase_power_coloring(g: Graph, r, degrees, gp: Graph) -> Coloring:
    """Constructive coloring of G^r with at most Delta(G^{r-1}) + 1 colors,
    from the degree table and G^r = ``gp`` of one ``power_table`` pass.

    Phase 1 colors the high-degree set S over the forest induced by
    S and its radius-r neighborhood, in the BFS visit order the forest
    check (:func:`graph.is_forest`) returns: trees rooted at their smallest
    vertex.  Phase 2 colors the remaining vertices in increasing index
    order.  Both phases are first fit, so together they are one greedy pass
    on the rows of ``gp`` over phase 1's order followed by phase 2's.
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
        h = induced_subgraph(g, closure)
        forest, walk = is_forest(h)
        if not forest:
            raise ForestViolationError([closure[x] for x in walk])
        in_s = set(s_set)
        phase1 = [closure[x] for x in walk if closure[x] in in_s]

    # phase 2: all remaining vertices, increasing index order
    rest = np.ones(n, dtype=bool)
    rest[phase1] = False
    order = np.concatenate([np.array(phase1, dtype=np.int64),
                            np.flatnonzero(rest)])
    c = Coloring(_greedy_fill(gp, order).tolist(), r)
    if c.palette_size > delta_prev + 1:
        raise GraphPowerError(
            f"{c.palette_size} colors exceed the bound {delta_prev + 1} despite "
            "the forest condition")
    return c


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
    """Inverse of :func:`write_coloring`; ValueError on a malformed file,
    one that colors a vertex twice included."""
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
            else:
                v = int(parts[1])
                if v in assignments:
                    raise ValueError(f"line {lineno}: vertex {v} colored twice")
                assignments[v] = int(parts[2])
    if palette is None:
        raise ValueError("missing solution header line")
    missing = next((v for v in range(len(assignments)) if v not in assignments),
                   None)
    if missing is not None:
        raise ValueError(f"vertex ids not contiguous: no color for vertex {missing}")
    coloring = Coloring([assignments[v] for v in range(len(assignments))], radius)
    if coloring.palette_size != palette:
        raise ValueError(f"palette size {palette} does not match the "
                         f"{coloring.palette_size} colors used")
    return coloring
