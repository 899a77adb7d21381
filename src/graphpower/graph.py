"""Immutable sparse graphs, G(n,p) sampling, the one block driver that runs
a ball expansion from every root, the (A+I)^r kernel on it behind explicit
powers and power degrees, balls grown as vertex masks, the forest check,
and file I/O.

Graphs are stored in compressed-row form (``indptr``/``indices`` a la CSR)
with strictly sorted adjacency rows, no self-loops and no parallel edges.
Vertices are 0-indexed everywhere except at the DIMACS boundary, which is
1-indexed.  All natural logs throughout the package.
"""

from __future__ import annotations

import numpy as np

from .errors import MemoryBudgetError
from .rng import RandomSource

DEFAULT_EDGE_CAP = 10 ** 8
# uniforms per draw of the bernoulli sampler.  A 64 KB draw stays under
# glibc's 128 KiB mmap threshold: 512 KB draws raised the peak RSS of a
# 1000-vertex dense trial loop by up to 9 MB, and one draw of all 2**21
# pairs would hold 16 MB
UNIFORM_CHUNK = 1 << 13
# keys one expansion of a block may hold (one row may pass it).  A
# 2**16-key expansion's arrays (512 KB each) stay in a 2 MB L2 cache: on
# G(n, 2/n) it ran as fast as 2**20 and left peak RSS flat, where 2**20
# added up to 30 MB
POWER_KEY_BUDGET = 1 << 16
# bound on the keys local_row * n + v of one block: below 2**30, a key
# tagged in its low bit still fits int32, which halves the bytes every sort
# and gather of the kernel moves
POWER_INT32_KEYS = 1 << 30


def first_copies(keys):
    """Mask of the first copy of each value in a sorted array.

    Sort plus this mask is ``np.unique`` at a fraction of its cost (about
    1 against 26 ms per 1e5 keys on numpy 2.4).
    """
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


class Graph:
    """Simple undirected graph in compressed adjacency form.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("n", "indptr", "indices", "_adj")

    def __init__(self, n, indptr, indices, validate=True):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self._adj = None
        if validate:
            self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph from an iterable of (u, v) pairs.

        Orientation and duplicates are normalized away; self-loops are
        rejected.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n * n > np.iinfo(np.int64).max:
            raise ValueError(f"n = {n} is too large: pair keys would overflow int64")
        try:
            arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                             dtype=np.int64)
        except OverflowError:
            raise ValueError("edge endpoint out of range") from None
        if arr.size == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                       validate=False)
        arr = arr.reshape(-1, 2)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("edge endpoint out of range")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        if np.any(u == v):
            raise ValueError("self-loop rejected")
        keys = np.sort(u * np.int64(n) + v)
        keys = keys[first_copies(keys)]
        u = keys // n
        v = keys % n
        return cls._from_half_edges(n, u, v)

    @classmethod
    def _from_half_edges(cls, n, u, v):
        """CSR from deduplicated i<j half edges, by one sort of the keys
        head * n + tail of both orientations."""
        n64 = np.int64(n)
        keys = np.concatenate([u * n64 + v, v * n64 + u])
        keys.sort()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n64, minlength=n), out=indptr[1:])
        return cls(n, indptr, keys % n64, validate=False)

    def _validate(self):
        if self.indptr.shape != (self.n + 1,) or self.indptr[0] != 0:
            raise ValueError("malformed indptr")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr/indices length mismatch")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise ValueError("neighbor index out of range")
            # strictly sorted rows, no self-loops
            d = np.diff(self.indices)
            row_ends = self.indptr[1:-1] - 1
            interior = np.ones(self.indices.size - 1, dtype=bool)
            interior[row_ends[row_ends < d.size]] = False
            if np.any(d[interior] <= 0):
                raise ValueError("adjacency rows must be strictly sorted")
            rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
            if np.any(rows == self.indices):
                raise ValueError("self-loop rejected")
            # symmetry: the multiset of (u,v) equals the multiset of (v,u)
            k1 = np.sort(rows * np.int64(self.n) + self.indices)
            k2 = np.sort(self.indices * np.int64(self.n) + rows)
            if not np.array_equal(k1, k2):
                raise ValueError("adjacency not symmetric")

    # -- queries -----------------------------------------------------------

    @property
    def m(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def adjacency_lists(self):
        """Adjacency as plain lists of ints (cached), for the Python loops of
        the DSATUR, clique and forest code."""
        if self._adj is None:
            idx = self.indices.tolist()
            ptr = self.indptr.tolist()
            self._adj = [idx[ptr[i]:ptr[i + 1]] for i in range(self.n)]
        return self._adj

    def has_edge(self, u, v) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < row.size and row[i] == v

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = rows < self.indices
        return np.column_stack([rows[mask], self.indices[mask]])

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# -- sampling --------------------------------------------------------------


def gnp_sample(n, p, src: RandomSource, mode="auto") -> Graph:
    """Sample G(n, p) from a seeded stream.

    Pair decisions correspond to lexicographic order over i < j.  Two
    deterministic modes exist and give different (but individually
    reproducible) samples for the same seed:

    - ``bernoulli``: one uniform draw per pair in lexicographic order, taken
      from the stream in chunks of ``UNIFORM_CHUNK`` (the same doubles as
      one draw per row);
    - ``skip``: geometric gaps between successive edges over the linearized
      pair index (the standard sparse sampler).

    ``auto`` picks ``bernoulli`` when n(n-1)/2 <= 2**21, else ``skip``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = n * (n - 1) // 2
    if n <= 1 or p == 0.0:
        return Graph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                     validate=False)
    if p == 1.0:
        u, v = np.triu_indices(n, k=1)
        return Graph._from_half_edges(n, u.astype(np.int64), v.astype(np.int64))
    if mode == "auto":
        mode = "bernoulli" if total <= 2 ** 21 else "skip"
    rng = src.generator
    if mode == "bernoulli":
        lin = np.concatenate([
            np.flatnonzero(rng.random(min(UNIFORM_CHUNK, total - s)) < p) + s
            for s in range(0, total, UNIFORM_CHUNK)])
    elif mode == "skip":
        # geometric-skip over linear pair indices 0..total-1
        log1mp = np.log1p(-p)
        positions = []
        pos = -1
        batch = max(1024, int(total * p * 1.1) + 64)
        while pos < total:
            u = rng.random(batch)
            gaps = np.floor(np.log1p(-u) / log1mp).astype(np.int64) + 1
            steps = np.cumsum(gaps) + pos
            positions.append(steps)
            pos = int(steps[-1])
            batch = 1024
        lin = np.concatenate(positions)
        lin = lin[lin < total]
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    # row offsets: row i spans lengths n-1-i
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=offsets[1:])
    i = np.searchsorted(offsets, lin, side="right") - 1
    j = i + 1 + (lin - offsets[i])
    return Graph._from_half_edges(n, i, j)


# -- powers and balls ------------------------------------------------------


def _gather_rows(indices, lo, cnt):
    """The adjacency rows that start at offsets ``lo`` of ``indices`` and
    run ``cnt`` entries each, concatenated in order.

    Entry j of the run of row i, which starts at c_i = cnt[:i].sum(), reads
    ``indices[lo[i] + j - c_i]``: one ``np.repeat`` of the row offsets, with
    no Python loop.
    """
    offsets = lo - (np.cumsum(cnt) - cnt)
    return indices[np.arange(cnt.sum()) + np.repeat(offsets, cnt)]


class _OverBudget(Exception):
    """An expansion of a block of :func:`_root_blocks` passed
    ``POWER_KEY_BUDGET`` keys."""


def _root_blocks(g: Graph, grow):
    """Run a ball expansion from every root at once, a block of consecutive
    roots at a time: yields ``(start, stop, grow(start, roots, expand))``.

    This is the package's one block driver.  ``roots`` holds the keys
    ``local_row * (n + 1) + start`` of the block's roots, and
    ``expand(keys)`` returns the keys ``local_row * n + w`` of every
    neighbour w of each key ``local_row * n + x``, in order, with each
    key's neighbour count.  Keys are int32 (``g.indices`` is cast once per
    call) and a block holds at most ``POWER_INT32_KEYS // n`` roots, so a
    key tagged in its low bit stays below 2**31; only when one root cannot
    fit (n > ``POWER_INT32_KEYS``) are they int64, with no row cap.

    The first block tries every root under the row cap; a block of more
    than one root is halved and redone as soon as one expansion would pass
    ``POWER_KEY_BUDGET`` keys, so ``grow`` returns its results only when
    the block passes.  The next block at most doubles the last one and is
    capped by the budget over the last block's largest expansion per root.
    Starting from every root rather than one skips the ramp of small
    blocks: G(500, 2/n) takes one block instead of nine, and the many small
    arrays of varied size that numpy caches (raising the peak RSS) are not
    made.
    """
    n = g.n
    indptr = g.indptr
    budget = POWER_KEY_BUDGET
    max_rows = POWER_INT32_KEYS // max(n, 1)
    dtype = np.int32 if max_rows else np.int64
    max_rows = max_rows or n
    indices = g.indices.astype(dtype)
    peak = 0

    def expand(keys):
        nonlocal peak
        v = keys % n
        lo = indptr[v]
        cnt = indptr[1:][v] - lo
        total = int(cnt.sum())
        if total > budget and rows > 1:
            raise _OverBudget
        peak = max(peak, total)
        reached = _gather_rows(indices, lo, cnt)
        reached += np.repeat(keys - v, cnt)
        return reached, cnt

    start, rows = 0, max_rows
    while start < n:
        stop = min(n, start + rows)
        rows = stop - start
        peak = 0
        try:
            out = grow(start, np.arange(rows, dtype=dtype) * (n + 1) + start,
                       expand)
        except _OverBudget:
            rows //= 2
            continue
        yield start, stop, out
        rows = min(2 * rows, max(1, budget * rows // max(peak, 1)), max_rows)
        start = stop


def _power_blocks(g: Graph, r):
    """The rows of (A+I)^r, a block at a time: yields (start, stop, keys),
    where ``keys`` holds, sorted, ``local_row * n + v`` for every v within
    distance r of vertex ``start + local_row``, the vertex itself included.

    The ball expansion behind every power, run on :func:`_root_blocks`, in
    the style of Gustavson's row-wise sparse product (ACM TOMS 4(3), 1978).
    Each hop joins every neighbour of the newest layer.  On the hops before
    the last, ball keys are tagged 0 and reached keys 1 in the low bit, so
    after one sort the first copy of each key tells whether it is new; the
    last hop needs no new layer and only sorts and deduplicates.
    """
    def grow(_, balls, expand):
        frontier = balls
        for hop in range(1, r + 1):
            reached, _ = expand(frontier)
            if not reached.size:
                break
            # np.compress, not a boolean index: 2-4x faster on these masks
            if hop == r:
                keys = np.concatenate([balls, reached])
                keys.sort()
                return np.compress(first_copies(keys), keys)
            tagged = np.concatenate([balls, reached])
            tagged <<= 1
            tagged[balls.size:] |= 1
            tagged.sort()
            tagged = np.compress(first_copies(tagged >> 1), tagged)
            balls = tagged >> 1
            frontier = np.compress((tagged & 1).astype(bool), balls)
        return balls

    return _root_blocks(g, grow)


def graph_power(g: Graph, r, edge_cap=DEFAULT_EDGE_CAP) -> Graph:
    """Explicit r-th power: u ~ v iff 1 <= dist(u, v) <= r.

    Built row block by row block from :func:`_power_blocks`, the kernel
    behind ``power_degrees``; raises :class:`MemoryBudgetError` when the
    result would exceed ``edge_cap`` edges, as soon as the rows built so far
    prove it (callers then fall back to implicit metrics).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        if g.m > edge_cap:
            raise MemoryBudgetError(f"explicit power exceeds edge cap {edge_cap}")
        return g
    n = g.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols = [np.empty(0, dtype=np.int64)]
    half_edges = 0
    for start, stop, keys in _power_blocks(g, r):
        half_edges += keys.size - (stop - start)
        if half_edges > 2 * edge_cap:
            raise MemoryBudgetError(
                f"explicit power exceeds edge cap {edge_cap}")
        local = keys // n
        col = keys % n
        cols.append(col[col != local + start])
        indptr[start + 1:stop + 1] = np.bincount(local, minlength=stop - start) - 1
    np.cumsum(indptr, out=indptr)
    return Graph(n, indptr, np.concatenate(cols), validate=False)


def ball(g: Graph, v, r):
    """Sorted list of all vertices at distance <= r from v (including v)."""
    return neighborhood_union(g, [v], r)


def neighborhood_union(g: Graph, s, r):
    """Union of radius-r balls around the vertices of s: the closed union
    S ∪ N_r(S), sorted.

    Grows a vertex mask by r hops: each hop gathers the rows of the newest
    frontier at once and keeps the distinct vertices not yet in the mask.
    """
    near = np.zeros(g.n, dtype=bool)
    near[list(s)] = True
    front = np.flatnonzero(near)
    for _ in range(r):
        if not front.size:
            break
        lo = g.indptr[front]
        reached = _gather_rows(g.indices, lo, g.indptr[front + 1] - lo)
        reached = reached[~near[reached]]
        reached.sort()
        front = reached[first_copies(reached)]
        near[front] = True
    return np.flatnonzero(near).tolist()


def induced_subgraph(g: Graph, s):
    """Graph induced on vertex set s, plus the old->new index map.

    New indices follow the sorted order of s.  The edges of g are relabelled
    through one index array (-1 outside s) and kept where both ends are in s.
    """
    s = sorted(set(s))
    label = np.full(g.n, -1, dtype=np.int64)
    label[s] = np.arange(len(s))
    edges = label[g.edge_array()]
    edges = edges[(edges >= 0).all(axis=1)]
    return Graph.from_edges(len(s), edges), {v: i for i, v in enumerate(s)}


def is_forest(g: Graph):
    """(True, None) if acyclic, else (False, witness cycle vertex list)."""
    adj = g.adjacency_lists()
    state = [0] * g.n  # 0 unseen, 1 seen
    parent = [-1] * g.n
    for start in range(g.n):
        if state[start]:
            continue
        state[start] = 1
        stack = [(start, -1)]
        while stack:
            u, pu = stack.pop()
            skipped_parent = False
            for w in adj[u]:
                if w == pu and not skipped_parent:
                    skipped_parent = True
                    continue
                if state[w]:
                    # back edge: walk both endpoints to their common root
                    path_u = [u]
                    x = u
                    while parent[x] != -1:
                        x = parent[x]
                        path_u.append(x)
                    anc = set(path_u)
                    path_w = [w]
                    x = w
                    while x not in anc:
                        x = parent[x]
                        path_w.append(x)
                    meet = x
                    cycle = path_w + path_u[:path_u.index(meet)][::-1]
                    return False, cycle
                state[w] = 1
                parent[w] = u
                stack.append((w, u))
    return True, None


# -- file formats ----------------------------------------------------------


def write_edgelist(g: Graph, path):
    """Text edge list: header ``n m`` then ``u v`` lines, 0-indexed, u < v."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edge_array():
            fh.write(f"{u} {v}\n")


def read_edgelist(path) -> Graph:
    """Inverse of :func:`write_edgelist`; ValueError on a malformed file."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("missing 'n m' header line")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def write_dimacs(g: Graph, path):
    """DIMACS coloring format (.col), 1-indexed."""
    with open(path, "w") as fh:
        fh.write(f"p edge {g.n} {g.m}\n")
        for u, v in g.edge_array():
            fh.write(f"e {u + 1} {v + 1}\n")


def read_dimacs(path) -> Graph:
    """Inverse of :func:`write_dimacs`; ValueError on a malformed file."""
    n = None
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0] not in ("p", "e"):
                continue
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: too few fields in {line.strip()!r}")
            if parts[0] == "p":
                n = int(parts[2])
            else:
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    if n is None:
        raise ValueError("missing DIMACS problem line")
    return Graph.from_edges(n, edges)
