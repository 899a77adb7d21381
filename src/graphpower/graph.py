"""Immutable sparse graphs, G(n,p) sampling, the one block driver that runs
a ball expansion from every root (or from given ones), the (A+I)^r kernel
on it, whose one pass gives the power degrees at every radius and the
explicit power (on sorted keys, or on packed bit rows when the graph is
dense), balls grown as vertex masks, the forest check, and file I/O.

Graphs are stored in compressed-row form (``indptr``/``indices`` a la CSR)
with strictly sorted adjacency rows, no self-loops and no parallel edges;
a power built on packed bit rows holds those rows and its degree row, and
derives its ``indices`` from them on first read.
Vertices are 0-indexed everywhere except at the DIMACS boundary, which is
1-indexed.  All natural logs throughout the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MemoryBudgetError
from .rng import RandomSource

DEFAULT_EDGE_CAP = 10 ** 8
SAMPLE_MODES = ("auto", "bernoulli", "skip")
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

    Immutable after construction; safe to share across workers.  Caches
    two derived row forms, the adjacency lists and the packed bit rows of
    A + I, from which a power built on bit rows unpacks ``indices``.
    """

    __slots__ = ("n", "indptr", "_indices", "_bits", "_adj")

    def __init__(self, n, indptr, indices, validate=True):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._bits = None
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
        return cls._from_half_edges(n, keys // n, keys % n)

    @classmethod
    def _from_bit_rows(cls, bits, degrees):
        """The graph whose closed rows are the packed ``bits`` (as
        :func:`_bit_rows` packs them) and whose degrees are ``degrees``."""
        g = cls.__new__(cls)
        g.n, g._indices, g._bits, g._adj = len(bits), None, bits, None
        g.indptr = np.concatenate([[0], np.cumsum(degrees)])
        return g

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
            # strictly sorted rows: the keys (u, v) strictly increase
            rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
            k1 = rows * np.int64(self.n) + self.indices
            if np.any(np.diff(k1) <= 0):
                raise ValueError("adjacency rows must be strictly sorted")
            if np.any(rows == self.indices):
                raise ValueError("self-loop rejected")
            # symmetry: the multiset of (u,v) equals the multiset of (v,u)
            k2 = np.sort(self.indices * np.int64(self.n) + rows)
            if not np.array_equal(k1, k2):
                raise ValueError("adjacency not symmetric")

    # -- queries -----------------------------------------------------------

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            bits = self._bits
            self._indices = np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [_bit_vertices(bits[a:b], a) for a, b in _row_slices(self.n)])
        return self._indices

    @property
    def m(self) -> int:
        return int(self.indptr[-1]) // 2

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

    def bit_rows(self) -> np.ndarray:
        """The packed rows of A + I (cached): see :func:`_bit_rows`."""
        if self._bits is None:
            self._bits = _bit_rows(self)
        return self._bits

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
      one draw per row), compared with p as raw 64-bit words;
    - ``skip``: geometric gaps between successive edges over the linearized
      pair index (the standard sparse sampler), each index mapped to its
      pair in closed form by :func:`_pair_ends`.

    ``auto`` picks ``bernoulli`` when n(n-1)/2 <= 2**21, else ``skip``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if mode not in SAMPLE_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
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
        # rng.random() is (x >> 11) * 2**-53 for the raw 64-bit word x, and
        # that is below p exactly when x < ceil(p * 2**53) << 11
        raw = rng.bit_generator.random_raw
        below = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
        lin = np.concatenate([
            np.flatnonzero(raw(min(UNIFORM_CHUNK, total - s)) < below) + s
            for s in range(0, total, UNIFORM_CHUNK)])
    else:
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
    return Graph._from_half_edges(n, *_pair_ends(n, lin))


def _pair_offset(n, i):
    """The linear index of pair (i, i + 1), the first of row i: rows 0..i-1
    span n-1, n-2, ... pairs, i(n-1) - i(i-1)/2 in all, which stays inside
    int64 for every row of every n with n^2 in int64."""
    return i * (n - 1) - i * (i - 1) // 2


def _pair_ends(n, lin):
    """The pair (i, j), i < j, of each linear pair index ``lin``, as arrays
    i and j: row i is the largest with offset(i) <= lin, for the offsets of
    :func:`_pair_offset`, and j = i + 1 + lin - offset(i).

    The closed-form inverse of the triangular offsets (Batagelj & Brandes,
    Phys. Rev. E 71, 036113, 2005), i = floor((b - sqrt(b^2 - 8 lin)) / 2)
    with b = 2n - 1, takes no n-entry offset array.  Its discriminant is
    evaluated as 8 (n(n-1)/2 - lin) + 1, the same integer, so that it
    carries no cancellation; exact int64 comparisons against the offsets
    then move i by one row at a time until nothing moves.
    """
    total = n * (n - 1) // 2
    b = 2.0 * n - 1.0
    disc = 8.0 * (total - lin) + 1.0
    i = np.clip(np.floor((b - np.sqrt(disc)) / 2), 0, n - 2).astype(np.int64)
    while True:
        lo = _pair_offset(n, i)
        down = lo > lin
        up = _pair_offset(n, i + 1) <= lin
        if not (down.any() or up.any()):
            return i, i + 1 + (lin - lo)
        i += up
        i -= down


# -- powers and balls ------------------------------------------------------


def _gather_rows(indices, lo, cnt):
    """The adjacency rows that start at offsets ``lo`` of ``indices`` and
    run ``cnt`` entries each, concatenated in order, and the run index: the
    row i of each entry, ``np.repeat(np.arange(cnt.size), cnt)``.

    The run index is the cumsum of a bincount of the run ends, and entry j
    of the run of row i, which starts at c_i = cnt[:i].sum(), reads
    ``indices[lo[i] + j - c_i]``: one gather of the row offsets through the
    run index, with no Python loop.  A caller reads anything else it holds
    per row, such as a key base, through the same run index.
    """
    ends = np.cumsum(cnt)
    total = int(ends[-1]) if ends.size else 0
    # an empty run ends where the run before it does, and owns no entry
    run = np.cumsum(np.bincount(ends, minlength=total + 1)[:total])
    at = (lo - ends + cnt)[run]
    at += np.arange(total)
    return indices[at], run


class _OverBudget(Exception):
    """An expansion of a block of :func:`_root_blocks` passed
    ``POWER_KEY_BUDGET`` keys."""


def _root_blocks(g: Graph, grow, roots=None):
    """Run a ball expansion from many roots at once, a block of consecutive
    roots at a time: yields ``(start, stop, grow(keys, expand))``.

    This is the package's one block driver, and the only code that maps a
    block to its vertices.  The roots are every vertex, or the sorted
    vertices ``roots`` a power kernel is handed (ValueError on one outside
    [0, n)); with no root it yields nothing and casts nothing.  ``start``
    and ``stop`` index the block in the roots.  ``keys`` holds the keys
    ``local_row * n + v`` of the block's roots v, which ``grow`` reads as
    ``keys % n``, and ``expand(keys)`` returns the keys ``local_row * n +
    w`` of every neighbour w of each key ``local_row * n + x``, in order,
    with the run index of :func:`_gather_rows`: the position in ``keys`` of
    the key that reached each one.  Keys are int32 (``g.indices`` is cast
    once per call) and a block holds at most ``POWER_INT32_KEYS // n``
    roots, so a key tagged in its low bit stays below 2**31; only when one
    root cannot fit (n > ``POWER_INT32_KEYS``) are they int64, with no row
    cap.  A ``grow`` that holds its balls otherwise charges each expansion
    with ``expand.charge(total)``, ``total`` its keys or words.

    The first block tries every root under the row cap; a block of more
    than one root is halved and redone as soon as one expansion would pass
    ``POWER_KEY_BUDGET`` keys, so ``grow`` returns its results only when
    the block passes.  The next block at most doubles the last one and is
    aimed at 3/4 of the budget (at the budget itself, every other r = 3
    block overran): capped by that over the last largest expansion per
    root.  Starting from every root rather than one skips the ramp of small
    blocks: G(500, 2/n) takes one block instead of nine, and the many small
    arrays of varied size that numpy caches (raising the peak RSS) are not
    made.
    """
    n = g.n
    indptr = g.indptr
    budget = POWER_KEY_BUDGET
    aim = budget * 3 // 4
    max_rows = POWER_INT32_KEYS // max(n, 1)
    dtype = np.int32 if max_rows else np.int64
    max_rows = max_rows or n
    roots = np.arange(n) if roots is None else np.asarray(roots, dtype=np.int64)
    if not roots.size:
        return
    if not 0 <= roots.min() <= roots.max() < n:
        raise ValueError("roots must be vertices of g")
    indices = g.indices.astype(dtype)
    peak = 0

    def charge(total):
        nonlocal peak
        if total > budget and rows > 1:
            raise _OverBudget
        peak = max(peak, total)

    def expand(keys):
        v = keys % n
        lo = indptr[v]
        cnt = indptr[1:][v] - lo
        charge(int(cnt.sum()))
        reached, run = _gather_rows(indices, lo, cnt)
        reached += (keys - v)[run]
        return reached, run

    expand.charge = charge

    start, rows = 0, max_rows
    while start < roots.size:
        stop = min(roots.size, start + rows)
        rows = stop - start
        keys = np.arange(rows, dtype=dtype) * n
        keys += roots[start:stop]
        peak = 0
        try:
            out = grow(keys, expand)
        except _OverBudget:
            rows //= 2
            continue
        yield start, stop, out
        rows = min(2 * rows, max(1, aim * rows // max(peak, 1)), max_rows)
        start = stop


def _power_blocks(g: Graph, r, roots=None):
    """The rows of (A+I)^r from the roots of :func:`_root_blocks`, a block
    at a time: yields (start, stop, (keys, sizes)), ``keys`` the sorted
    ``local_row * n + v`` for every v within distance r of the row's root
    (itself included), and ``sizes[k - 1]`` each row's ball size at radius
    k = 1..t.  The hops stop at the first one that reaches nothing: t =
    min(r, h + 1), h the last hop that grew one of the block's balls, and
    t = 0 when no root of the block has a neighbour.

    The ball expansion behind every power, a ``grow(keys, expand)`` of
    :func:`_root_blocks`, in the style of Gustavson's row-wise sparse
    product (ACM TOMS 4(3), 1978).  Each hop joins every neighbour of the newest layer.  In a simple graph
    hop 1's new layer is exactly N(v), with no loop and no repeated entry,
    so hop 1 neither sorts nor deduplicates: the ball is the roots and
    their rows (sorted only at r = 1, where it is returned), the frontier
    the rows, and the sizes one plus a bincount of the run index.  On the
    later hops before
    the last, ball keys are tagged 0 and reached keys 1 in the low bit, so
    after one sort the first copy of each key tells whether it is new; the
    last hop needs no new layer and only sorts and deduplicates.  A later
    hop counts its ball sizes by a bincount of the keys' rows.
    """
    n = g.n

    def grow(balls, expand):
        rows = balls.size
        frontier, run = expand(balls)
        if not frontier.size:
            return balls, []
        sizes = [np.bincount(run, minlength=rows) + 1]
        balls = np.concatenate([balls, frontier])
        if r == 1:
            balls.sort()
        for hop in range(2, r + 1):
            reached, _ = expand(frontier)
            if not reached.size:
                break
            # np.compress, not a boolean index: 2-4x faster on these masks
            if hop == r:
                keys = np.concatenate([balls, reached])
                keys.sort()
                balls = np.compress(first_copies(keys), keys)
            else:
                tagged = np.concatenate([balls, reached])
                tagged <<= 1
                tagged[balls.size:] |= 1
                tagged.sort()
                tagged = np.compress(first_copies(tagged >> 1), tagged)
                balls = tagged >> 1
                frontier = np.compress((tagged & 1).astype(bool), balls)
            sizes.append(np.bincount(balls // n, minlength=rows))
        return balls, sizes

    return _root_blocks(g, grow, roots)


def _dense(g: Graph):
    """Whether g runs on packed bit rows: its CSR index words are at least
    its bit-row words, 2m >= n * ceil(n / 64)."""
    return int(g.indptr[-1]) >= g.n * -(-g.n // 64)


def _row_slices(n):
    """The slices (a, b) of n bit rows packed or unpacked at a time: n // 8
    rows, so that a slice unpacked at a byte per vertex is no larger than
    the packed rows, or more while it stays under 64 KB (at n = 150, one
    slice took 23 us and nine slices 150 us)."""
    step = max(1, n // 8, (1 << 16) // max(-(-n // 64) * 64, 64))
    return [(a, min(n, a + step)) for a in range(0, n, step)]


def _bit_rows(g: Graph):
    """The rows of A + I packed 64 vertices to a uint64 word, an
    (n, ceil(n / 64)) array: vertex v of row u is set when u = v or u ~ v.

    Packed by ``np.packbits`` a slice of :func:`_row_slices` at a time.
    Bits are read back only by :func:`_bit_vertices` and as bytes, and
    counted by ``np.bitwise_count``, so no shift depends on the byte order.
    Callers read the cached copy of :meth:`Graph.bit_rows`.
    """
    n = g.n
    width = -(-n // 64) * 64
    rows = np.empty((n, width // 64), dtype=np.uint64)
    for a, b in _row_slices(n):
        own = np.arange(b - a) * width
        flat = np.zeros((b - a) * width, dtype=bool)
        flat[np.repeat(own, np.diff(g.indptr[a:b + 1]))
             + g.indices[g.indptr[a]:g.indptr[b]]] = True
        flat[own + np.arange(a, b)] = True
        rows[a:b] = (np.packbits(flat, bitorder="little").view(np.uint64)
                     .reshape(b - a, -1))
    return rows


def _bit_vertices(bits, start=None):
    """The vertex of every set bit of packed rows, row by row; with
    ``start``, row i leaves out its root start + i, which it holds.

    The flat positions of one unpacking less each row's offset:
    ``np.nonzero`` on the 2-d unpacking takes about 10x longer.
    """
    counts = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    flat = np.unpackbits(bits.view(np.uint8), bitorder="little").view(bool)
    offsets = np.arange(len(bits)) * (bits.shape[1] * 64)
    if start is not None:
        flat[offsets + np.arange(start, start + len(bits))] = False
        counts -= 1
    return np.flatnonzero(flat) - np.repeat(offsets, counts)


def _bit_ints(bits):
    """Packed rows as Python ints, each row's bytes read little-endian, so
    bit v of a row's int is bit v of the row as :func:`_bit_rows` packs it."""
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


def _bit_power_blocks(g: Graph, r, roots=None):
    """The rows of (A+I)^r on packed bit rows, a block at a time: yields
    (start, stop, (balls, sizes)), ``balls`` the block's rows as
    :func:`_bit_rows` packs them and ``sizes`` as :func:`_power_blocks`
    gives them.

    The dense twin of :func:`_power_blocks`, a ``grow(keys, expand)`` of
    :func:`_root_blocks`: hop 1 gathers the rows of A + I of the roots
    ``keys % n``, and each later hop ORs the rows of the newest layer into
    their root's ball (one gather and one ``np.bitwise_or.reduceat``) and
    counts the balls by ``np.bitwise_count``.  Hop 2 reads the first layer
    from the roots' CSR rows by :func:`_gather_rows`; each later layer is
    unpacked from the bits a hop added.  A block charges the driver's
    budget, in words, with its rows unpacked at one byte per vertex and
    with the rows each hop gathers.  The rows of A + I are packed when the
    first block runs, so a scan with no root packs none.
    """
    n = g.n
    indptr, indices = g.indptr, g.indices

    def grow(keys, expand):
        closed = g.bit_rows()
        words = closed.shape[1]
        expand.charge(8 * words * keys.size)
        own = keys % n
        balls = closed[own]
        lo = indptr[own]
        cnt = indptr[1:][own] - lo
        front = _gather_rows(indices, lo, cnt)[0]
        sizes = [cnt + 1] if front.size else []
        for hop in range(2, r + 1):
            if not front.size:
                break
            expand.charge(words * front.size)
            has = np.flatnonzero(cnt)
            reach = np.bitwise_or.reduceat(closed[front],
                                           (np.cumsum(cnt) - cnt)[has])
            if hop < r:
                new = reach & ~balls[has]
                cnt = np.zeros_like(cnt)
                cnt[has] = np.bitwise_count(new).sum(axis=1, dtype=np.int64)
                front = _bit_vertices(new)
            balls[has] |= reach
            sizes.append(np.bitwise_count(balls).sum(axis=1, dtype=np.int64))
        return balls, sizes

    return _root_blocks(g, grow, roots)


def _power_kernel(g: Graph):
    """The power kernel for g: on packed bit rows when it is dense."""
    return _bit_power_blocks if _dense(g) else _power_blocks


def power_table(g: Graph, r, edge_cap):
    """One pass of the kernel of :func:`_power_kernel` over every vertex:
    ``(degrees, power)``.  A power built on bit rows keeps them as its rows
    (:meth:`Graph.bit_rows`) and unpacks its CSR ``indices`` only when read.

    ``degrees[k]`` holds the G^k degrees for k = 0..t, t = min(r, h + 1)
    with h the last hop that grew a ball (t = 0 when g has no edge), so
    radius s reads ``degrees[min(s, t)]``: a single edge at r = 5 gives rows
    0..2.  Each block writes its columns as it arrives; one whose t passes
    the table's first pads it down by its last row.  ``power`` is G^r, built
    from the same blocks; :class:`MemoryBudgetError` past ``edge_cap``
    edges, as soon as the rows built so far prove it.  With ``edge_cap``
    None no row is kept and ``power`` is None.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = g.n
    kernel = _power_kernel(g)
    dense = kernel is _bit_power_blocks
    degrees = np.zeros((1, n), dtype=np.int64)
    kept, half_edges = [], 0
    for start, stop, (balls, sizes) in kernel(g, r):
        if len(sizes) >= len(degrees):
            degrees = np.pad(degrees, ((0, len(sizes) + 1 - len(degrees)), (0, 0)),
                             mode="edge")
        for k, size in enumerate(sizes, 1):  # radius k and the ones past it
            degrees[k:, start:stop] = size - 1
        if edge_cap is not None:
            half_edges += int(degrees[-1, start:stop].sum())
            if half_edges > 2 * edge_cap:
                raise MemoryBudgetError(f"explicit power exceeds edge cap {edge_cap}")
            if dense:
                kept.append(balls)
            else:
                col = balls % n
                kept.append(col[col != balls // n + start])
    if edge_cap is None:
        return degrees, None
    if dense:
        bits = np.concatenate(kept) if kept else np.empty((0, 0), dtype=np.uint64)
        return degrees, Graph._from_bit_rows(bits, degrees[-1])
    indptr = np.concatenate([[0], np.cumsum(degrees[-1])])
    cols = np.concatenate([np.empty(0, dtype=np.int64)] + kept)
    return degrees, Graph(n, indptr, cols, validate=False)


def graph_power(g: Graph, r, edge_cap=DEFAULT_EDGE_CAP) -> Graph:
    """Explicit r-th power: u ~ v iff 1 <= dist(u, v) <= r; G itself at
    r = 1, else the power of :func:`power_table`."""
    return g if r == 1 and g.m <= edge_cap else power_table(g, r, edge_cap)[1]


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
        reached, _ = _gather_rows(g.indices, lo, g.indptr[front + 1] - lo)
        reached = reached[~near[reached]]
        reached.sort()
        front = reached[first_copies(reached)]
        near[front] = True
    return np.flatnonzero(near).tolist()


def induced_subgraph(g: Graph, s):
    """Graph induced on vertex set s: the new index of a vertex is its rank
    in sorted(s).  The rows of s are read by one :func:`_gather_rows` and
    relabelled through one index array (-1 outside s), which keeps their
    order, so the entries kept are the CSR of the subgraph as they stand.
    """
    s = np.array(sorted(set(s)), dtype=np.int64)
    label = np.full(g.n, -1, dtype=np.int64)
    label[s] = np.arange(s.size)
    lo = g.indptr[s]
    reached, run = _gather_rows(g.indices, lo, g.indptr[s + 1] - lo)
    reached = label[reached]
    inside = reached >= 0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(run[inside],
                                                        minlength=s.size))])
    return Graph(s.size, indptr, reached[inside], validate=False)


def is_forest(g: Graph):
    """(True, visit order) if g is acyclic, else (False, witness cycle).

    The one walk over a forest: a breadth-first pass from the smallest
    unvisited vertex of each tree in turn, neighbours in increasing order.
    On a forest the only visited neighbour of a vertex is its parent, so
    any other one closes a cycle, read off by walking both ends up to
    their common ancestor.
    """
    adj = g.adjacency_lists()
    parent = [None] * g.n  # None unseen, -1 a root
    order, i = [], 0
    for root in range(g.n):
        if parent[root] is not None:
            continue
        parent[root] = -1
        order.append(root)
        while i < len(order):
            u = order[i]
            for w in adj[u]:
                if parent[w] is None:
                    parent[w] = u
                    order.append(w)
                elif w != parent[u]:
                    path_u = [u]
                    while parent[path_u[-1]] != -1:
                        path_u.append(parent[path_u[-1]])
                    anc = set(path_u)
                    path_w = [w]
                    while path_w[-1] not in anc:
                        path_w.append(parent[path_w[-1]])
                    meet = path_u.index(path_w[-1])
                    return False, path_w + path_u[:meet][::-1]
            i += 1
    return True, order


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
