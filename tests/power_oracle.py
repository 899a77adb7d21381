"""References for the power-kernel tests: the sparse boolean matrix product
that built ``graph_power`` before the row-block kernel did, kept as an
independent oracle, and the row-block kernel as it was on int64 keys with a
tagged last hop, kept as the reference for its rows."""

import numpy as np

from graphpower import Graph, MemoryBudgetError, graph
from graphpower.graph import DEFAULT_EDGE_CAP, first_copies


def scipy_power(g: Graph, r, edge_cap=DEFAULT_EDGE_CAP) -> Graph:
    """Explicit r-th power: u ~ v iff 1 <= dist(u, v) <= r.

    Backed by sparse boolean matrix products; raises
    :class:`MemoryBudgetError` when the result would exceed ``edge_cap``
    edges (callers then fall back to implicit metrics).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return g
    from scipy import sparse

    n = g.n
    data = np.ones(g.indices.size, dtype=np.int64)
    a = sparse.csr_matrix((data, g.indices, g.indptr), shape=(n, n))
    b = (a + sparse.identity(n, dtype=np.int64, format="csr")).tocsr()
    b.data.fill(1)
    reach = b
    for _ in range(r - 1):
        reach = reach @ b
        reach.data.fill(1)
        if (reach.nnz - n) // 2 > edge_cap:
            raise MemoryBudgetError(
                f"explicit power exceeds edge cap {edge_cap}")
    reach = sparse.csr_matrix(reach)
    reach.setdiag(0)
    reach.eliminate_zeros()
    reach.sort_indices()
    return Graph(n, reach.indptr.astype(np.int64), reach.indices.astype(np.int64),
                 validate=False)


def int64_power_blocks(g: Graph, r):
    """The rows of (A+I)^r on int64 keys, with every hop tagged, frozen as
    the reference for the rows of ``graph._power_blocks``: (start, stop,
    keys), ``keys`` the sorted ``local_row * n + v`` of the block.  Blocks
    ramp up from one row; only the rows they hold, not the block sizes,
    are compared.  Reads ``graph.POWER_KEY_BUDGET`` at call time, so a
    test can shrink the blocks of both kernels."""
    n = g.n
    indptr = g.indptr
    start, rows = 0, 1
    while start < n:
        stop = min(n, start + rows)
        rows = stop - start
        balls = np.arange(rows, dtype=np.int64) * (n + 1) + start
        frontier = balls
        peak = 0
        for _ in range(r):
            v = frontier % n
            cnt = indptr[v + 1] - indptr[v]
            total = int(cnt.sum())
            peak = max(peak, total)
            if total == 0 or (peak > graph.POWER_KEY_BUDGET and rows > 1):
                break
            offsets = indptr[v] - (np.cumsum(cnt) - cnt)
            reached = g.indices[np.arange(total) + np.repeat(offsets, cnt)]
            reached += np.repeat(frontier - v, cnt)
            tagged = np.concatenate([balls, reached])
            tagged <<= 1
            tagged[balls.size:] |= 1
            tagged.sort()
            keys = tagged >> 1
            first = first_copies(keys)
            balls = keys[first]
            first &= (tagged & 1).astype(bool)
            frontier = keys[first]
        if peak > graph.POWER_KEY_BUDGET and rows > 1:
            rows //= 2
            continue
        yield start, stop, balls
        rows = min(2 * rows,
                   max(1, graph.POWER_KEY_BUDGET * rows // max(peak, 1)))
        start = stop


def int64_power_degrees(g: Graph, r) -> list:
    """``power_degrees`` counted from :func:`int64_power_blocks`."""
    degs = np.empty(g.n, dtype=np.int64)
    for start, stop, keys in int64_power_blocks(g, r):
        degs[start:stop] = np.bincount(keys // g.n, minlength=stop - start) - 1
    return degs.tolist()
