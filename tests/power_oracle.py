"""Reference explicit power for the power-kernel tests: the sparse boolean
matrix product that built ``graph_power`` before the row-block kernel did,
kept as an independent oracle."""

import numpy as np

from graphpower import Graph, MemoryBudgetError
from graphpower.graph import DEFAULT_EDGE_CAP


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
