"""The (A+I)^r block kernel ``graph._power_blocks`` on int32 keys, against
the int64 rows frozen in ``power_oracle``: the same rows whether or not the
int32 row cap binds, and the int64 branch when a forced bound leaves no row
room.  The degree table of ``graph.power_table`` holds the int64 kernel's
degrees at every radius, from one pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import gnp_sample, graph, graph_power, power_degrees
from graphpower.rng import RandomSource

from power_oracle import int64_power_blocks, int64_power_degrees, scipy_power

INT32_MAX = np.iinfo(np.int32).max


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 150))
    p = draw(st.one_of(st.floats(0.5, 4.0).map(lambda d: min(1.0, d / n)),
                       st.floats(0.2, 0.9)))
    return gnp_sample(n, p, RandomSource(draw(st.integers(0, 2 ** 32))))


def kernel_blocks(g, r):
    """The (start, stop, keys) of ``graph._power_blocks``, sizes left out."""
    return [(start, stop, keys)
            for start, stop, (keys, _) in graph._power_blocks(g, r)]


def global_rows(blocks, n):
    """The (row, v) entries of (A+I)^r held by the blocks, in order."""
    return [(start + key // n, key % n) for start, _, keys in blocks
            for key in keys.tolist()]


@settings(max_examples=120, deadline=None)
@given(random_graphs(), st.integers(1, 4), st.booleans())
def test_blocks_equal_the_int64_kernel(g, r, three_key_budget):
    with pytest.MonkeyPatch.context() as mp:
        if three_key_budget:
            mp.setattr(graph, "POWER_KEY_BUDGET", 3)
        got = kernel_blocks(g, r)
        want = global_rows(int64_power_blocks(g, r), g.n)
    assert all(keys.dtype == np.int32 for _, _, keys in got)
    assert global_rows(got, g.n) == want


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.integers(2, 4), st.integers(1, 6))
def test_row_cap_keeps_keys_under_the_bound(g, r, cap):
    """A bound of ``cap * n`` makes the row cap bind on small graphs: no
    block holds more rows or reaches a key past it, and the rows are the
    int64 kernel's."""
    limit = cap * g.n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "POWER_INT32_KEYS", limit)
        got = kernel_blocks(g, r)
        degs = power_degrees(g, r)
        power = graph_power(g, r)
    assert all(stop - start <= cap for start, stop, _ in got)
    assert all(keys.max() < limit for _, _, keys in got)
    rows = [(start + local, key % g.n) for start, _, keys in got
            for local, key in zip((keys // g.n).tolist(), keys.tolist())]
    want = [(start + key // g.n, key % g.n)
            for start, _, keys in int64_power_blocks(g, r)
            for key in keys.tolist()]
    assert rows == want
    assert degs == int64_power_degrees(g, r)
    oracle = scipy_power(g, r)
    assert np.array_equal(power.indptr, oracle.indptr)
    assert np.array_equal(power.indices, oracle.indices)


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.integers(1, 4), st.booleans())
def test_forced_int64_branch_is_the_int64_kernel(g, r, three_key_budget):
    """A bound that leaves no room for one row (n > bound) sends the kernel
    to int64 keys with no row cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "POWER_INT32_KEYS", g.n - 1)
        if three_key_budget:
            mp.setattr(graph, "POWER_KEY_BUDGET", 3)
        got = kernel_blocks(g, r)
        degs = power_degrees(g, r)
        power = graph_power(g, r)
        want = global_rows(int64_power_blocks(g, r), g.n)
    assert all(keys.dtype == np.int64 for _, _, keys in got)
    assert global_rows(got, g.n) == want
    assert degs == int64_power_degrees(g, r)
    if r > 1:
        oracle = scipy_power(g, r)
        assert np.array_equal(power.indptr, oracle.indptr)
        assert np.array_equal(power.indices, oracle.indices)


def test_row_cap_binds_at_two_to_the_twenty():
    """On G(2**20, 1/n) the budget alone would allow blocks of about 3*10**4
    rows; the int32 bound caps them at 2**30 / 2**20 = 1024, and every
    tagged key still fits int32."""
    n = 1 << 20
    g = gnp_sample(n, 1.0 / n, RandomSource(11))
    cap = graph.POWER_INT32_KEYS // n
    assert cap == 1024
    sizes = []
    for start, stop, keys in kernel_blocks(g, 2):
        assert keys.dtype == np.int32
        assert 2 * int(keys.max()) + 1 <= INT32_MAX
        sizes.append(stop - start)
    assert max(sizes) == cap and sum(sizes) == n
    assert power_degrees(g, 2) == int64_power_degrees(g, 2)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.integers(1, 6), st.booleans())
def test_table_holds_every_radius(g, r, three_key_budget):
    """Row k of the table is the G^k degrees, up to the last hop that grew
    a ball; the radii past it read the last row.  The power from the same
    pass is the product's."""
    with pytest.MonkeyPatch.context() as mp:
        if three_key_budget:
            mp.setattr(graph, "POWER_KEY_BUDGET", 3)
        degrees, power = graph.power_table(g, r, graph.DEFAULT_EDGE_CAP)
        alone, none = graph.power_table(g, r, None)
    assert none is None and np.array_equal(degrees, alone)
    h = len(degrees) - 1
    assert h <= r and not degrees[0].any()
    for s in range(1, r + 1):
        assert degrees[min(s, h)].tolist() == int64_power_degrees(g, s)
    oracle = scipy_power(g, r)
    assert np.array_equal(power.indptr, oracle.indptr)
    assert np.array_equal(power.indices, oracle.indices)


def test_table_stops_where_the_balls_stop_growing():
    """On the path P_10 the balls stop growing after 9 hops, whatever r."""
    g = graph.Graph.from_edges(10, [(i, i + 1) for i in range(9)])
    degrees, power = graph.power_table(g, 10 ** 6, graph.DEFAULT_EDGE_CAP)
    assert len(degrees) <= 11
    assert degrees[-1].tolist() == [9] * 10 and power.m == 45
