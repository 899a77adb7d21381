"""The dense path: on a dense graph (``graph._dense``) the power table runs
on packed bit rows of A + I, and so do the greedy coloring and the
min-degree independent set; a power built on bit rows keeps them and
derives its CSR only when it is read.

Both paths are run on the same graphs, with the predicate forced each way:
the degree tables, the powers, the edge-cap refusals, the colorings and
the independent sets must be identical, and so must every view of a power
built on bit rows and of its CSR-built twin.  The greedy's edge cases (word
edges, K_n, an edgeless graph, precolorings with gaps or high colors) are
checked against networkx too, and only an order that is not increasing
relabels the bits.  The bit-row kernel charges
the block driver's budget, a dense-chi trial neither unpacks its power nor
packs it again, and the two dense inputs the sort kernel was slow on
finish within a wall-clock bound.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpower
from graphpower import (MemoryBudgetError, coloring, experiments, gnp_sample,
                        graph, metrics)
from graphpower.graph import graph_power, power_table, write_edgelist
from graphpower.rng import RandomSource

from power_oracle import scipy_power
from record_oracle import oracle_trial
from test_graph import complete_graph
from test_independent_set_oracle import reference_independent_set

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@st.composite
def sparse_and_dense_graphs(draw):
    n = draw(st.integers(0, 150))
    p = draw(st.one_of(st.floats(0.3, 4.0).map(lambda d: min(1.0, d / max(n, 1))),
                       st.floats(0.1, 1.0)))
    return gnp_sample(n, p, RandomSource(draw(st.integers(0, 2 ** 32))))


def forced(mp, dense):
    """Send the power table, the greedy coloring and the independent set
    down one path."""
    for module in (graph, coloring, metrics):
        mp.setattr(module, "_dense", lambda g: dense)


def on_each_path(fn, three_key_budget):
    """``fn()`` on the sort path and on the bit-row path; an error it
    raises is returned as its type and message."""
    out = []
    for dense in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            forced(mp, dense)
            if three_key_budget:
                mp.setattr(graph, "POWER_KEY_BUDGET", 3)
            try:
                out.append(fn())
            except MemoryBudgetError as exc:
                out.append((type(exc), str(exc)))
    return out


@settings(max_examples=150, deadline=None)
@given(sparse_and_dense_graphs(), st.integers(1, 5), st.booleans(),
       st.integers(0, 400))
def test_both_paths_give_the_same_table_and_power(g, r, three_key_budget, cap):
    (sort_table, sort_power), (bit_table, bit_power) = on_each_path(
        lambda: power_table(g, r, graph.DEFAULT_EDGE_CAP), three_key_budget)
    assert np.array_equal(sort_table, bit_table)
    assert sort_table.dtype == bit_table.dtype == np.int64
    assert np.array_equal(sort_power.indptr, bit_power.indptr)
    assert np.array_equal(sort_power.indices, bit_power.indices)
    assert bit_power.indices.dtype == np.int64
    if r > 1:
        oracle = scipy_power(g, r)
        assert np.array_equal(bit_power.indices, oracle.indices)
    capped = on_each_path(lambda: power_table(g, r, cap)[1].m, three_key_budget)
    assert capped[0] == capped[1]
    assert capped[0] == (sort_power.m if sort_power.m <= cap else (
        MemoryBudgetError, f"explicit power exceeds edge cap {cap}"))


@settings(max_examples=120, deadline=None)
@given(sparse_and_dense_graphs(), st.sampled_from([1, 2]))
def test_both_paths_give_the_same_independent_set(g, r):
    gp = graph_power(g, r) if r > 1 else g
    sort_set, bit_set = on_each_path(
        lambda: metrics.greedy_independent_set(gp), False)
    assert sort_set == bit_set == reference_independent_set(gp)
    assert all(type(v) is int for v in bit_set)


@settings(max_examples=80, deadline=None)
@given(sparse_and_dense_graphs(), st.integers(1, 4), st.sampled_from([1, 3, 50]))
def test_bit_blocks_charge_the_driver(g, r, budget):
    """Each block of the bit-row kernel charges the driver at least its
    rows unpacked at a byte per vertex and, past r = 1, the rows its second
    hop gathers (a row per neighbour of a root); one of more than one root
    stays within the budget; the blocks cover every root once, in order."""
    blocks = []
    root_blocks = graph._root_blocks

    def recording(g, grow, vertices=None):
        def charged(roots, expand):
            totals = []

            def counted(keys):
                return expand(keys)

            def charge(total):
                totals.append(total)
                expand.charge(total)

            counted.charge = charge
            out = grow(roots, counted)
            # every vertex is a root: local row 0 holds the block's first
            blocks.append((int(roots[0]), roots.size, max(totals)))
            return out

        return root_blocks(g, charged, vertices)

    with pytest.MonkeyPatch.context() as mp:
        forced(mp, True)
        mp.setattr(graph, "POWER_KEY_BUDGET", budget)
        mp.setattr(graph, "_root_blocks", recording)
        power_table(g, r, None)
    words = -(-g.n // 64)
    assert [start for start, _, _ in blocks] == np.cumsum(
        [0] + [rows for _, rows, _ in blocks])[:-1].tolist()
    assert sum(rows for _, rows, _ in blocks) == g.n
    degree = g.degrees()
    assert all(most >= 8 * words * rows for _, rows, most in blocks)
    assert r == 1 or all(most >= words * degree[start:start + rows].sum()
                         for start, rows, most in blocks)
    assert all(rows == 1 or most <= budget for _, rows, most in blocks)


def test_dense_predicate_counts_words():
    """Dense when 2m >= n * ceil(n / 64): a 64-vertex graph needs 32 edges,
    a 65-vertex one 65."""
    def first_edges(n, m):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return graph.Graph.from_edges(n, pairs[:m])

    assert not graph._dense(first_edges(64, 31))
    assert graph._dense(first_edges(64, 32))
    assert not graph._dense(first_edges(65, 64))
    assert graph._dense(first_edges(65, 65))
    # the dense-chi benchmark input is dense, the sparse workloads are not
    assert graph._dense(gnp_sample(1000, 30 / 1000, RandomSource(1)))
    assert not graph._dense(gnp_sample(70_000, 2 / 70_000, RandomSource(1)))


def test_dense_square_finishes():
    """G(600, 0.5)^2 took about 1.2 s on the sort kernel, which expands
    every path before it deduplicates; on bit rows it takes about 10 ms."""
    g = gnp_sample(600, 0.5, RandomSource(1))
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        got = graph_power(g, 2)
        elapsed.append(time.perf_counter() - start)
    want = scipy_power(g, 2)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert min(elapsed) < 0.25


DENSE_CUBE = """
from graphpower import RandomSource, gnp_sample, power_degrees
print(set(power_degrees(gnp_sample(2000, 0.5, RandomSource(1)), 3)))
"""


def test_dense_cube_degrees_finish():
    """power_degrees(G(2000, 0.5), 3) ran past two minutes on the sort
    kernel, whose second hop expands about 10**6 keys per row; every
    vertex is within distance 2 of every other, so each degree is n - 1."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(graph.__file__)),
                      os.environ.get("PYTHONPATH", "")])))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", DENSE_CUBE], capture_output=True,
                         text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["{1999}"]
    assert elapsed < 15


@settings(max_examples=150, deadline=None)
@given(sparse_and_dense_graphs(), st.integers(1, 3), st.data())
def test_both_paths_give_the_same_greedy_coloring(g, r, data):
    """The color-class scan gives each vertex the color the CSR loop gives
    it, for a random order, and after a partial greedy precoloring filled
    in index order as the two-phase coloring does; with the whole order it
    equals networkx's greedy coloring in the same order."""
    gp = graph_power(g, r) if r > 1 else g
    order = data.draw(st.permutations(range(gp.n)))
    first = order[:data.draw(st.integers(0, gp.n))]
    rest = sorted(set(range(gp.n)) - set(first))
    for orders in ((order,), (first, rest)):
        csr, bits = on_each_path(lambda: filled(gp, *orders), False)
        assert csr == bits
        assert min(bits, default=0) >= 0
    assert filled(gp, order) == networkx_first_fit(gp, order)


def filled(gp, *orders, colors=None):
    """``coloring._greedy_fill`` over each order in turn, from ``colors``
    (a dict of precolored vertices), as a list."""
    colors = colors or {}
    out = np.full(gp.n, -1, dtype=np.int64)
    out[list(colors)] = list(colors.values())
    for part in orders:
        coloring._greedy_fill(gp, part, out)
    return out.tolist()


def networkx_first_fit(gp, order, colors=None):
    """First fit in ``order`` on the networkx rebuild of ``gp``: networkx's
    ``greedy_color`` when nothing is precolored, else the smallest color
    absent from each vertex's neighbours there, from ``colors``."""
    h = nx.Graph()
    h.add_nodes_from(range(gp.n))
    h.add_edges_from(gp.edge_array().tolist())
    if not colors:
        want = nx.greedy_color(h, strategy=lambda h, colors: iter(order))
        return [want[v] for v in range(gp.n)]
    out = [colors.get(v, -1) for v in range(gp.n)]
    for v in order:
        used = {out[w] for w in h[v]}
        out[v] = min(set(range(len(used) + 1)) - used)
    return out


def fill_every_way(g, colors=None):
    """The colors the uncolored vertices take in increasing, decreasing and
    shuffled order, once the dense scan, the CSR loop and networkx's first
    fit are seen to agree on each order."""
    colors = colors or {}
    rest = [v for v in range(g.n) if v not in colors]
    shuffled = np.random.default_rng(g.n).permutation(rest).tolist()
    out = []
    for order in (rest, rest[::-1], shuffled):
        csr, bits = on_each_path(lambda: filled(g, order, colors=colors), False)
        assert csr == bits == networkx_first_fit(g, order, colors)
        out += [bits[v] for v in rest]
    return out


@pytest.mark.parametrize("g, palette", [
    *[pytest.param(gnp_sample(n, 0.3, RandomSource(n)), None, id=f"gnp-{n}")
      for n in (0, 1, 63, 64, 65)],
    *[pytest.param(complete_graph(n), n, id=f"K-{n}") for n in (1, 64, 65)],
    *[pytest.param(graph.Graph.from_edges(n, []), 1, id=f"edgeless-{n}")
      for n in (1, 64, 65)]])
def test_dense_greedy_edge_cases(g, palette):
    """Word edges at n = 63, 64, 65; K_n takes n colors, and an edgeless
    graph, dense only when forced, one."""
    got = fill_every_way(g)
    assert palette is None or max(got) + 1 == palette


@pytest.mark.parametrize("colors", [{0: 0, 9: 3, 40: 3, 64: 0},
                                    {5: 70, 64: 1000}], ids=["gap", "above"])
def test_dense_greedy_from_a_precoloring(colors):
    """Precolored colors with a gap, and above every color the scan
    reaches: the gap is filled, and no scan reaches the high colors."""
    got = fill_every_way(gnp_sample(65, 0.3, RandomSource(3)), colors)
    assert {1, 2} <= set(got) and max(got) < 70


@pytest.mark.parametrize("n, size", [(8, 8), (63, 5), (64, 64), (65, 17),
                                     (130, 129)])
def test_ranked_bits_number_the_order(n, size):
    """Bit i of a relabelled row is set exactly when the row holds the
    vertex order[i], and no bit past the order is set."""
    g = gnp_sample(n, 0.4, RandomSource(n))
    order = np.random.default_rng(size).permutation(n)[:size]
    rows = g.bit_rows()[order]
    got = graph._bit_ints(coloring._ranked_bits(rows, order))
    held = [set(g.neighbors(v).tolist()) | {int(v)} for v in order]
    assert got == [sum(1 << i for i, w in enumerate(order.tolist()) if w in row)
                   for row in held]


def test_an_increasing_order_is_not_relabelled():
    """The dense greedy relabels the bits by rank only for an order that
    is not increasing: the whole range, a subset and the two-phase
    coloring's phase 2 scan the vertices' own bits."""
    gp = graph_power(gnp_sample(200, 0.05, RandomSource(1)), 2)
    calls, real = [], coloring._ranked_bits

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        forced(mp, True)
        mp.setattr(coloring, "_ranked_bits", counted)
        filled(gp, range(gp.n))
        filled(gp, [3, 9, 150])
        filled(gp, list(range(100, 200)), colors={5: 1, 7: 0})
        assert not calls
        filled(gp, [9, 3], list(range(10, 200)))
        assert len(calls) == 1 and len(calls[0][0]) == 2


def counting(mp, name):
    """Replace ``graph.<name>`` by a wrapper that records each call's
    arguments in the list it returns."""
    calls, real = [], getattr(graph, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    mp.setattr(graph, name, wrapper)
    return calls


@settings(max_examples=100, deadline=None)
@given(sparse_and_dense_graphs(), st.integers(1, 4))
def test_a_power_on_bit_rows_reads_as_its_csr_twin(g, r):
    """A power built on bit rows has the CSR arrays, size, degrees, lists
    and edge-list file of the same power built on sorted keys; its size,
    degrees and density leave its CSR unbuilt, which is unpacked once; a
    CSR-built graph packs its bit rows once, as the bit-built one holds."""
    dense = graph._dense
    with pytest.MonkeyPatch.context() as mp:
        forced(mp, False)
        twin = power_table(g, r, graph.DEFAULT_EDGE_CAP)[1]
    with pytest.MonkeyPatch.context() as mp:
        forced(mp, True)
        gp = power_table(g, r, graph.DEFAULT_EDGE_CAP)[1]
    with pytest.MonkeyPatch.context() as mp:
        unpacked = counting(mp, "_bit_vertices")
        packed = counting(mp, "_bit_rows")
        assert gp.m == twin.m and dense(gp) == dense(twin)
        assert np.array_equal(gp.degrees(), twin.degrees())
        assert gp._indices is None and not unpacked
        assert np.array_equal(gp.indptr, twin.indptr)
        assert np.array_equal(gp.indices, twin.indices)
        assert gp.indices.dtype == gp.indptr.dtype == np.int64
        slices = len(unpacked)
        assert gp.indices is gp.indices and len(unpacked) == slices
        assert gp.adjacency_lists() == twin.adjacency_lists()
        assert np.array_equal(twin.bit_rows(), gp.bit_rows())
        assert twin.bit_rows() is twin.bit_rows()
        assert len(packed) == 1 and packed[0][0] is twin
    with tempfile.TemporaryDirectory() as tmp:
        texts = []
        for h in (gp, twin):
            write_edgelist(h, os.path.join(tmp, "e.txt"))
            with open(os.path.join(tmp, "e.txt")) as fh:
                texts.append(fh.read())
    assert texts[0] == texts[1]


def benchmark_ops(seed):
    """The dense-explicit trial op of the benchmark at ``seed`` and its
    stored per-trial record digests."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(REPO, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    return workloads, reference["digests"][str(seed)]["dense-explicit"]


@pytest.mark.parametrize("seed", [1, 7])
def test_dense_chi_trial_neither_unpacks_nor_repacks_its_power(seed):
    """A dense-chi trial packs the bit rows of its sample once and colors
    G^r and takes its independent set on the rows the kernel built: no
    root-less unpacking (the CSR of G^r) and no packing of G^r.  Its
    records still match the benchmark's stored digests and the networkx
    rebuild."""
    sampled = []
    real_sample = experiments.gnp_sample

    def sample(*args, **kwargs):
        sampled.append(real_sample(*args, **kwargs))
        return sampled[-1]

    workloads, digests = benchmark_ops(seed)
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(experiments, "gnp_sample", sample)
        unpacked = counting(mp, "_bit_vertices")
        packed = counting(mp, "_bit_rows")
        ops = workloads.build(graphpower, "dense-explicit", seed,
                              os.path.join(tmp, "records.jsonl"), None)
        for t in range(4):
            for op in ops:
                out = op.run(t)
                assert op.check(t, out) is None
                assert op.digest(t, out) == digests[op.label][t]
        small = experiments.ExperimentConfig(kind="dense-chi", n=60, d=12.0,
                                             r=3, seed=seed)
        for t in range(3):
            rec = experiments.run_single_trial(small, t)
            want = oracle_trial(small, t)
            assert json.dumps([list(rec.values.items()),
                               list(rec.exact.items())]) == json.dumps(
                [list(part.items()) for part in want])
    assert len(sampled) == 7 and all(graph._dense(g) for g in sampled)
    assert [args[0] for args in packed] == sampled
    assert all(len(args) == 1 for args in unpacked)
