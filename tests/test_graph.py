import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (Graph, MemoryBudgetError, RandomSource, ball,
                        gnp_sample, graph_power, induced_subgraph, is_forest,
                        neighborhood_union, power_degrees, read_dimacs,
                        read_edgelist, write_dimacs, write_edgelist)
from graphpower import graph

from walk_oracle import _truncated_bfs, connected_components


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestGraphConstruction:
    def test_from_edges_dedup_and_orientation(self):
        g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert g.m == 2
        assert list(g.neighbors(1)) == [0, 2]

    def test_from_edges_matches_set_of_pairs(self):
        rng = np.random.default_rng(0)
        for n in (2, 7, 40):
            arr = rng.integers(0, n, size=(300, 2))
            arr = arr[arr[:, 0] != arr[:, 1]]
            g = Graph.from_edges(n, arr)
            pairs = sorted({(min(u, v), max(u, v)) for u, v in arr.tolist()})
            assert g.edge_array().tolist() == [list(e) for e in pairs]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_symmetry_and_sortedness_validated(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([0, 1, 1]), np.array([1]))  # asymmetric

    @staticmethod
    def lexsort_csr(n, u, v):
        # the construction by np.lexsort that the keyed sort replaced
        heads = np.concatenate([u, v])
        tails = np.concatenate([v, u])
        order = np.lexsort((tails, heads))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads[order], minlength=n), out=indptr[1:])
        return indptr, tails[order]

    def assert_matches_lexsort(self, n, u, v):
        g = Graph._from_half_edges(n, u, v)
        indptr, indices = self.lexsort_csr(n, u, v)
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        g._validate()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1), st.floats(0, 1))
    def test_half_edges_match_lexsort(self, n, seed, density):
        rng = np.random.default_rng(seed)
        total = n * (n - 1) // 2
        u, v = np.triu_indices(n, k=1)
        pick = rng.choice(total, size=int(density * total), replace=False)
        self.assert_matches_lexsort(n, u[pick].astype(np.int64),
                                    v[pick].astype(np.int64))

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 300])
    def test_complete_and_empty_match_lexsort(self, n):
        u, v = (a.astype(np.int64) for a in np.triu_indices(n, k=1))
        self.assert_matches_lexsort(n, u, v)
        g = gnp_sample(n, 1.0, RandomSource(0))
        assert g.m == n * (n - 1) // 2
        assert np.array_equal(g.indices, self.lexsort_csr(n, u, v)[1])
        empty = np.empty(0, dtype=np.int64)
        self.assert_matches_lexsort(n, empty, empty)
        assert Graph.from_edges(n, []).indptr.tolist() == [0] * (n + 1)

    def test_edge_array_sorted(self):
        g = complete_graph(4)
        assert g.edge_array().tolist() == [[0, 1], [0, 2], [0, 3],
                                           [1, 2], [1, 3], [2, 3]]


class TestSampling:
    def test_p_zero_empty(self):
        g = gnp_sample(5, 0.0, RandomSource(7))
        assert g.m == 0 and g.n == 5

    def test_p_one_complete(self):
        g = gnp_sample(5, 1.0, RandomSource(7))
        assert g.m == 10

    def test_edge_count_concentration(self):
        # Binomial(499500, 0.01): mean 4995, 5-sigma window ~ +-351
        for seed in range(100):
            g = gnp_sample(1000, 0.01, RandomSource(seed))
            assert abs(g.m - 4995) <= 350

    def test_determinism_byte_for_byte(self, tmp_path):
        paths = []
        for i in range(2):
            g = gnp_sample(500, 0.02, RandomSource(42))
            p = tmp_path / f"g{i}.txt"
            write_edgelist(g, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_modes_individually_deterministic(self):
        for mode in ("bernoulli", "skip"):
            a = gnp_sample(300, 0.05, RandomSource(3), mode=mode)
            b = gnp_sample(300, 0.05, RandomSource(3), mode=mode)
            assert np.array_equal(a.indices, b.indices)

    def test_skip_mode_statistics(self):
        ms = [gnp_sample(400, 0.03, RandomSource(s), mode="skip").m
              for s in range(50)]
        mean = sum(ms) / len(ms)
        expected = 0.03 * 400 * 399 / 2  # 2394
        assert abs(mean - expected) < 5 * (expected * 0.97) ** 0.5

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gnp_sample(5, 1.5, RandomSource(0))

    @pytest.mark.parametrize("n", [2, 150, 500, 2000])
    @pytest.mark.parametrize("p", [0.001, 0.02, 0.3])
    def test_bernoulli_matches_per_row_draws(self, n, p):
        # reference: one draw per row i of the pairs (i, i+1..n-1)
        for seed in range(5):
            rng = RandomSource(seed).generator
            hits = [np.flatnonzero(rng.random(n - 1 - i) < p)
                    for i in range(n - 1)]
            u = np.repeat(np.arange(n - 1), [h.size for h in hits])
            want = Graph.from_edges(
                n, np.column_stack([u, np.concatenate(hits) + u + 1]))
            g = gnp_sample(n, p, RandomSource(seed), mode="bernoulli")
            assert np.array_equal(g.indptr, want.indptr)
            assert np.array_equal(g.indices, want.indices)


# the largest n that Graph.from_edges accepts: n^2 within int64
LARGEST_N = math.isqrt(np.iinfo(np.int64).max)


class TestPairRowMap:
    """The skip sampler's closed-form map from a linear pair index to its
    pair (i, j), checked where a float inverse is most likely to slip: on
    both sides of a row's first pair, at the first, middle and last rows,
    up to the largest n."""

    @staticmethod
    def offset(n, i):
        """The first pair index of row i, in Python ints."""
        return i * (n - 1) - i * (i - 1) // 2

    @pytest.mark.parametrize("n", [2, 3, 10 ** 4, 10 ** 6, 10 ** 8, LARGEST_N])
    def test_row_ends(self, n):
        assert LARGEST_N ** 2 <= np.iinfo(np.int64).max < (LARGEST_N + 1) ** 2
        total = n * (n - 1) // 2
        want = {}
        for i in sorted({i for i in (0, 1, n // 2, n - 2) if i <= n - 2}):
            first = self.offset(n, i)
            assert first + n - 1 - i == self.offset(n, i + 1)
            if i:   # the last pair of the row before
                want[first - 1] = (i - 1, n - 1)
            want[first] = (i, i + 1)
            if first + 1 < total:   # row n - 2 holds one pair, the last
                want[first + 1] = (i, i + 2)
        lin = np.array(sorted(want), dtype=np.int64)
        i, j = graph._pair_ends(n, lin)
        assert i.dtype == j.dtype == np.int64
        assert list(zip(i.tolist(), j.tolist())) == [want[x] for x in sorted(want)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3000), st.integers(0, 2 ** 32))
    def test_equals_a_search_of_the_offsets(self, n, seed):
        offsets = np.array([self.offset(n, i) for i in range(n - 1)])
        lin = RandomSource(seed).generator.integers(0, n * (n - 1) // 2, 200)
        i = np.searchsorted(offsets, lin, side="right") - 1
        got_i, got_j = graph._pair_ends(n, lin)
        assert np.array_equal(got_i, i)
        assert np.array_equal(got_j, i + 1 + lin - offsets[i])

    def test_empty(self):
        i, j = graph._pair_ends(10, np.empty(0, dtype=np.int64))
        assert i.size == j.size == 0


class TestGraphPower:
    def test_p5_square(self):
        gp = graph_power(path_graph(5), 2)
        assert gp.m == 7
        assert sorted(map(tuple, gp.edge_array().tolist())) == [
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]

    def test_c5_square_complete(self):
        gp = graph_power(cycle_graph(5), 2)
        assert gp.m == 10  # diameter 2, so the square is complete

    def test_r1_identity_same_arrays(self):
        g = path_graph(4)
        assert graph_power(g, 1) is g

    def test_edge_cap(self):
        with pytest.raises(MemoryBudgetError):
            graph_power(cycle_graph(30), 10, edge_cap=10)

    def test_r1_honours_edge_cap(self):
        g = cycle_graph(30)
        assert graph_power(g, 1, edge_cap=30) is g
        with pytest.raises(MemoryBudgetError):
            graph_power(g, 1, edge_cap=29)

    @pytest.mark.parametrize("n,p,r", [(40, 0.05, 2), (60, 0.04, 3),
                                       (30, 0.4, 2), (12, 1.0, 2)])
    def test_edge_cap_boundary(self, n, p, r):
        for seed in range(3):
            g = gnp_sample(n, p, RandomSource(seed))
            m = graph_power(g, r).m
            assert graph_power(g, r, edge_cap=m).m == m
            with pytest.raises(MemoryBudgetError):
                graph_power(g, r, edge_cap=m - 1)

    def test_power_matches_pairwise_bfs(self):
        g = gnp_sample(60, 0.06, RandomSource(11))
        for r in (2, 3):
            gp = graph_power(g, r)
            expected = set()
            for v in range(g.n):
                for u in ball(g, v, r):
                    if u != v:
                        expected.add((min(u, v), max(u, v)))
            assert set(map(tuple, gp.edge_array().tolist())) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 30))
    def test_power_edges_monotone_in_r(self, seed, n):
        g = gnp_sample(n, 2.0 / n, RandomSource(seed))
        e1 = set(map(tuple, graph_power(g, 2).edge_array().tolist()))
        e2 = set(map(tuple, graph_power(g, 3).edge_array().tolist()))
        assert e1 <= e2


def layer_sizes(g, v, r):
    return [len(layer) for layer in next(_truncated_bfs(g, r, [(v,)]))]


class TestBFS:
    def test_star_center(self):
        # the search stops at the first empty layer
        assert layer_sizes(star_graph(4), 0, 2) == [4]

    def test_path_end(self):
        assert layer_sizes(path_graph(5), 0, 3) == [1, 1, 1]

    def test_isolated(self):
        g = Graph.from_edges(1, [])
        assert layer_sizes(g, 0, 3) == []

    def test_layers_sum_component_size(self):
        g = gnp_sample(80, 0.03, RandomSource(5))
        labels, _ = connected_components(g)
        comps = [labels.count(x) for x in labels]
        assert [sum(layer_sizes(g, v, g.n)) + 1 for v in range(g.n)] == comps
        assert [len(ball(g, v, g.n)) for v in range(g.n)] == comps
        assert [d + 1 for d in power_degrees(g, g.n)] == comps

    def test_ball_examples(self):
        assert ball(star_graph(3), 0, 1) == [0, 1, 2, 3]
        assert ball(path_graph(5), 2, 1) == [1, 2, 3]
        assert ball(Graph.from_edges(3, []), 1, 4) == [1]

    def test_neighborhood_union(self):
        assert neighborhood_union(path_graph(5), [], 2) == []
        assert neighborhood_union(path_graph(5), [0], 2) == [0, 1, 2]
        assert neighborhood_union(complete_graph(4), [0], 1) == [0, 1, 2, 3]


class TestInducedSubgraph:
    def test_k4_pair(self):
        sub = induced_subgraph(complete_graph(4), [0, 1])
        assert sub.n == 2 and sub.m == 1

    def test_c5_identity(self):
        sub = induced_subgraph(cycle_graph(5), range(5))
        assert sub.m == 5

    def test_p5_even_vertices_edgeless(self):
        sub = induced_subgraph(path_graph(5), [0, 2, 4])
        assert sub.n == 3 and sub.m == 0


class TestForest:
    def test_tree(self):
        ok, order = is_forest(path_graph(6))
        assert ok and order == [0, 1, 2, 3, 4, 5]

    def test_triangle_witness(self):
        ok, witness = is_forest(cycle_graph(3))
        assert not ok
        assert sorted(witness) == [0, 1, 2]

    def test_disjoint_paths(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert is_forest(g)[0]

    def test_witness_is_cycle(self):
        g = gnp_sample(40, 0.08, RandomSource(9))
        ok, witness = is_forest(g)
        if not ok:
            k = len(witness)
            assert k >= 3
            for i in range(k):
                assert g.has_edge(witness[i], witness[(i + 1) % k])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_forest_iff_edge_count(self, seed):
        g = gnp_sample(30, 0.05, RandomSource(seed))
        _, ncomp = connected_components(g)
        assert is_forest(g)[0] == (g.m == g.n - ncomp)


class TestIO:
    def test_edgelist_roundtrip(self, tmp_path):
        g = gnp_sample(50, 0.1, RandomSource(2))
        p = tmp_path / "g.txt"
        write_edgelist(g, p)
        h = read_edgelist(p)
        assert h.n == g.n and np.array_equal(h.indices, g.indices)

    def test_dimacs_roundtrip(self, tmp_path):
        g = gnp_sample(30, 0.2, RandomSource(3))
        p = tmp_path / "g.col"
        write_dimacs(g, p)
        h = read_dimacs(p)
        assert h.n == g.n and np.array_equal(h.indices, g.indices)

    def test_dimacs_is_one_indexed(self, tmp_path):
        p = tmp_path / "g.col"
        write_dimacs(Graph.from_edges(2, [(0, 1)]), p)
        assert p.read_text() == "p edge 2 1\ne 1 2\n"
