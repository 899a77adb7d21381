import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (BudgetExceededError, Graph, RandomSource,
                        clique_lower_bound, codegree_max, gnp_sample,
                        graph_power, greedy_independent_set, high_degree_set,
                        independence_number, max_clique_exact, power_degrees,
                        power_max_degree, power_max_degrees,
                        power_neighborhood_edge_count, short_cycle_proximity)
from graphpower import graph, metrics
from graphpower.coloring import dsatur_chromatic_exact, greedy_coloring_explicit
from graphpower.graph import power_table

from test_graph import complete_graph, cycle_graph, path_graph, star_graph


def table(g, r):
    """The degree table of one kernel pass over G^r."""
    return power_table(g, r, None)[0]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


class TestPowerDegrees:
    def test_p5_middle(self):
        assert power_degrees(path_graph(5), 2) == [2, 3, 4, 3, 2]

    def test_complete(self):
        assert power_degrees(complete_graph(6), 4) == [5] * 6

    def test_edgeless(self):
        assert power_degrees(Graph.from_edges(4, []), 2) == [0] * 4

    def test_max_degree_p5(self):
        s = power_max_degree(table(path_graph(5), 2), 2)
        assert s.delta == 4 and s.argmax == 2

    def test_max_degree_c5_square(self):
        assert power_max_degree(table(cycle_graph(5), 2), 2).delta == 4

    def test_r1_reduction(self):
        g = gnp_sample(60, 0.08, RandomSource(1))
        assert power_max_degree(table(g, 1), 1).delta == int(g.degrees().max())

    def test_implicit_matches_explicit(self):
        for seed in range(5):
            g = gnp_sample(120, 0.03, RandomSource(seed))
            for r in (2, 3):
                gp = graph_power(g, r)
                assert power_degrees(g, r) == list(gp.degrees())

    def test_delta_nondecreasing_in_r(self):
        g = gnp_sample(80, 0.04, RandomSource(3))
        deltas = [power_max_degree(table(g, r), r).delta for r in (1, 2, 3, 4)]
        assert deltas == sorted(deltas)


def table_maxima(g, r):
    """Delta(G^1), ..., Delta(G^r) read from the degree table."""
    degrees = table(g, r)
    return [power_max_degree(degrees, s).delta for s in range(1, r + 1)]


def lollipop(m, tail):
    """K_m with a path of ``tail`` more vertices hung from its last one."""
    clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return Graph.from_edges(m + tail, clique + [(m - 1 + i, m + i)
                                                for i in range(tail)])


class TestPowerMaxDegrees:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 200), st.floats(0, 1), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_the_table_maxima(self, n, p, r, seed):
        g = gnp_sample(n, p, RandomSource(seed))
        assert power_max_degrees(g, r) == table_maxima(g, r)

    @pytest.mark.parametrize("g, tree", [
        (Graph.from_edges(127, [(i // 2, i + 1) for i in range(126)]), True),
        (gnp_sample(400, 3 / 400, RandomSource(5)), False)])
    def test_walk_bounds(self, g, tree):
        """Every bound holds, and on a tree it is the degree itself."""
        degrees, bounds = table(g, 6), metrics._walk_bounds(g, 6)
        for k in range(1, 7):
            exact = degrees[min(k, len(degrees) - 1)]
            bound = bounds[min(k, len(bounds)) - 1]
            assert (bound == exact).all() if tree else (bound >= exact).all()

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n):
        assert power_max_degrees(Graph.from_edges(n, []), 3) == [0, 0, 0]

    def test_single_edge_reads_its_last_hop(self):
        assert power_max_degrees(path_graph(2), 5) == [1] * 5

    def test_r1_is_the_max_degree(self):
        g = gnp_sample(300, 0.02, RandomSource(4))
        assert power_max_degrees(g, 1) == [int(g.degrees().max())]

    def test_complete_graph_bounds_saturate(self):
        g = complete_graph(9)
        assert all((row == 8).all() for row in metrics._walk_bounds(g, 4))
        assert power_max_degrees(g, 4) == [8] * 4

    def test_overflow_guard(self):
        """On K_40 the walk counts pass 2**62 at radius 12 while the
        bounds on the tail's far end are still small: that row is n - 1."""
        g = lollipop(40, 60)
        bounds = metrics._walk_bounds(g, 12)
        assert len(bounds) == 12 and (bounds[-1] == g.n - 1).all()
        assert bounds[-2].min() == 11
        assert power_max_degrees(g, 12) == table_maxima(g, 12)
        g = gnp_sample(300, 0.5, RandomSource(2))
        assert power_max_degrees(g, 12) == table_maxima(g, 12)

    def expanded(self, g, r):
        """The roots the kernel expanded, in order, and the number of
        single-vertex balls grown by ``ball``."""
        seen, balls = [], []
        root_blocks, ball = graph._root_blocks, metrics.ball

        def counting(g, grow, roots=None):
            def counted(keys, expand):
                out = grow(keys, expand)  # a block redone is not seen
                seen.extend((keys % g.n).tolist())
                return out
            return root_blocks(g, counted, roots)

        def counted_ball(*args):
            balls.append(args)
            return ball(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_root_blocks", counting)
            mp.setattr(metrics, "ball", counted_ball)
            got = power_max_degrees(g, r)
        assert got == table_maxima(g, r)
        return seen, len(balls)

    def test_each_candidate_is_expanded_once(self):
        """The dense worst case: most vertices are candidates, and one
        kernel pass expands each of them once."""
        roots, balls = self.expanded(gnp_sample(1000, 0.03, RandomSource(1)), 2)
        assert len(roots) > 500 and len(roots) == len(set(roots))
        assert balls == 1

    def test_sparse_graph_expands_a_handful(self):
        roots, balls = self.expanded(gnp_sample(10 ** 4, 2e-4, RandomSource(1)), 2)
        assert len(roots) <= 3 and balls == 1

    def test_no_candidate_packs_no_bit_rows(self):
        """On K_300 no vertex can pass what the walk bounds already prove,
        so no block runs and the dense graph's bit rows stay unpacked."""
        g = gnp_sample(300, 1.0, RandomSource(1))
        assert power_max_degrees(g, 2) == [299, 299]
        assert graph._dense(g) and g._bits is None
        assert self.expanded(g, 2)[0] == []


class TestHighDegreeSet:
    def test_star_square_all_equal(self):
        assert high_degree_set(table(star_graph(3), 2), 2, 3) == []

    def test_threshold_n_empty(self):
        g = gnp_sample(40, 0.1, RandomSource(4))
        assert high_degree_set(table(g, 2), 2, g.n) == []

    def test_c9_square(self):
        assert high_degree_set(table(cycle_graph(9), 2), 2, 2) == list(range(9))

    def test_threshold_delta_empty(self):
        g = gnp_sample(50, 0.06, RandomSource(5))
        delta = power_max_degree(table(g, 2), 2).delta
        assert high_degree_set(table(g, 2), 2, delta) == []

    def test_threshold_minus_one_is_everything(self):
        g = gnp_sample(20, 0.1, RandomSource(6))
        assert high_degree_set(table(g, 2), 2, -1) == list(range(20))


class TestCliqueBounds:
    def test_star_r2(self):
        assert clique_lower_bound(table(star_graph(3), 2), 2) == 4

    def test_edgeless(self):
        assert clique_lower_bound(table(Graph.from_edges(5, []), 2), 2) == 1

    def test_p5_r4(self):
        assert clique_lower_bound(table(path_graph(5), 4), 4) == 5

    def test_r1(self):
        assert clique_lower_bound(table(path_graph(3), 1), 1) == 2
        assert clique_lower_bound(table(Graph.from_edges(3, []), 1), 1) == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_no_vertices(self, r):
        # omega is 0 without vertices; the ball bound once read 1 at r >= 2
        g = Graph.from_edges(0, [])
        assert clique_lower_bound(table(g, r), r) == max_clique_exact(g) == 0


class TestExactClique:
    def test_c5(self):
        assert max_clique_exact(cycle_graph(5)) == 2

    def test_k4(self):
        assert max_clique_exact(complete_graph(4)) == 4

    def test_petersen_vs_exhaustive(self):
        g = petersen()
        # brute-force oracle: check all triples
        from itertools import combinations
        has_triangle = any(g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                           for a, b, c in combinations(range(10), 3))
        assert not has_triangle
        assert max_clique_exact(g) == 2

    def test_budget(self):
        g = gnp_sample(60, 0.5, RandomSource(7))
        with pytest.raises(BudgetExceededError):
            max_clique_exact(g, node_budget=3)

    @pytest.mark.parametrize("solver,graph", [
        (max_clique_exact, lambda: complete_graph(1100)),
        (independence_number, lambda: Graph.from_edges(1100, [])),
    ], ids=["clique", "independence"])
    def test_deep_search_needs_no_recursion(self, solver, graph):
        # the search goes one frame deeper per vertex of the clique: 1100
        g = graph()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert solver(g) == 1100
        finally:
            sys.setrecursionlimit(limit)

    def test_random_vs_bruteforce(self):
        from itertools import combinations
        for seed in range(5):
            g = gnp_sample(12, 0.5, RandomSource(seed))
            best = 1 if g.n else 0
            for k in range(2, 13):
                found = False
                for sub in combinations(range(12), k):
                    if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                        found = True
                        break
                if found:
                    best = k
                else:
                    break
            assert max_clique_exact(g) == best


class TestIndependence:
    def test_k4(self):
        assert independence_number(complete_graph(4)) == 1

    def test_edgeless(self):
        assert independence_number(Graph.from_edges(7, [])) == 7

    def test_c5_exact(self):
        # every 3-subset of C5 contains an edge
        from itertools import combinations
        g = cycle_graph(5)
        assert all(any(g.has_edge(a, b) for a, b in combinations(s, 2))
                   for s in combinations(range(5), 3))
        assert independence_number(g) == 2

    def test_greedy_is_valid_and_lower(self):
        for seed in range(5):
            g = gnp_sample(25, 0.2, RandomSource(seed))
            s = greedy_independent_set(g)
            assert all(not g.has_edge(a, b) for i, a in enumerate(s)
                       for b in s[i + 1:])
            assert len(s) <= independence_number(g)


class TestShortCycleProximity:
    def test_triangle(self):
        assert short_cycle_proximity(cycle_graph(3), 0, 3) == 3

    def test_forest_zero(self):
        assert short_cycle_proximity(path_graph(8), 3, 6) == 0

    def test_pendant(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert short_cycle_proximity(g, 1, 3) == 4

    def test_monotone_in_s_and_t(self):
        g = gnp_sample(40, 0.08, RandomSource(8))
        vals = {(s, t): short_cycle_proximity(g, s, t)
                for s in (0, 1, 2) for t in (3, 4, 5, 6)}
        for s in (0, 1):
            for t in (3, 4, 5, 6):
                assert vals[(s, t)] <= vals[(s + 1, t)]
        for s in (0, 1, 2):
            for t in (3, 4, 5):
                assert vals[(s, t)] <= vals[(s, t + 1)]

    def test_length_cap(self):
        with pytest.raises(BudgetExceededError):
            short_cycle_proximity(cycle_graph(5), 0, 20)

    def test_c9_only_long_cycle(self):
        assert short_cycle_proximity(cycle_graph(9), 2, 8) == 0
        assert short_cycle_proximity(cycle_graph(9), 0, 9) == 9

    @pytest.mark.parametrize("s", [-1, -3])
    def test_negative_distance_refused(self, s):
        """s < 0 used to count the s = 0 vertices; the CLI refuses it
        before the call, like t < 3."""
        with pytest.raises(ValueError, match="s must be >= 0"):
            short_cycle_proximity(cycle_graph(3), s, 3)


class TestCodegree:
    def test_k4(self):
        assert codegree_max(complete_graph(4), 1) == (2, 2)

    def test_edgeless(self):
        assert codegree_max(Graph.from_edges(5, []), 2) == (0, 0)

    def test_p5(self):
        assert codegree_max(path_graph(5), 1) == (1, 0)

    @pytest.mark.parametrize("r", [0, -2])
    def test_radius_below_one_refused(self, r):
        """r < 1 used to give (0, 0); the CLI refuses it before the call."""
        with pytest.raises(ValueError, match="r must be >= 1"):
            codegree_max(complete_graph(4), r)

    def test_never_exceeds_delta(self):
        for seed in range(5):
            g = gnp_sample(40, 0.08, RandomSource(seed))
            delta = power_max_degree(table(g, 1), 1).delta
            layer, power = codegree_max(g, 2)
            assert layer <= delta and power <= delta


class TestNeighborhoodEdges:
    def test_star(self):
        g = star_graph(4)
        assert power_neighborhood_edge_count(g, 0, 1) == 0
        assert power_neighborhood_edge_count(g, 0, 2) == 6

    def test_edgeless(self):
        assert power_neighborhood_edge_count(Graph.from_edges(3, []), 0, 2) == 0

    def test_k4(self):
        assert power_neighborhood_edge_count(complete_graph(4), 0, 1) == 3

    def test_matches_explicit_power(self):
        for seed in range(3):
            g = gnp_sample(50, 0.05, RandomSource(seed))
            gp = graph_power(g, 2)
            for v in range(0, 50, 7):
                nv = set(gp.neighbors(v))
                expected = sum(1 for u in nv for w in gp.neighbors(u)
                               if w in nv and w > u)
                assert power_neighborhood_edge_count(g, v, 2) == expected


class TestSandwich:
    def test_deterministic_chain_small(self):
        """clique lower bound <= omega(G^r) <= chi(G^r) <= greedy <= Delta+1."""
        instances = [path_graph(8), cycle_graph(9), star_graph(6),
                     complete_graph(5), petersen()]
        instances += [gnp_sample(30, p, RandomSource(s))
                      for s in range(3) for p in (0.05, 0.12)]
        for g in instances:
            for r in (1, 2, 3):
                gp = graph_power(g, r)
                lb = clique_lower_bound(table(g, r), r)
                omega = max_clique_exact(gp)
                chi = dsatur_chromatic_exact(gp).palette_size
                greedy = greedy_coloring_explicit(gp).palette_size
                delta = power_max_degree(table(g, r), r).delta
                assert lb <= omega <= chi <= greedy <= delta + 1
