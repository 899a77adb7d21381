import sys

import pytest

from graphpower import (BudgetExceededError, Coloring, ForestViolationError,
                        GraphPowerError, RandomSource, coloring, gnp_sample,
                        graph_power, greedy_power_coloring, power_max_degree,
                        two_phase_power_coloring, verify_proper_power_coloring)
from graphpower.coloring import (dsatur_chromatic_exact, dsatur_greedy,
                                 greedy_coloring_explicit, read_coloring,
                                 write_coloring)
from graphpower.graph import DEFAULT_EDGE_CAP, power_table
from graphpower.metrics import PowerDegreeSummary, max_clique_exact

from test_graph import complete_graph, cycle_graph, path_graph, star_graph


def delta(g, r):
    """Delta(G^r), read from the degree table of one kernel pass."""
    return power_max_degree(power_table(g, r, None)[0], r).delta


def two_phase(g, r):
    return two_phase_power_coloring(g, r, *power_table(g, r, DEFAULT_EDGE_CAP))


def verify(g, r, c):
    return verify_proper_power_coloring(graph_power(g, r), c)


class TestGreedy:
    def test_p5_r2(self):
        c = greedy_power_coloring(path_graph(5), 2)
        assert c.colors == [0, 1, 2, 0, 1] and c.palette_size == 3

    def test_k4(self):
        c = greedy_power_coloring(complete_graph(4), 1)
        assert c.palette_size == 4

    def test_edgeless(self):
        c = greedy_power_coloring(path_graph(1), 3)
        assert c.colors == [0]

    def test_custom_order(self):
        c = greedy_power_coloring(path_graph(3), 1, order=[2, 1, 0])
        assert c.colors == [0, 1, 0]

    def test_order_validation(self):
        with pytest.raises(ValueError):
            greedy_power_coloring(path_graph(3), 1, order=[0, 0, 1])

    def test_explicit_order_and_radius_validation(self):
        # an order with a repeat, or one that leaves vertices out
        for order in ([0, 1, 2, 2], [0]):
            with pytest.raises(ValueError, match="permutation of all vertices"):
                greedy_coloring_explicit(path_graph(3), order)
        with pytest.raises(ValueError, match="r must be >= 1"):
            greedy_power_coloring(path_graph(3), 0)

    def test_palette_bound_and_properness(self):
        for seed in range(5):
            g = gnp_sample(60, 0.05, RandomSource(seed))
            for r in (1, 2, 3):
                c = greedy_power_coloring(g, r)
                assert c.palette_size <= delta(g, r) + 1
                assert verify(g, r, c) == (True, None)

    def test_implicit_matches_explicit(self):
        g = gnp_sample(40, 0.07, RandomSource(6))
        for r in (2, 3):
            a = greedy_power_coloring(g, r)
            b = greedy_coloring_explicit(graph_power(g, r), radius=r)
            assert a.colors == b.colors


class TestDsatur:
    def test_c5(self):
        c = dsatur_greedy(cycle_graph(5))
        assert c.palette_size == 3

    def test_exact_c5(self):
        assert dsatur_chromatic_exact(cycle_graph(5))[0] == 3

    def test_exact_c9_square(self):
        assert dsatur_chromatic_exact(graph_power(cycle_graph(9), 2))[0] == 3

    def test_exact_k4(self):
        assert dsatur_chromatic_exact(complete_graph(4))[0] == 4

    def test_exact_bipartite(self):
        assert dsatur_chromatic_exact(star_graph(5))[0] == 2

    def test_exact_edgeless(self):
        from graphpower import Graph
        assert dsatur_chromatic_exact(Graph.from_edges(4, []))[0] == 1

    def test_exact_long_odd_cycle(self):
        # the search goes 1501 frames deep before it refutes 2 colors
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            chi, col = dsatur_chromatic_exact(cycle_graph(1501))
        finally:
            sys.setrecursionlimit(limit)
        assert chi == 3 and col.palette_size == 3
        assert verify(cycle_graph(1501), 1, col) == (
            True, None)

    def test_exact_budget_carries_bounds(self):
        with pytest.raises(BudgetExceededError) as info:
            dsatur_chromatic_exact(cycle_graph(1501), node_budget=100)
        assert (info.value.lower, info.value.upper) == (2, 3)

    def test_exact_between_clique_and_greedy(self):
        for seed in range(5):
            gp = graph_power(gnp_sample(25, 0.1, RandomSource(seed)), 2)
            chi, col = dsatur_chromatic_exact(gp)
            assert max_clique_exact(gp) <= chi <= dsatur_greedy(gp).palette_size
            assert col.palette_size == chi
            assert verify(gp, 1, col) == (True, None)


class TestTwoPhase:
    def test_star_r2(self):
        # K_{1,3}: all squared degrees equal 3 > Delta(G) = 3? no -- S empty
        c = two_phase(star_graph(3), 2)
        assert c.palette_size == 4  # ball of radius 2 is everything
        assert verify(star_graph(3), 2, c) == (True, None)

    def test_p5_r2(self):
        g = path_graph(5)
        c = two_phase(g, 2)
        assert c.palette_size <= delta(g, 1) + 1 == 3
        assert verify(g, 2, c) == (True, None)

    def test_c9_forest_violation(self):
        with pytest.raises(ForestViolationError) as exc:
            two_phase(cycle_graph(9), 2)
        assert sorted(exc.value.cycle) == list(range(9))

    def test_r1_rejected(self):
        with pytest.raises(ValueError):
            two_phase(path_graph(3), 1)

    def test_long_path_r3(self):
        g = path_graph(30)
        c = two_phase(g, 3)
        assert c.palette_size <= delta(g, 2) + 1
        assert verify(g, 3, c) == (True, None)

    def test_palette_bound_is_a_real_error(self, monkeypatch):
        # an understated Delta(G^{r-1}) puts every vertex of P5 in S and
        # leaves room for one color where three are needed
        monkeypatch.setattr(coloring, "power_max_degree",
                            lambda g, r: PowerDegreeSummary(r, 0, 0))
        with pytest.raises(GraphPowerError, match="bound 1") as exc:
            two_phase(path_graph(5), 2)
        assert not isinstance(exc.value, ForestViolationError)

    def test_sparse_random_guarantee(self):
        hit = 0
        for seed in range(20):
            g = gnp_sample(400, 1.2 / 400, RandomSource(seed))
            try:
                c = two_phase(g, 2)
            except ForestViolationError:
                continue
            hit += 1
            assert c.palette_size <= delta(g, 1) + 1
            assert verify(g, 2, c) == (True, None)
        assert hit > 0  # the construction applies on some seeds at this density


class TestVerifier:
    def test_p5_example_true(self):
        ok, _ = verify(
            path_graph(5), 2, Coloring([0, 1, 2, 0, 1], 3, 2))
        assert ok

    def test_p5_example_false(self):
        ok, pair = verify(
            path_graph(5), 2, Coloring([0, 1, 0, 1, 0], 2, 2))
        assert not ok and pair == (0, 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            verify(path_graph(5), 2, Coloring([0], 1, 2))


class TestColoringIO:
    def test_roundtrip(self, tmp_path):
        c = greedy_power_coloring(gnp_sample(30, 0.1, RandomSource(1)), 2)
        p = tmp_path / "c.txt"
        write_coloring(c, p)
        d = read_coloring(p)
        assert d.colors == c.colors
        assert d.palette_size == c.palette_size and d.radius == c.radius

    def test_non_contiguous_ids(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("s 2 1\nc 0 0\nc 2 1\n")
        with pytest.raises(ValueError, match="vertex 1"):
            read_coloring(p)

    def test_negative_color_is_value_error(self, tmp_path):
        # the largest color alone would match the palette of 1
        p = tmp_path / "c.txt"
        p.write_text("s 1 1\nc 0 -1\nc 1 0\n")
        with pytest.raises(ValueError, match="negative color -1"):
            read_coloring(p)

    def test_palette_mismatch_is_value_error(self):
        with pytest.raises(ValueError, match="palette size 5"):
            Coloring([0, 1], 5, 1)

    def test_header_format(self, tmp_path):
        p = tmp_path / "c.txt"
        write_coloring(Coloring([0, 1], 2, 1), p)
        assert p.read_text() == "s 2 1\nc 0 0\nc 1 1\n"
