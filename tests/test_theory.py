import math
from fractions import Fraction
from itertools import product

import pytest

from graphpower import (BudgetExceededError, DomainError, aks_chi_bound,
                        d_star, degree_sum_pmf, iterated_log, janson_k0,
                        janson_mu, layer_entropy, lemma2_min_exact,
                        lemma2_min_lagrange, log_u, u_value)
from graphpower.theory import DEFAULT_ENUM_WORK_CAP, degree_pmf

from compositions import entropy_min_enumerated, feasible_compositions


def entropy_min_oracle(big_d, r):
    """Independent brute force: every nonnegative r-tuple summing to D."""
    best = float("inf")
    arg = None
    for ell in product(range(big_d + 1), repeat=r):
        if sum(ell) != big_d:
            continue
        val = 0.0
        prev = 1
        ok = True
        for x in ell:
            if x:
                if prev == 0:
                    ok = False
                    break
                val += x * math.log(x / prev)
            prev = x
        if ok and (val < best or (val == best and (arg is None or ell < arg))):
            best, arg = val, ell
    return best, arg


class TestIteratedLog:
    def test_identity(self):
        assert iterated_log(7.5, 0) == 7.5

    def test_double(self):
        assert iterated_log(math.exp(math.e), 2) == pytest.approx(1.0)

    def test_million(self):
        assert iterated_log(10 ** 6, 2) == pytest.approx(
            math.log(math.log(10 ** 6)), rel=1e-12)
        assert iterated_log(10 ** 6, 2) == pytest.approx(2.626, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            iterated_log(1.0, 2)  # log(1) = 0, second log undefined
        with pytest.raises(DomainError, match="k must be >= 0"):
            iterated_log(2.0, -1)
        for k in (0, 2):
            with pytest.raises(DomainError, match="NaN"):
                iterated_log(math.nan, k)

    def test_inf_at_once(self):
        # log(inf) = inf: no k, however large, moves it
        for k in (0, 1, 10 ** 400):
            assert iterated_log(math.inf, k) == math.inf
        with pytest.raises(DomainError, match="k must be >= 0"):
            iterated_log(math.inf, -1)


class TestDStar:
    def test_tower(self):
        n = math.exp(math.exp(math.e))
        assert d_star(n, 2) == pytest.approx(math.exp(math.e), rel=1e-9)

    def test_r1_small(self):
        assert d_star(math.e ** math.e, 1) == pytest.approx(math.e)

    def test_million(self):
        assert d_star(10 ** 6, 1) == pytest.approx(5.261, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            d_star(2, 3)


class TestLayerWeight:
    def test_zero_profile(self):
        assert u_value((0,), 1.0) == pytest.approx(math.exp(-1))

    @pytest.mark.parametrize("d", [0.0, 0.5, 2.0, 30.0, 700.0])
    def test_empty_profile_matches_pmf(self, d):
        # r = 0 leaves only l_0 = 1: degree 0 with certainty
        assert u_value((), d) == degree_pmf(d, 0, 0)[0] == 1.0
        assert log_u((), d) == 0.0

    def test_poisson_reduction(self):
        for d in (0.5, 1.0, 2.0, 5.0):
            for big_d in range(61):
                poisson = math.exp(-d) * d ** big_d / math.factorial(big_d)
                assert u_value((big_d,), d) == pytest.approx(poisson, rel=1e-10)

    def test_two_layer_example(self):
        assert u_value((1, 1), 1.0) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_infeasible(self):
        assert u_value((0, 3), 2.0) == 0.0
        assert log_u((0, 3), 2.0) == float("-inf")

    def test_negative_layer_refused(self):
        with pytest.raises(DomainError, match="nonnegative"):
            u_value((-1,), 2.0)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -1.0])
    def test_degree_outside_domain_refused(self, d):
        with pytest.raises(DomainError, match="finite and >= 0"):
            log_u((1,), d)
        with pytest.raises(DomainError):
            u_value((1, 1), d)


class TestPmf:
    def test_r1_at_zero(self):
        assert degree_sum_pmf(1.0, 1, 0) == pytest.approx(math.exp(-1))

    def test_r1_normalization(self):
        for d in (0.5, 1.0, 2.0, 5.0):
            total = sum(degree_sum_pmf(d, 1, big_d) for big_d in range(61))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_r2_r3_normalization(self):
        # the branching-process structure keeps the total mass at 1
        for r in (2, 3):
            total = sum(degree_sum_pmf(1.2, r, big_d) for big_d in range(61))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_d_zero_is_point_mass(self):
        # the empty graph: every vertex has G^r-degree 0
        assert degree_sum_pmf(0.0, 2, 0) == 1.0
        assert degree_sum_pmf(0.0, 2, 3) == 0.0

    @pytest.mark.parametrize("d,r", [(0.5, 1), (1.0, 2), (1.2, 3), (2.0, 2),
                                     (2.0, 3), (5.0, 1), (5.0, 2), (0.7, 4)])
    def test_recursion_matches_enumeration(self, d, r):
        pmf = degree_pmf(d, r, 80)
        for big_d, value in enumerate(pmf):
            oracle = sum(u_value(ell, d)
                         for ell in feasible_compositions(big_d, r))
            assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_long_horizon_sums_to_one(self):
        assert sum(degree_pmf(2.0, 3, 400)) == pytest.approx(1.0, abs=1e-12)

    def test_lookup_matches_enumeration(self):
        oracle = sum(u_value(ell, 1.0) for ell in feasible_compositions(61, 2))
        assert degree_sum_pmf(1.0, 2, 61) == pytest.approx(oracle, rel=1e-12)

    def test_negative_degree(self):
        assert degree_sum_pmf(2.0, 2, -1) == 0.0

    def test_far_negative_degree_costs_no_work(self):
        # the work cap once squared the negative horizon and refused it
        assert degree_sum_pmf(2.0, 2, -10 ** 6) == 0.0
        assert degree_pmf(2.0, 2, -10 ** 6) == []

    @pytest.mark.parametrize("d,r,big_d", [(math.nan, 2, -1), (-1.0, 2, -5),
                                           (2.0, -3, -1), (800.0, 1, -1)])
    def test_negative_degree_checks_d_and_r_first(self, d, r, big_d):
        # the same d and r are refused at D = 0
        for at in (big_d, 0):
            with pytest.raises(DomainError):
                degree_sum_pmf(d, r, at)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_degree_refused(self, d):
        with pytest.raises(DomainError, match="finite"):
            degree_pmf(d, 2, 3)

    def test_negative_radius_refused(self):
        with pytest.raises(DomainError, match="r must be >= 0"):
            degree_pmf(2.0, -1, 0)
        assert degree_pmf(2.0, 0, 2) == [1.0, 0.0, 0.0]

    def test_work_bound(self):
        # max(r, 1) (top+1)^2 above DEFAULT_ENUM_WORK_CAP: refused before any
        # work; at r = 0 the charge once read 0, and a 10^9-entry list was built
        with pytest.raises(BudgetExceededError, match="work cap"):
            degree_pmf(2.0, 2, 10 ** 8)
        with pytest.raises(BudgetExceededError, match="at r=0"):
            degree_pmf(2.0, 0, 10 ** 7)
        with pytest.raises(BudgetExceededError):
            degree_sum_pmf(1.0, 5, 1000)

    def test_underflow_refused(self):
        # e^-d is subnormal from d ~ 708; the recursion would return 0
        with pytest.raises(DomainError):
            degree_pmf(800.0, 1, 60)
        assert degree_pmf(700.0, 1, 0)[0] == pytest.approx(math.exp(-700))


class TestLemma2Exact:
    def test_r1(self):
        for big_d in (1, 2, 5, 17):
            val, arg = lemma2_min_exact(big_d, 1)
            assert val == pytest.approx(big_d * math.log(big_d))
            assert arg.ell == (big_d,)

    def test_d4_r2(self):
        val, arg = lemma2_min_exact(4, 2)
        assert val == pytest.approx(2 * math.log(2))
        assert arg.ell == (2, 2)

    def test_d1_r2(self):
        val, arg = lemma2_min_exact(1, 2)
        assert val == 0.0 and arg.ell == (1, 0)

    def test_matches_bruteforce_oracle(self):
        for r in (1, 2, 3):
            for big_d in (1, 2, 3, 5, 8, 12):
                val, arg = lemma2_min_exact(big_d, r)
                oval, oarg = entropy_min_oracle(big_d, r)
                assert val == pytest.approx(oval)
                assert arg.ell == oarg

    def test_monotone_in_r(self):
        for big_d in (3, 7, 20, 50):
            vals = [lemma2_min_exact(big_d, r)[0] for r in (1, 2, 3)]
            assert vals[0] >= vals[1] >= vals[2]

    def test_never_beats_any_profile(self):
        import random
        rng = random.Random(0)
        for _ in range(50):
            r = rng.randint(1, 3)
            big_d = rng.randint(1, 25)
            val, _ = lemma2_min_exact(big_d, r)
            parts = sorted(rng.sample(range(1, big_d + 1), min(r - 1, big_d - 1)))
            ell = []
            prev = 0
            for c in parts:
                ell.append(c - prev)
                prev = c
            ell.append(big_d - prev)
            ell += [0] * (r - len(ell))
            assert val <= layer_entropy(ell) + 1e-12

    @pytest.mark.parametrize("r,sizes", [(1, range(201)), (2, range(201)),
                                         (3, range(201)),
                                         (4, [*range(61), 100, 200]),
                                         (5, range(31)), (6, range(21)),
                                         (400, [12])])
    def test_equals_enumeration_bit_for_bit(self, r, sizes):
        for big_d in sizes:
            val, arg = lemma2_min_exact(big_d, r)
            assert (val, arg.ell) == entropy_min_enumerated(big_d, r)

    def test_large_inputs_answered(self):
        # beyond what enumerating every composition fits in the work cap;
        # (16, 400) was refused at once while each zero-padded profile was
        # charged r units
        for big_d, r in ((3000, 3), (300, 4), (16, 400)):
            val, arg = lemma2_min_exact(big_d, r)
            assert sum(arg.ell) == big_d and len(arg.ell) == r
            assert val == layer_entropy(arg.ell) < math.inf
            assert lemma2_min_lagrange(big_d, r).value <= val + 1e-9

    def test_r2_huge_d_takes_the_empty_cut(self):
        # r = 2 has one prefix, the empty one; range(1, D) was once copied
        # to yield it, which overflowed at D = 10^20
        val, arg = lemma2_min_exact(10 ** 20, 2)
        assert sum(arg.ell) == 10 ** 20 and len(arg.ell) == 2
        assert val == layer_entropy(arg.ell) < math.inf

    # the forward difference of the tail cost once lost every bit past
    # D of about 10^15: the value over the continuous minimum read 1.006
    # at 10^16 and 1.30 at 10^18
    @pytest.mark.parametrize("big_d", [10 ** e for e in (12, 14, 16, 18, 20)])
    def test_r2_large_d_meets_the_continuous_minimum(self, big_d):
        val, _ = lemma2_min_exact(big_d, 2)
        assert abs(val / lemma2_min_lagrange(big_d, 2).value - 1) <= 1e-12

    def test_work_cap_refuses_at_once(self):
        with pytest.raises(BudgetExceededError, match="work cap"):
            lemma2_min_exact(10 ** 6, 4)
        with pytest.raises(BudgetExceededError, match="work cap"):
            lemma2_min_exact(40, 40)   # 2^39 profiles

    @pytest.mark.parametrize("big_d,r", [
        (0, DEFAULT_ENUM_WORK_CAP + 1),
        (5, DEFAULT_ENUM_WORK_CAP + 1),
        (2, DEFAULT_ENUM_WORK_CAP + 1),
    ])
    def test_returned_profile_is_charged_its_length(self, big_d, r):
        # it would hold r entries, 40 MB at r = 5 * 10^6
        with pytest.raises(BudgetExceededError, match="work cap"):
            lemma2_min_exact(big_d, r)

    def test_zero_padded_profiles_answered(self):
        assert lemma2_min_exact(0, 10)[1].ell == (0,) * 10
        val, arg = lemma2_min_exact(2, 1000)
        assert arg.ell[:2] in ((1, 1), (2, 0)) and sum(arg.ell) == 2
        assert val == layer_entropy(arg.ell)

    @pytest.mark.parametrize("big_d,r", [(-1, 2), (4, 0)])
    def test_invalid(self, big_d, r):
        with pytest.raises(DomainError):
            lemma2_min_exact(big_d, r)

    def test_r2_lower_bound_constant(self):
        # D log log D - c D lower bound with c <= 5 on a grid
        worst = 0.0
        for big_d in (100, 300, 1000, 3000, 10000):
            val, _ = lemma2_min_exact(big_d, 2)
            c = (big_d * math.log(math.log(big_d)) - val) / big_d
            worst = max(worst, c)
        assert worst <= 5.0


class TestLemma2Lagrange:
    def test_fixed_point_relations(self):
        for r in (1, 2, 3):
            for big_d in (4, 100, 10 ** 4):
                sol = lemma2_min_lagrange(big_d, r)
                assert sol.residual <= 1e-8 * max(1.0, big_d)
                p = sol.ratios
                for i in range(r - 1):
                    assert p[i] == pytest.approx(p[-1] * math.exp(p[i + 1]),
                                                 rel=1e-6)
                assert sum(sol.ell) == pytest.approx(big_d, rel=1e-8)

    def test_relaxation_below_exact(self):
        for r in (1, 2, 3):
            for big_d in (4, 10, 40):
                assert (lemma2_min_lagrange(big_d, r).value
                        <= lemma2_min_exact(big_d, r)[0] + 1e-9)

    def test_d4_r2(self):
        sol = lemma2_min_lagrange(4, 2)
        assert sol.value <= 2 * math.log(2) + 1e-9

    def test_last_ratio_window(self):
        big_d = 10 ** 6
        sol = lemma2_min_lagrange(big_d, 2)
        p2 = sol.ratios[-1]
        logd = math.log(big_d)
        assert p2 <= logd + 1e-9
        c = (logd - p2) / math.log(logd)
        assert 0 <= c <= 3  # p_r sits within c*loglogD of logD

    # the bisection once started at 1e-12 and stopped at an absolute 1e-10:
    # D = 1e-20 gave layers summing to 5.9e-11, and D = 1e-9 was 6.8% off
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("big_d", [1e-20, 1e-9, 1e-6, 2e-4])
    def test_small_d_meets_the_constraint(self, big_d, r):
        sol = lemma2_min_lagrange(big_d, r)
        assert abs(sum(sol.ell) - big_d) <= 64 * math.ulp(big_d)
        if r == 1:
            assert sol.value == pytest.approx(big_d * math.log(big_d),
                                              rel=1e-12)

    # an overflow sentinel at 1e300 once refused D = 1e305, whose minimum
    # D log D fits a float
    def test_r1_answers_the_float_range(self):
        for big_d in (1e300, 1e305):
            assert lemma2_min_lagrange(big_d, 1).value == pytest.approx(
                big_d * math.log(big_d), rel=1e-12)
        with pytest.raises(DomainError, match="overflows a float"):
            lemma2_min_lagrange(1e308, 1)

    # nothing bounded r: r = 10^6 once took 14 s at D = 5
    def test_huge_r_refused_at_once(self):
        with pytest.raises(BudgetExceededError, match="work cap"):
            lemma2_min_lagrange(5, DEFAULT_ENUM_WORK_CAP + 1)

    # theory-eval's r = 4 grid reaches 10^6; the first refusals on a 10^0.1
    # grid of D lie above each of these
    @pytest.mark.parametrize("r,big_d", [(2, 1e31), (3, 4e8), (4, 1e6),
                                         (5, 1e6)])
    def test_answered_below_the_first_refusal(self, r, big_d):
        sol = lemma2_min_lagrange(big_d, r)
        assert sol.residual <= max(1e-8, 64 * math.ulp(big_d))
        assert sum(sol.ell) == pytest.approx(big_d, rel=1e-8)

    # the answer was once read at the bracket's top alone, which refused
    # the first of these D on the 10^0.1 grid at each r although the
    # bottom end met the tolerance
    @pytest.mark.parametrize("r,k", [(2, 318), (3, 90), (4, 74), (5, 63)])
    def test_answered_at_the_nearer_end(self, r, k):
        big_d = 10 ** (k / 10)
        sol = lemma2_min_lagrange(big_d, r)
        assert abs(sum(sol.ell) - big_d) <= max(1e-8, 64 * math.ulp(big_d))

    def test_invalid(self):
        with pytest.raises(DomainError):
            lemma2_min_lagrange(0, 2)


class TestJanson:
    def test_k0_example(self):
        assert janson_k0(10 ** 6, 100.0, 1) == pytest.approx(460517.0, abs=0.1)

    def test_alpha_constant(self):
        # the constant 10 r! is 20 at r = 2
        assert janson_k0(10, math.e, 2) == pytest.approx(20 * 10 / math.e ** 2)

    def test_k0_unit_log(self):
        assert janson_k0(1000, math.e, 1) == pytest.approx(10 * 1000 / math.e)

    def test_k0_domain(self):
        with pytest.raises(DomainError):
            janson_k0(10, 1.0, 1)

    @pytest.mark.parametrize("d", [1.5, 2.0, math.e, 5.0, 10.0, 100.0])
    def test_k0_log_space_matches_exact_form(self, d):
        # the log-space value against 10 r! n log d / d^r in exact rationals
        # (log d rounded once), and against that formula in floats
        for n in (1, 1000, 10 ** 9):
            for r in range(1, 31):
                exact = (Fraction(10 * math.factorial(r) * n)
                         * Fraction(math.log(d)) / Fraction(d) ** r)
                floats = 10 * math.factorial(r) * n * math.log(d) / d ** r
                got = janson_k0(n, d, r)
                assert got == pytest.approx(float(exact), rel=1e-12)
                assert got == pytest.approx(floats, rel=1e-12)

    def test_k0_float_range(self):
        # 10 * 200! once overflowed on its way to a value that fits a float
        assert janson_k0(1000, 10.0, 200) == pytest.approx(1.8159518e179,
                                                           rel=1e-7)
        with pytest.raises(DomainError, match="overflows a float"):
            janson_k0(1000, 10.0, 400)

    def test_mu_k2_r1(self):
        assert janson_mu(500, 3.0, 1, 2) == pytest.approx(3.0 / 500)

    def test_mu_small_k(self):
        assert janson_mu(500, 3.0, 1, 0) == 0.0
        assert janson_mu(500, 3.0, 1, 1) == 0.0

    def test_mu_domain(self):
        for k in (-1, -3, math.nan):
            with pytest.raises(DomainError, match="k must be"):
                janson_mu(500, 3.0, 1, k)

    def test_mu_example(self):
        assert janson_mu(1000, 10.0, 1, 100) == pytest.approx(49.5, rel=1e-9)

    def test_mu_subnormal_d(self):
        # p = d / n once underflowed to 0 and ended in log(0)'s ValueError
        assert janson_mu(12, 5e-324, 2, 3) == 0.0

    def test_mu_monotone(self):
        base = janson_mu(1000, 10.0, 2, 100)
        assert janson_mu(1000, 10.0, 2, 200) > base
        assert janson_mu(1000, 20.0, 2, 100) > base
        # monotone in n at fixed edge probability p (d scales with n)
        assert janson_mu(2000, 20.0, 2, 100) > base


class TestAks:
    def test_unit(self):
        assert aks_chi_bound(100, math.e ** 2) == pytest.approx(50.0)

    def test_boundary(self):
        assert aks_chi_bound(64, 64) == pytest.approx(64 / math.log(64))

    def test_example(self):
        assert aks_chi_bound(10 ** 4, 10 ** 2) == pytest.approx(2171.5, abs=0.1)

    def test_constant_scales(self):
        assert aks_chi_bound(100, math.e ** 2, c=3.0) == pytest.approx(150.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            aks_chi_bound(10, 1.5)
        with pytest.raises(DomainError):
            aks_chi_bound(10, 20)
        for delta, t in ((math.inf, 10), (math.inf, math.inf), (100, math.inf),
                         (100, -math.inf), (-math.inf, 10)):
            with pytest.raises(DomainError):
                aks_chi_bound(delta, t)
        for c in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(DomainError, match="c must be"):
                aks_chi_bound(100, 10, c=c)

    def test_float_range(self):
        # each input is finite, the bound is not; it once came back as inf
        with pytest.raises(DomainError, match="overflows a float"):
            aks_chi_bound(1e308, 2, c=1e308)


class TestParamsValidation:
    @pytest.mark.parametrize("n,d,r", [(0, 2.0, 2), (10, 0.0, 2),
                                       (10, math.nan, 2), (10, 2.0, 0)])
    def test_outside_domain(self, n, d, r):
        for call in (lambda: janson_k0(n, d, r), lambda: janson_mu(n, d, r, 5)):
            with pytest.raises(DomainError, match="require n >= 1"):
                call()

    def test_derived_quantities(self):
        # mu reads p = d/n: C(2,2) C(998, 1) p^2 with p = 0.004
        assert janson_mu(1000, 4.0, 2, 2) == pytest.approx(998 * 0.004 ** 2)
