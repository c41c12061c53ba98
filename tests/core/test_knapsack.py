"""Unit tests for the 0/1 knapsack solvers."""

import random
import tracemalloc

import pytest

from repro.core.knapsack import (
    KnapsackItem,
    KnapsackSolution,
    solve_brute_force,
    solve_exact_dp,
    solve_greedy_ratio,
    solve_greedy_uniform,
    solve_ibarra_kim,
    solve_vector,
)
from repro.errors import OptimizerError


def items_of(*triples):
    return [KnapsackItem(i, w, p) for i, w, p in triples]


class TestValidation:
    def test_negative_profit_rejected(self):
        with pytest.raises(OptimizerError):
            KnapsackItem(1, 1.0, -1.0)

    def test_nan_rejected(self):
        with pytest.raises(OptimizerError):
            KnapsackItem(1, float("nan"), 1.0)

    def test_duplicate_ids_rejected(self):
        items = items_of((1, 1, 1), (1, 2, 2))
        with pytest.raises(OptimizerError):
            solve_exact_dp(items, 10)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(OptimizerError):
            solve_ibarra_kim([], 10, 0.0)
        with pytest.raises(OptimizerError):
            solve_ibarra_kim([], 10, 1.0)

    def test_brute_force_size_limit(self):
        items = items_of(*[(i, 1, 1) for i in range(30)])
        with pytest.raises(OptimizerError):
            solve_brute_force(items, 5)


class TestExactDP:
    def test_empty(self):
        solution = solve_exact_dp([], 10)
        assert solution.chosen == frozenset()
        assert solution.total_profit == 0

    def test_classic_instance(self):
        # weights/profits chosen so greedy-by-density is suboptimal.
        items = items_of((1, 10, 60), (2, 20, 100), (3, 30, 120))
        solution = solve_exact_dp(items, 50)
        assert solution.chosen == frozenset({2, 3})
        assert solution.total_profit == 220

    def test_zero_weight_items_always_in(self):
        items = items_of((1, 0, 5), (2, 100, 50))
        solution = solve_exact_dp(items, 10)
        assert 1 in solution.chosen
        assert 2 not in solution.chosen

    def test_oversize_items_never_in(self):
        items = items_of((1, 11, 1000), (2, 5, 1))
        solution = solve_exact_dp(items, 10)
        assert solution.chosen == frozenset({2})

    def test_real_weights_integer_profits(self):
        items = items_of((1, 1.5, 3), (2, 1.6, 3), (3, 2.9, 5))
        solution = solve_exact_dp(items, 3.1)
        assert solution.chosen == frozenset({1, 2})

    def test_non_integral_profits_rejected_by_default(self):
        items = items_of((1, 1, 1.5))
        with pytest.raises(OptimizerError):
            solve_exact_dp(items, 10)

    def test_matches_brute_force_randomized(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 12)
            items = items_of(
                *[(i, rng.uniform(0.1, 10), rng.randint(0, 10)) for i in range(n)]
            )
            capacity = rng.uniform(0, 25)
            dp = solve_exact_dp(items, capacity)
            bf = solve_brute_force(items, capacity)
            assert dp.total_profit == pytest.approx(bf.total_profit)
            assert dp.total_weight <= capacity + 1e-9


class TestIbarraKim:
    def test_guarantee_on_random_instances(self):
        rng = random.Random(7)
        for epsilon in (0.5, 0.1, 0.05):
            for _ in range(15):
                n = rng.randint(1, 12)
                items = items_of(
                    *[
                        (i, rng.uniform(0.1, 10), rng.uniform(0.1, 10))
                        for i in range(n)
                    ]
                )
                capacity = rng.uniform(0, 25)
                approx = solve_ibarra_kim(items, capacity, epsilon)
                optimal = solve_brute_force(items, capacity)
                assert approx.total_weight <= capacity + 1e-9
                assert approx.total_profit >= (1 - epsilon) * optimal.total_profit - 1e-9

    def test_smaller_epsilon_not_worse(self):
        rng = random.Random(3)
        items = items_of(
            *[(i, rng.uniform(0.5, 5), rng.uniform(1, 10)) for i in range(40)]
        )
        coarse = solve_ibarra_kim(items, 30, 0.5)
        fine = solve_ibarra_kim(items, 30, 0.01)
        assert fine.total_profit >= coarse.total_profit - 1e-9

    def test_empty_and_all_free(self):
        assert solve_ibarra_kim([], 10, 0.1).chosen == frozenset()
        items = items_of((1, 0, 5), (2, -1, 3))
        solution = solve_ibarra_kim(items, 10, 0.1)
        assert solution.chosen == frozenset({1, 2})


class TestGreedyUniform:
    def test_optimal_under_uniform_profits(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 12)
            items = items_of(*[(i, rng.uniform(0.1, 5), 1) for i in range(n)])
            capacity = rng.uniform(0, 15)
            greedy = solve_greedy_uniform(items, capacity)
            optimal = solve_brute_force(items, capacity)
            assert greedy.total_profit == pytest.approx(optimal.total_profit)

    def test_packs_lightest_first(self):
        items = items_of((1, 5, 1), (2, 1, 1), (3, 2, 1))
        solution = solve_greedy_uniform(items, 3.5)
        assert solution.chosen == frozenset({2, 3})


class TestGreedyRatio:
    def test_half_approximation_guarantee(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 12)
            items = items_of(
                *[(i, rng.uniform(0.1, 10), rng.uniform(0.1, 10)) for i in range(n)]
            )
            capacity = rng.uniform(0.5, 25)
            greedy = solve_greedy_ratio(items, capacity)
            optimal = solve_brute_force(items, capacity)
            assert greedy.total_weight <= capacity + 1e-9
            assert greedy.total_profit >= 0.5 * optimal.total_profit - 1e-9


class TestSolutionHelper:
    def test_of_computes_totals(self):
        items = items_of((1, 2, 3), (2, 4, 5))
        solution = KnapsackSolution.of(items, {2})
        assert solution.total_weight == 4
        assert solution.total_profit == 5


class TestExactDPMemory:
    """ISSUE 3 satellite: the DP must not allocate an n × (P+1) matrix.

    The first implementation reconstructed plans from a list-of-lists
    ``take`` matrix: at n = 600 items of profit 167 (total profit ~100k,
    the exact-DP ceiling) that is ~6·10⁷ boolean slots ≈ 480 MB.  The
    sparse-frontier DP keeps one state per achievable profit (≤ 601
    here) plus an append-only parent arena, so peak traced allocation
    must stay in the low megabytes — while the plan stays optimal.
    """

    def test_peak_memory_and_optimality(self):
        rng = random.Random(23)
        items = items_of(*[(i, rng.uniform(0.1, 5.0), 167) for i in range(600)])
        capacity = 300.0
        tracemalloc.start()
        try:
            solution = solve_exact_dp(items, capacity)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 1024 * 1024, f"DP peak memory {peak / 1e6:.1f} MB"
        # Uniform profits make the ascending-weight greedy an optimality
        # oracle at any size (§5.2).
        oracle = solve_greedy_uniform(items, capacity)
        assert solution.total_profit == pytest.approx(oracle.total_profit)
        assert solution.total_weight <= capacity + 1e-9

    def test_boundary_feasible_state_kept(self):
        """A kept set landing exactly on the capacity must stay feasible.

        ``capacity - w`` rounds below an exact frontier weight here
        (6.67 - 2.97 < 3.7 in binary floating point even though
        3.7 + 2.97 == 6.67), so a prefilter bisecting on the subtraction
        silently drops the optimum.
        """
        items = items_of(
            (1, 0.73, 2), (2, 2.02, 5), (3, 0.95, 3), (4, 2.97, 2), (5, 6.0, 1)
        )
        dp = solve_exact_dp(items, 6.67)
        bf = solve_brute_force(items, 6.67)
        assert dp.total_profit == pytest.approx(bf.total_profit) == 12
        assert dp.total_weight <= 6.67 + 1e-12

    def test_matches_brute_force_after_rewrite(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 12)
            items = items_of(
                *[(i, rng.uniform(-1, 10), rng.randint(0, 8)) for i in range(n)]
            )
            capacity = rng.uniform(0, 20)
            dp = solve_exact_dp(items, capacity)
            bf = solve_brute_force(items, capacity)
            assert dp.total_profit == pytest.approx(bf.total_profit)
            assert dp.total_weight <= capacity + 1e-9


class TestVectorSolver:
    def test_matches_brute_force_randomized(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(1, 12)
            weights = [rng.uniform(-1, 10) for _ in range(n)]
            profits = [float(rng.randint(0, 9)) for _ in range(n)]
            capacity = rng.uniform(0, 25)
            items = items_of(*[(i, weights[i], profits[i]) for i in range(n)])
            oracle = solve_brute_force(items, capacity)
            solution = solve_vector(weights, profits, capacity)
            kept_profit = sum(profits) - solution.refresh_profit
            assert kept_profit == pytest.approx(oracle.total_profit)
            assert solution.kept_weight <= capacity + 1e-9

    def test_zero_width_candidates_always_kept(self):
        solution = solve_vector([0.0, -1.0, 5.0], [3.0, 4.0, 9.0], 1.0)
        assert solution.refresh == (2,)
        assert solution.refresh_profit == 9.0

    def test_over_capacity_candidates_always_refreshed(self):
        solution = solve_vector([11.0, 2.0], [1000.0, 1.0], 10.0)
        assert 0 in solution.refresh
        assert 1 not in solution.refresh

    def test_uniform_with_order_matches_sorted(self):
        rng = random.Random(3)
        weights = [rng.uniform(0, 4) for _ in range(40)]
        profits = [2.0] * 40
        order = sorted(range(40), key=lambda k: (weights[k], k))
        with_order = solve_vector(weights, profits, 20.0, order=order)
        without = solve_vector(weights, profits, 20.0)
        assert set(with_order.refresh) == set(without.refresh)

    def test_approx_certificate(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 12)
            weights = [rng.uniform(0.1, 10) for _ in range(n)]
            profits = [rng.uniform(0.1, 10) for _ in range(n)]
            capacity = rng.uniform(0.5, 25)
            items = items_of(*[(i, weights[i], profits[i]) for i in range(n)])
            oracle = solve_brute_force(items, capacity)
            solution = solve_vector(weights, profits, capacity, epsilon=0.1)
            kept_profit = sum(profits) - solution.refresh_profit
            assert kept_profit >= 0.9 * oracle.total_profit - 1e-9
            assert solution.kept_weight <= capacity + 1e-9

    def test_validation(self):
        with pytest.raises(OptimizerError):
            solve_vector([1.0], [-1.0], 10.0)
        with pytest.raises(OptimizerError):
            solve_vector([float("nan")], [1.0], 10.0)
        with pytest.raises(OptimizerError):
            solve_vector([1.0], [1.0], float("nan"))
        with pytest.raises(OptimizerError):
            # Non-integral profits that cannot all fit force the approx
            # branch, which must reject an out-of-range epsilon.
            solve_vector([1.0, 1.2], [1.5, 3.25], 1.5, epsilon=1.5)

    def test_empty(self):
        solution = solve_vector([], [], 5.0)
        assert solution.refresh == ()
        assert solution.refresh_profit == 0.0
