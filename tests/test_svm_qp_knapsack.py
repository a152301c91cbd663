"""Unit tests for the box-QP and quadratic-knapsack solvers."""

import numpy as np
import pytest

from repro.svm.knapsack import QuadraticKnapsack, solve_quadratic_knapsack
from repro.svm.qp import projected_gradient_residual, solve_box_qp


def random_psd(rng, n, rank=None):
    rank = rank if rank is not None else n
    A = rng.normal(size=(n, rank))
    return A @ A.T


class TestSolveBoxQP:
    def test_unconstrained_interior_solution(self, rng):
        # Strongly convex with minimizer well inside the box.
        H = random_psd(rng, 5) + 5.0 * np.eye(5)
        x_star = rng.uniform(0.3, 0.7, size=5)
        d = -H @ x_star
        result = solve_box_qp(H, d, 0.0, 1.0)
        assert result.converged
        np.testing.assert_allclose(result.x, x_star, atol=1e-6)

    def test_active_bounds(self):
        # min (x-2)^2 on [0, 1] -> x = 1; min (x+3)^2 -> x = 0.
        H = np.eye(2) * 2.0
        d = np.array([-4.0, 6.0])
        result = solve_box_qp(H, d, 0.0, 1.0)
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-10)

    def test_kkt_residual_reported(self, rng):
        H = random_psd(rng, 8) + np.eye(8)
        d = rng.normal(size=8)
        result = solve_box_qp(H, d, 0.0, 10.0, tol=1e-10)
        assert result.kkt_residual <= 1e-10

    def test_warm_start_converges_faster(self, rng):
        H = random_psd(rng, 30) + 0.1 * np.eye(30)
        d = rng.normal(size=30)
        cold = solve_box_qp(H, d, 0.0, 5.0)
        warm = solve_box_qp(H, d, 0.0, 5.0, x0=cold.x)
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    def test_degenerate_zero_diagonal_linear_coordinate(self):
        # Coordinate with H_ii = 0: objective linear, pushes to a bound.
        H = np.zeros((2, 2))
        H[0, 0] = 2.0
        d = np.array([0.0, -3.0])  # second coordinate wants upper bound
        result = solve_box_qp(H, d, 0.0, 4.0)
        assert result.x[1] == pytest.approx(4.0)

    def test_subnormal_hessian_steps_like_a_zero_one(self):
        # 1 / 5e-324 overflows; the solver must still take a finite step.
        H = np.full((2, 2), 5e-324)
        result = solve_box_qp(H, np.ones(2), 0.0, 10.0, x0=np.ones(2))
        assert result.converged
        np.testing.assert_array_equal(result.x, [0.0, 0.0])

    def test_degenerate_coupled_pair_near_a_bound_converges(self):
        # The minimizer is x = 0 with zero gradient there.  Holding the
        # coordinate with g > 0 on a short diagonal step made the pair
        # zigzag towards 0 and run out its 500-sweep budget.
        H = np.array([[9.25, -15.0], [-15.0, 25.0]])
        result = solve_box_qp(H, np.zeros(2), 0.0, 0.5, x0=np.array([1e-3, 5e-4]))
        assert result.converged and result.iterations <= 2
        np.testing.assert_allclose(result.x, 0.0, atol=1e-12)

    def test_matches_brute_force_on_small_grid(self, rng):
        H = random_psd(rng, 2) + np.eye(2)
        d = rng.normal(size=2)
        result = solve_box_qp(H, d, 0.0, 1.0, tol=1e-12)
        grid = np.linspace(0, 1, 201)
        best = min(
            0.5 * np.array([a, b]) @ H @ np.array([a, b]) + d @ np.array([a, b])
            for a in grid
            for b in grid
        )
        assert result.objective <= best + 1e-6

    def test_rejects_nonsquare(self, rng):
        with pytest.raises(ValueError, match="square"):
            solve_box_qp(rng.normal(size=(3, 2)), np.zeros(3))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower bound exceeds"):
            solve_box_qp(np.eye(2), np.zeros(2), 1.0, 0.0)

    def test_per_coordinate_bounds(self):
        H = np.eye(2) * 2.0
        d = np.array([-10.0, -10.0])
        result = solve_box_qp(H, d, np.array([0.0, 0.0]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(result.x, [1.0, 3.0])

    def test_x0_projected_into_box(self):
        result = solve_box_qp(np.eye(2), np.zeros(2), 0.0, 1.0, x0=[5.0, -5.0])
        assert np.all(result.x >= 0.0) and np.all(result.x <= 1.0)


def lbfgsb_objective(H, d, lower, upper, x0):
    """Reference optimum from scipy's L-BFGS-B, run to tight tolerances."""
    from scipy.optimize import minimize

    n = H.shape[0]
    lo = np.broadcast_to(lower, (n,))
    hi = np.broadcast_to(upper, (n,))
    bounds = [(a, None if np.isinf(b) else b) for a, b in zip(lo, hi)]
    ref = minimize(
        lambda x: (0.5 * x @ H @ x + d @ x, H @ x + d),
        np.clip(x0, lo, hi),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000, "maxcor": 50},
    )
    return float(ref.fun)


def hlin_dual(rng, n=75, k=64, C=50.0):
    """An H-lin local dual QP (rank k + 1 < n), as HorizontalLinearWorker builds it."""
    X = rng.normal(size=(n, k))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    X += 0.8 * y[:, None]
    a, rho = 1.0 / 8 + 100.0, 100.0
    xy = X * y[:, None]
    H = xy @ xy.T / a + np.outer(y, y) / rho
    u = rng.normal(scale=0.1, size=k)
    d = (rho / a) * (y * (X @ u)) + 0.3 * y - 1.0
    return H, d, C


class TestAgainstLBFGSB:
    """KKT within ``tol`` and an objective no worse than L-BFGS-B's."""

    TOL = 1e-8

    def check(self, H, d, lower, upper, x0=None):
        result = solve_box_qp(H, d, lower, upper, x0=x0, tol=self.TOL)
        start = np.zeros(H.shape[0]) if x0 is None else np.asarray(x0, dtype=float)
        reference = lbfgsb_objective(H, d, lower, upper, start)
        assert result.converged
        assert result.kkt_residual <= self.TOL
        assert result.objective <= reference + 1e-9 * max(1.0, abs(reference))
        lo = np.broadcast_to(lower, H.shape[:1])
        hi = np.broadcast_to(upper, H.shape[:1])
        assert np.all(result.x >= lo) and np.all(result.x <= hi)
        return result

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient_hlin_dual_cold(self, seed):
        H, d, C = hlin_dual(np.random.default_rng(seed))
        assert np.linalg.matrix_rank(H) < H.shape[0]
        self.check(H, d, 0.0, C)

    def test_rank_deficient_hlin_dual_warm(self, rng):
        H, d, C = hlin_dual(rng)
        first = solve_box_qp(H, d, 0.0, C)
        d2 = d + rng.normal(scale=0.05, size=d.shape[0])
        warm = self.check(H, d2, 0.0, C, x0=first.x)
        assert warm.iterations <= 5

    def test_zero_diagonal_coordinates(self, rng):
        A = rng.normal(size=(6, 4))
        H = np.zeros((8, 8))
        H[:6, :6] = A @ A.T  # coordinates 6 and 7 are linear
        d = rng.normal(size=8)
        d[6], d[7] = -2.0, 3.0
        result = self.check(H, d, 0.0, 5.0)
        assert result.x[6] == 5.0 and result.x[7] == 0.0

    def test_unbounded_above(self, rng):
        H = random_psd(rng, 10, rank=6) + 0.01 * np.eye(10)
        d = rng.normal(size=10)
        result = self.check(H, d, 0.0, np.inf)
        assert np.any(result.x > 0.0)

    def test_singular_free_block_on_a_bound(self):
        # Rank 2 of 5: the free block stays singular while coordinates on
        # their bounds are pushed out of the box by its Newton step.
        H = np.array(
            [
                [19.5625, 3.0, -6.5, -25.40625, 5.75],
                [3.0, 1.0, 0.0, -4.0, 3.0],
                [-6.5, 0.0, 4.0, 8.25, 2.0],
                [-25.40625, -4.0, 8.25, 33.015625, -7.875],
                [5.75, 3.0, 2.0, -7.875, 10.0],
            ]
        )
        d = np.array([0.1, 0.1, 0.1, 0.6, 0.1])
        result = self.check(H, d, 0.0, np.inf, x0=np.ones(5))
        np.testing.assert_array_equal(result.x, np.zeros(5))

    def test_badly_scaled_singular_block(self):
        # H ~ 1e-24 against a gradient ~ 1: the shifted Newton step is
        # ~1e36 long, so backtracking must land on a breakpoint.
        H = np.full((2, 2), 1e-24)
        d = np.array([0.1, 1.1])
        result = self.check(H, d, 0.0, np.inf, x0=np.ones(2))
        np.testing.assert_array_equal(result.x, np.zeros(2))

    def test_x0_outside_box(self, rng):
        H = random_psd(rng, 12, rank=8)
        d = rng.normal(size=12)
        self.check(H, d, -1.0, 2.0, x0=rng.normal(scale=10.0, size=12))

    @pytest.mark.parametrize("h, dd", [(2.0, -3.0), (2.0, 10.0), (0.5, -100.0), (0.0, -1.0)])
    def test_single_coordinate(self, h, dd):
        result = self.check(np.array([[h]]), np.array([dd]), 0.0, 4.0)
        expected = 4.0 if h == 0.0 else min(max(-dd / h, 0.0), 4.0)
        assert result.x[0] == pytest.approx(expected)

    def test_every_coordinate_at_a_bound(self, rng):
        H = random_psd(rng, 10, rank=5)
        signs = np.where(rng.random(10) < 0.5, -1.0, 1.0)
        d = signs * 1e3  # the linear term dominates: each coordinate pinned
        result = self.check(H, d, 0.0, 1.0)
        np.testing.assert_array_equal(result.x, np.where(signs < 0, 1.0, 0.0))


class TestUnconvergedSolves:
    def test_budget_exhaustion_is_reported_and_monotone(self):
        H, d, C = hlin_dual(np.random.default_rng(7))
        start = np.full(H.shape[0], C / 2)
        f0 = 0.5 * start @ H @ start + d @ start
        result = solve_box_qp(H, d, 0.0, C, x0=start, max_sweeps=1)
        assert result.iterations == 1
        assert not result.converged
        assert result.kkt_residual > 1e-8
        assert result.objective <= f0

    def test_zero_budget_returns_start(self, rng):
        H = random_psd(rng, 5) + np.eye(5)
        d = rng.normal(size=5)
        result = solve_box_qp(H, d, 0.0, 1.0, x0=np.full(5, 0.5), max_sweeps=0)
        np.testing.assert_array_equal(result.x, np.full(5, 0.5))
        assert result.iterations == 0


class TestProjectedGradientResidual:
    def test_zero_at_interior_stationary_point(self):
        grad = np.zeros(3)
        assert projected_gradient_residual(grad, np.ones(3) * 0.5, np.zeros(3), np.ones(3)) == 0.0

    def test_ignores_gradient_pushing_into_active_bound(self):
        grad = np.array([2.0])  # pushing down while at lower bound
        x, lo, hi = np.array([0.0]), np.array([0.0]), np.array([1.0])
        assert projected_gradient_residual(grad, x, lo, hi) == 0.0

    def test_flags_gradient_pulling_off_bound(self):
        grad = np.array([-2.0])  # wants to increase from lower bound
        x, lo, hi = np.array([0.0]), np.array([0.0]), np.array([1.0])
        assert projected_gradient_residual(grad, x, lo, hi) == 2.0


class TestPreparedKnapsack:
    """One prepared problem solved for many ``d`` equals one-shot solves."""

    BOXES = [(0.0, 5.0), (-np.inf, np.inf), (0.0, np.inf), (-np.inf, 1.0), (-2.0, 3.0)]

    @pytest.mark.parametrize("lower, upper", BOXES)
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_one_shot_solves(self, seed, lower, upper):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        a = rng.uniform(0.1, 3.0, size=n)
        c = rng.choice([-1.0, 0.0, 0.5, 1.0], size=n)
        # Feasible r: c @ x for some x in the box (0 where a side is open).
        x0 = np.clip(rng.normal(size=n), lower, upper)
        r = float(c @ x0) if seed % 2 else 0.0
        prepared = QuadraticKnapsack(a, c, r, lower, upper)
        for _ in range(5):
            d = rng.normal(scale=3.0, size=n)
            got = prepared.solve(d)
            want = solve_quadratic_knapsack(a, d, c, r, lower, upper)
            assert np.array_equal(got.x, want.x)
            assert got.nu == want.nu
            assert got.iterations == want.iterations
            assert got.constraint_residual == want.constraint_residual

    def test_all_zero_c_solves_the_box_alone(self, rng):
        a, d = rng.uniform(0.5, 2.0, size=6), rng.normal(size=6)
        result = QuadraticKnapsack(a, np.zeros(6), 0.0, -1.0, 1.0).solve(d)
        np.testing.assert_array_equal(result.x, np.clip(-d / a, -1.0, 1.0))

    def test_infeasible_r_raises_at_preparation(self):
        with pytest.raises(ValueError, match="infeasible"):
            QuadraticKnapsack(np.ones(3), np.array([1.0, 0.0, 1.0]), 2.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="infeasible"):
            QuadraticKnapsack(np.ones(2), np.zeros(2), 1.0, -np.inf, np.inf)

    def test_checks_run_once_and_d_is_checked_per_solve(self):
        with pytest.raises(ValueError, match="strictly positive"):
            QuadraticKnapsack(np.array([1.0, -1.0]), np.ones(2))
        with pytest.raises(ValueError, match="lower bound exceeds"):
            QuadraticKnapsack(np.ones(2), np.ones(2), 0.0, 1.0, 0.0)
        prepared = QuadraticKnapsack(np.ones(2), np.array([1.0, -1.0]), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            prepared.solve(np.zeros(3))


class TestQuadraticKnapsack:
    def test_satisfies_equality_constraint(self, rng):
        n = 20
        a = rng.uniform(0.5, 2.0, size=n)
        d = rng.normal(size=n)
        c = rng.choice([-1.0, 1.0], size=n)
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, 5.0)
        assert result.constraint_residual < 1e-8

    def test_respects_box(self, rng):
        n = 15
        result = solve_quadratic_knapsack(
            np.ones(n), rng.normal(size=n), rng.choice([-1.0, 1.0], size=n), 0.0, 0.0, 2.0
        )
        assert np.all(result.x >= -1e-12) and np.all(result.x <= 2.0 + 1e-12)

    def test_matches_generic_qp_solution(self, rng):
        # Cross-check against an equality-eliminated closed form on n=2:
        # min a1/2 x1^2 + d1 x1 + a2/2 x2^2 + d2 x2 s.t. x1 - x2 = 0.
        a = np.array([2.0, 3.0])
        d = np.array([-4.0, 1.0])
        c = np.array([1.0, -1.0])
        result = solve_quadratic_knapsack(a, d, c, 0.0, -10.0, 10.0)
        # With x1 = x2 = t: minimize (a1+a2)/2 t^2 + (d1+d2) t.
        t = -(d.sum()) / a.sum()
        np.testing.assert_allclose(result.x, [t, t], atol=1e-8)

    def test_nonzero_rhs(self):
        # min sum x_i^2 / 2 s.t. x1 + x2 = 3, 0 <= x <= 2 -> (1.5, 1.5).
        result = solve_quadratic_knapsack(
            np.ones(2), np.zeros(2), np.ones(2), 3.0, 0.0, 2.0
        )
        np.testing.assert_allclose(result.x, [1.5, 1.5], atol=1e-8)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_quadratic_knapsack(np.ones(2), np.zeros(2), np.ones(2), 100.0, 0.0, 1.0)

    def test_rejects_nonpositive_hessian(self):
        with pytest.raises(ValueError, match="strictly positive"):
            solve_quadratic_knapsack(np.array([1.0, 0.0]), np.zeros(2), np.ones(2))

    def test_kkt_structure(self, rng):
        # Interior coordinates must satisfy a_i x_i + d_i + nu c_i = 0.
        n = 30
        a = rng.uniform(1.0, 2.0, size=n)
        d = rng.normal(size=n)
        c = rng.choice([-1.0, 1.0], size=n)
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, 1.0)
        interior = (result.x > 1e-6) & (result.x < 1.0 - 1e-6)
        if interior.any():
            stationarity = a[interior] * result.x[interior] + d[interior] + result.nu * c[interior]
            np.testing.assert_allclose(stationarity, 0.0, atol=1e-6)
