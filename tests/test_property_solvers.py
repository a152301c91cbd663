"""Property-based tests (hypothesis) for the QP/knapsack/SMO solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.svm.kernels import LinearKernel, RBFKernel
from repro.svm.knapsack import solve_quadratic_knapsack
from repro.svm.qp import solve_box_qp
from repro.svm.smo import solve_svm_dual

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def box_qp_problems(draw):
    n = draw(st.integers(2, 8))
    A = draw(
        hnp.arrays(float, (n, n), elements=finite_floats)
    )
    H = A @ A.T + np.eye(n) * draw(st.floats(0.1, 2.0))
    d = draw(hnp.arrays(float, (n,), elements=finite_floats))
    C = draw(st.floats(0.5, 10.0))
    return H, d, C


@st.composite
def degenerate_box_qp_problems(draw):
    """``H`` of any rank from 0 to n, a finite or infinite upper bound,
    and a start that may lie outside the box."""
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(0, n))
    A = draw(hnp.arrays(float, (n, rank), elements=finite_floats))
    H = A @ A.T
    d = draw(hnp.arrays(float, (n,), elements=finite_floats))
    # With no upper bound, d = H c + e (e >= 0.1) keeps the minimizer near
    # the origin: f(x) >= -c'Hc/2 + e'x on x >= 0, so no flat direction
    # of H can carry it off to infinity.
    upper = draw(st.sampled_from([0.5, 10.0, np.inf]))
    if np.isinf(upper):
        c = draw(hnp.arrays(float, (n,), elements=finite_floats))
        d = H @ c + np.abs(d) + 0.1
    x0 = draw(hnp.arrays(float, (n,), elements=st.floats(-20.0, 20.0)))
    return H, d, upper, x0


class TestBoxQPProperties:
    @given(box_qp_problems())
    @settings(max_examples=40, deadline=None)
    def test_solution_in_box_and_kkt(self, problem):
        H, d, C = problem
        result = solve_box_qp(H, d, 0.0, C, tol=1e-8)
        assert np.all(result.x >= -1e-12)
        assert np.all(result.x <= C + 1e-12)
        assert result.converged
        assert result.kkt_residual <= 1e-8

    @given(degenerate_box_qp_problems())
    @settings(max_examples=40, deadline=None)
    def test_matches_lbfgsb_on_degenerate_problems(self, problem):
        from scipy.optimize import minimize

        H, d, upper, x0 = problem
        result = solve_box_qp(H, d, 0.0, upper, x0=x0, tol=1e-8)
        assert result.converged and result.kkt_residual <= 1e-8
        bounds = [(0.0, None if np.isinf(upper) else upper)] * H.shape[0]
        reference = minimize(
            lambda x: (0.5 * x @ H @ x + d @ x, H @ x + d),
            np.clip(x0, 0.0, upper),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000},
        )
        # By convexity f(x) - f(x_ref) <= residual * ||x - x_ref||_1: a
        # near-zero gradient along a wide box edge is certified, not wrong.
        slack = result.kkt_residual * float(np.abs(result.x - reference.x).sum())
        assert result.objective <= reference.fun + 1e-9 * max(1.0, abs(reference.fun)) + slack

    @given(box_qp_problems())
    @settings(max_examples=25, deadline=None)
    def test_objective_no_worse_than_vertices(self, problem):
        H, d, C = problem
        result = solve_box_qp(H, d, 0.0, C, tol=1e-10)

        def obj(x):
            return 0.5 * x @ H @ x + d @ x

        n = H.shape[0]
        for corner in (np.zeros(n), np.full(n, C)):
            assert result.objective <= obj(corner) + 1e-6

    @given(box_qp_problems(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_warm_start_reaches_same_objective(self, problem, seed):
        H, d, C = problem
        cold = solve_box_qp(H, d, 0.0, C, tol=1e-10)
        x0 = np.random.default_rng(seed).uniform(0, C, size=H.shape[0])
        warm = solve_box_qp(H, d, 0.0, C, x0=x0, tol=1e-10)
        assert abs(cold.objective - warm.objective) < 1e-5


@st.composite
def knapsack_problems(draw):
    n = draw(st.integers(2, 12))
    a = draw(hnp.arrays(float, (n,), elements=st.floats(0.1, 5.0)))
    d = draw(hnp.arrays(float, (n,), elements=finite_floats))
    c = draw(hnp.arrays(float, (n,), elements=st.sampled_from([-1.0, 1.0])))
    C = draw(st.floats(0.5, 5.0))
    return a, d, c, C


class TestKnapsackProperties:
    @given(knapsack_problems())
    @settings(max_examples=50, deadline=None)
    def test_feasibility(self, problem):
        a, d, c, C = problem
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, C)
        assert result.constraint_residual < 1e-6
        assert np.all(result.x >= -1e-9)
        assert np.all(result.x <= C + 1e-9)

    @given(knapsack_problems())
    @settings(max_examples=30, deadline=None)
    def test_optimality_vs_random_feasible_points(self, problem):
        a, d, c, C = problem
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, C)

        def obj(x):
            return float(0.5 * (a * x) @ x + d @ x)

        # Compare against random feasible perturbations projected back
        # onto the constraint via pairs with opposite signs.
        rng = np.random.default_rng(0)
        best = obj(result.x)
        for _ in range(20):
            x = rng.uniform(0, C, size=len(a))
            # project onto {c'x = 0} then clip (approximately feasible)
            x = x - (c @ x) / (c @ c) * c
            x = np.clip(x, 0.0, C)
            if abs(c @ x) < 1e-9:
                assert best <= obj(x) + 1e-6

    @given(st.integers(2, 10), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, n, seed):
        # Scaling (a, d) by the same factor leaves the minimizer fixed.
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, size=n)
        d = rng.normal(size=n)
        c = rng.choice([-1.0, 1.0], size=n)
        base = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, 3.0)
        scaled = solve_quadratic_knapsack(7.0 * a, 7.0 * d, c, 0.0, 0.0, 3.0)
        np.testing.assert_allclose(base.x, scaled.x, atol=1e-6)


def bisection_knapsack(a, d, c, r, lo, hi):
    """Reference solve by bracketing + bisection on the multiplier."""

    def x_of(nu):
        return np.clip((-d - nu * c) / a, lo, hi)

    def phi(nu):
        return float(c @ x_of(nu)) - r

    nu_lo, nu_hi = -1.0, 1.0
    for _ in range(200):
        if phi(nu_lo) >= 0.0:
            break
        nu_lo *= 2.0
    for _ in range(200):
        if phi(nu_hi) <= 0.0:
            break
        nu_hi *= 2.0
    for _ in range(200):
        nu = 0.5 * (nu_lo + nu_hi)
        if phi(nu) > 0.0:
            nu_lo = nu
        else:
            nu_hi = nu
    return x_of(0.5 * (nu_lo + nu_hi))


@st.composite
def general_knapsack_problems(draw):
    """Mixed-sign and zero ``c``, a negative or zero ``lower``, a finite
    or infinite ``upper``, and ``r`` anywhere in the feasible range,
    either end included (``end`` names which, if any)."""
    n = draw(st.integers(1, 12))
    a = draw(hnp.arrays(float, (n,), elements=st.floats(0.1, 10.0)))
    d = draw(hnp.arrays(float, (n,), elements=st.floats(-10.0, 10.0)))
    c = draw(
        hnp.arrays(float, (n,), elements=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]))
    )
    lower = draw(st.floats(-5.0, 0.0))
    upper = draw(st.one_of(st.just(np.inf), st.floats(0.5, 5.0)))
    end = draw(st.sampled_from(["low", "high", "inside"]))
    fraction = draw(st.floats(0.0, 1.0))

    def reach(coefs, bound):  # 0 * inf would be nan, so empty sides add 0
        return float(np.sum(coefs) * bound) if coefs.size else 0.0

    max_sum = reach(c[c > 0], upper) + reach(c[c < 0], lower)
    min_sum = reach(c[c > 0], lower) + reach(c[c < 0], upper)
    if end == "low" and np.isfinite(min_sum):
        return a, d, c, min_sum, lower, upper, end
    if end == "high" and np.isfinite(max_sum):
        return a, d, c, max_sum, lower, upper, end
    if np.isfinite(min_sum) and np.isfinite(max_sum):
        r = min_sum + fraction * (max_sum - min_sum)
    elif np.isfinite(min_sum):
        r = min_sum + 10.0 * fraction
    elif np.isfinite(max_sum):
        r = max_sum - 10.0 * fraction
    else:
        r = 20.0 * fraction - 10.0
    return a, d, c, r, lower, upper, "inside"


class TestKnapsackExactSolve:
    @given(general_knapsack_problems())
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_reference_and_kkt(self, problem):
        a, d, c, r, lower, upper, end = problem
        n = a.shape[0]
        lo, hi = np.full(n, lower), np.full(n, upper)
        result = solve_quadratic_knapsack(a, d, c, r, lower, upper)
        x, nu = result.x, result.nu

        assert np.all(lo <= x) and np.all(x <= hi)
        scale = max(1.0, abs(r), float(np.sum(np.abs(c * x))))
        assert result.constraint_residual <= 1e-9 * scale
        assert result.iterations <= int(np.ceil(np.log2(2 * n))) + 1

        reference = bisection_knapsack(a, d, c, r, lo, hi)
        np.testing.assert_allclose(x, reference, atol=1e-7 * scale)

        interior = (x > lo + 1e-9) & (x < hi - 1e-9)
        stationarity = a * x + d + nu * c
        tolerance = 1e-9 * (1.0 + np.abs(d) + np.abs(nu * c))
        assert np.all(np.abs(stationarity[interior]) <= tolerance[interior])

        # At either end of the range every moving coordinate is pinned.
        pinned = {"low": (lo, hi), "high": (hi, lo)}.get(end)
        if pinned is not None:
            at_positive, at_negative = pinned
            np.testing.assert_allclose(x[c > 0], at_positive[c > 0], atol=1e-9 * scale)
            np.testing.assert_allclose(x[c < 0], at_negative[c < 0], atol=1e-9 * scale)


@st.composite
def svm_datasets(draw):
    n = draw(st.integers(6, 24))
    k = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    y = rng.choice([-1.0, 1.0], size=n)
    # Ensure both classes present.
    y[0], y[1] = 1.0, -1.0
    C = draw(st.floats(0.5, 20.0))
    return X, y, C


class TestSMOProperties:
    @given(svm_datasets())
    @settings(max_examples=40, deadline=None)
    def test_constraints_hold(self, problem):
        X, y, C = problem
        K = LinearKernel().gram(X)
        result = solve_svm_dual(K, y, C, tol=1e-6)
        assert np.all(result.alpha >= -1e-10)
        assert np.all(result.alpha <= C + 1e-10)
        assert abs(float(y @ result.alpha)) < 1e-6

    @given(svm_datasets())
    @settings(max_examples=30, deadline=None)
    def test_dual_objective_nonpositive(self, problem):
        X, y, C = problem
        K = RBFKernel(gamma=0.5).gram(X)
        result = solve_svm_dual(K, y, C, tol=1e-6)
        Q = np.outer(y, y) * K
        obj = 0.5 * result.alpha @ Q @ result.alpha - result.alpha.sum()
        assert obj <= 1e-9

    @given(svm_datasets())
    @settings(max_examples=20, deadline=None)
    def test_kkt_margins_at_convergence(self, problem):
        X, y, C = problem
        K = LinearKernel().gram(X)
        result = solve_svm_dual(K, y, C, tol=1e-8)
        if not result.converged:
            return
        scores = K @ (result.alpha * y) + result.bias
        margins = y * scores
        free = (result.alpha > 1e-6) & (result.alpha < C - 1e-6)
        # Free support vectors sit on the margin.
        if free.any():
            np.testing.assert_allclose(margins[free], 1.0, atol=1e-3)
        # Zero-alpha points are outside or on the margin (up to tol).
        zero = result.alpha <= 1e-10
        if zero.any():
            assert margins[zero].min() > 1.0 - 1e-2
