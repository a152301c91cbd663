"""Exact continuous quadratic-knapsack solver.

The Reducer step of the vertically partitioned scheme (paper eq. (29))
must solve a QP whose Hessian is **diagonal**, subject to a box and a
single linear equality constraint:

    minimize    sum_i (a_i/2) x_i^2 + d_i x_i
    subject to  sum_i c_i x_i = r,     lo_i <= x_i <= hi_i.

This is the classic continuous quadratic knapsack problem.  The KKT
conditions give, for a scalar multiplier ``nu``,

    x_i(nu) = clip((-d_i - nu * c_i) / a_i, lo_i, hi_i),

and ``phi(nu) = sum_i c_i x_i(nu) - r`` is continuous, nonincreasing and
piecewise linear in ``nu``, with a kink wherever some ``x_i`` reaches a
bound.  The solver sorts the (at most 2n) kinks once, binary-searches
them for the piece on which ``phi`` changes sign (about log2(2n) ``phi``
evaluations), and solves that linear piece in closed form.  This solves
the Reducer QP *exactly* in O(n log n), and it is the step executed once
per ADMM iteration on the consensus node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_vector

__all__ = ["KnapsackResult", "QuadraticKnapsack", "solve_quadratic_knapsack"]


@dataclass(frozen=True)
class KnapsackResult:
    """Solution of a continuous quadratic knapsack problem.

    Attributes
    ----------
    x:
        The minimizer.
    nu:
        The equality-constraint multiplier at the solution.
    constraint_residual:
        ``|sum_i c_i x_i - r|`` at the returned point.
    iterations:
        Kink-search steps (``phi`` evaluations of the binary search),
        at most ``ceil(log2(2n + 1))``.
    """

    x: np.ndarray
    nu: float
    constraint_residual: float
    iterations: int


class QuadraticKnapsack:
    """The problem above with ``a``, ``c``, ``r`` and the box fixed, ready
    to solve for any linear term ``d``.

    Construction validates the fixed data, checks feasibility once and
    precomputes ``c/a``, ``a·lo``, ``a·hi`` and ``c²/a``, so each
    :meth:`solve` pays only for its ``d`` — what the vertical Reducer
    needs, whose ``d`` alone changes from one ADMM round to the next.

    Parameters
    ----------
    a:
        Strictly positive diagonal of the Hessian.
    c:
        Equality-constraint coefficients (e.g. the labels ``y_i``); must
        not be all zero unless ``r`` is 0.
    r:
        Right-hand side of the equality constraint.
    lower, upper:
        Box bounds (scalars broadcast; infinite bounds allowed).

    Raises
    ------
    ValueError
        If the problem is infeasible (no x in the box satisfies the
        equality constraint) or ``a`` is not strictly positive.
    """

    def __init__(self, a, c, r: float = 0.0, lower=0.0, upper=np.inf) -> None:
        a = check_vector(a, "a")
        n = a.shape[0]
        if np.any(a <= 0.0):
            raise ValueError("diagonal Hessian entries must be strictly positive")
        c = check_vector(c, "c", length=n)
        lo = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound on some coordinate")
        r = float(r)

        # Feasibility check: the range of sum c_i x_i over the box.
        # Coordinates with c_i == 0 add 0 (not 0 * inf) to either end.
        max_sum = float(c @ np.where(c > 0, hi, np.where(c < 0, lo, 0.0)))
        min_sum = float(c @ np.where(c > 0, lo, np.where(c < 0, hi, 0.0)))
        if not (min_sum - 1e-9 <= r <= max_sum + 1e-9):
            raise ValueError(
                f"infeasible knapsack: r={r} outside achievable range [{min_sum}, {max_sum}]"
            )
        self.a, self.c, self.r, self.lo, self.hi = a, c, r, lo, hi
        self._step = c / a
        self._a_lo = a * lo
        self._a_hi = a * hi
        self._c_step = c * self._step

    def solve(self, d) -> KnapsackResult:
        """Minimize with linear term ``d`` (a vector of length ``n``)."""
        a, c, r, lo, hi, step = self.a, self.c, self.r, self.lo, self.hi, self._step
        d = check_vector(d, "d", length=a.shape[0])
        base = -d / a

        def x_of(nu: float) -> np.ndarray:
            return np.minimum(np.maximum(base - nu * step, lo), hi)

        def phi(nu: float) -> float:
            return float(c @ x_of(nu)) - r

        # x_i moves with nu only on [start_i, end_i] and sits at a bound
        # outside it.  Coordinates with c_i == 0 get infinite or NaN ends;
        # they never move and weigh nothing in the slope.
        with np.errstate(divide="ignore", invalid="ignore"):
            at_lo = (-d - self._a_lo) / c
            at_hi = (-d - self._a_hi) / c
        start = np.minimum(at_lo, at_hi)
        end = np.maximum(at_lo, at_hi)
        kinks = np.concatenate([start, end])
        kinks = np.sort(kinks[np.isfinite(kinks)])
        m = kinks.shape[0]

        # Binary search for the first kink with phi <= 0; the root lies on
        # the linear piece that ends there.
        values: dict[int, float] = {}
        first, last = 0, m
        while first < last:
            mid = (first + last) // 2
            values[mid] = phi(float(kinks[mid]))
            if values[mid] <= 0.0:
                last = mid
            else:
                first = mid + 1
        left = kinks[first - 1] if first > 0 else -np.inf
        right = kinks[first] if first < m else np.inf
        free = (start <= left) & (end >= right)
        slope = float(self._c_step @ free)

        # On the piece phi(nu) = phi(anchor) - slope * (nu - anchor).
        if first < m:
            anchor, value = float(kinks[first]), values[first]
        elif m:
            anchor, value = float(kinks[m - 1]), values[m - 1]
        else:
            anchor, value = 0.0, phi(0.0)
        nu = anchor + value / slope if slope > 0.0 else anchor

        x = x_of(nu)
        return KnapsackResult(
            x=x,
            nu=nu,
            constraint_residual=abs(float(c @ x) - r),
            iterations=len(values),
        )


def solve_quadratic_knapsack(
    a,
    d,
    c,
    r: float = 0.0,
    lower=0.0,
    upper=np.inf,
) -> KnapsackResult:
    """Solve the diagonal QP with one equality constraint described above.

    One-shot form of ``QuadraticKnapsack(a, c, r, lower, upper).solve(d)``;
    see :class:`QuadraticKnapsack` for the parameters and the errors.
    """
    return QuadraticKnapsack(a, c, r, lower, upper).solve(d)
