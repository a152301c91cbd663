"""Box-constrained convex quadratic programming.

The ADMM local subproblems of the horizontally partitioned schemes reduce
to duals of the form

    minimize    (1/2) x' H x + d' x
    subject to  lo <= x <= hi   (elementwise)

with ``H`` symmetric positive semidefinite (eq. (12) of the paper, after
the bias penalty removes the equality constraint — see DESIGN.md §6).

Solved by Bertsekas' projected Newton method ("Projected Newton methods
for optimization problems with simple constraints", 1982): fix the
ε-active set (coordinates within ε of a bound whose diagonally scaled
gradient step would cross it), take a Newton step on the free block and
that diagonal step on the active block, and backtrack along the
projection arc until the Armijo condition holds.  Once the active set is right one
Newton step is exact, so warm-started ADMM solves take one or two
iterations.  The H-lin dual has rank at most features + 1, so the free
block is often singular: a tiny trace-scaled shift keeps the Newton
solve defined, with ``lstsq`` as the fallback.  Two safeguards keep
such steps useful: free coordinates on a bound that the Newton step
would push out of the box are held there and the step re-solved, and
the backtracking also tries the arc's first breakpoint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.utils.validation import check_matrix, check_vector

__all__ = ["BoxQPResult", "solve_box_qp"]

_EPS_MAX = 1e-3  # cap on ε; below it, ε is the KKT residual
_ARMIJO = 1e-4  # sufficient-decrease fraction
_MAX_BACKTRACKS = 60
_SHIFT = 1e-12  # diagonal shift of the free block, relative to its mean diagonal
_TINY = np.finfo(float).tiny  # smallest positive normal float


@dataclass(frozen=True)
class BoxQPResult:
    """Solution of a box-constrained QP.

    Attributes
    ----------
    x:
        The minimizer found.
    iterations:
        Number of projected-Newton iterations performed.
    kkt_residual:
        Infinity norm of the projected gradient at ``x`` (0 at exact
        optimality).
    converged:
        Whether ``kkt_residual <= tol`` was reached within the iteration
        budget.
    objective:
        Final objective value ``(1/2) x'Hx + d'x``.
    """

    x: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    objective: float


def projected_gradient_residual(
    grad: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> float:
    """Infinity norm of the projected gradient (first-order KKT residual).

    A coordinate contributes its gradient magnitude unless it sits at the
    bound the gradient is pushing it towards.
    """
    blocked = ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))
    return float(np.abs(np.where(blocked, 0.0, grad)).max(initial=0.0))


def _newton_direction(H_ff: np.ndarray, g_f: np.ndarray) -> np.ndarray:
    """Newton step ``-H_ff^{-1} g_f`` on the free block.

    ``H_ff`` is a scratch copy.  Its diagonal is shifted in place by
    ``_SHIFT`` times its mean (or by ``_SHIFT`` when that product is not
    a positive normal float), which keeps the solve defined on the
    rank-deficient blocks the H-lin dual produces.  A block that is
    still exactly singular falls back to the least-squares step.
    """
    n = g_f.shape[0]
    shift = _SHIFT * (float(H_ff.trace()) / n)
    H_ff.flat[:: n + 1] += shift if shift >= _TINY else _SHIFT
    try:
        return -np.linalg.solve(H_ff, g_f)
    except np.linalg.LinAlgError:
        return -np.linalg.lstsq(H_ff, g_f, rcond=None)[0]


def _arc_steps(
    x: np.ndarray, p: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Iterator[float]:
    """Trial steps along the projection arc: 1, 1/2, 1/4, ..., with the
    first breakpoint (the step at which the first coordinate meets its
    bound) tried exactly where the halving passes it.

    Up to that breakpoint the arc is a straight line.  When the free block
    is singular, the shifted Newton step is dominated by a null-space
    direction along which the objective falls linearly; the right step
    then goes exactly to the breakpoint, which no power of 1/2 lands on.
    """
    yield 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(p > 0, hi - x, lo - x) / p
    reach = reach[np.isfinite(reach) & (reach > 0)]
    first = float(reach.min()) if reach.size else 0.0
    step = 0.5
    for _ in range(_MAX_BACKTRACKS):
        if step < first:
            yield first
            first = 0.0
        yield step
        step *= 0.5
    if first > 0.0:
        yield first


def solve_box_qp(
    H,
    d,
    lower=0.0,
    upper=np.inf,
    *,
    x0=None,
    tol: float = 1e-8,
    max_sweeps: int = 500,
) -> BoxQPResult:
    """Minimize ``(1/2) x'Hx + d'x`` subject to ``lower <= x <= upper``.

    Parameters
    ----------
    H:
        Symmetric PSD matrix of shape ``(n, n)``.
    d:
        Linear term of length ``n``.
    lower, upper:
        Box bounds; scalars broadcast to all coordinates.
    x0:
        Optional warm start (projected onto the box).  Warm starting with
        the previous ADMM iterate usually leaves one Newton step to take.
    tol:
        Convergence threshold on the projected-gradient infinity norm.
    max_sweeps:
        Budget of projected-Newton iterations.

    Returns
    -------
    BoxQPResult
        ``converged`` is False when the budget runs out or the line
        search finds no decrease; ``x`` is then the best iterate reached.
    """
    H = check_matrix(H, "H")
    n = H.shape[0]
    if H.shape[1] != n:
        raise ValueError(f"H must be square, got {H.shape}")
    d = check_vector(d, "d", length=n)
    lo = np.full(n, lower, dtype=float)
    hi = np.full(n, upper, dtype=float)
    if (lo > hi).any():
        raise ValueError("lower bound exceeds upper bound on some coordinate")

    x = (np.zeros(n) if x0 is None else check_vector(x0, "x0", length=n)).clip(lo, hi)
    grad = H @ x + d
    diag = np.diag(H)
    # Active-block scaling: a step of -g_i / H_ii (-g_i where H_ii = 0).
    active_step = -1.0 / np.where(diag > 0.0, diag, 1.0)
    residual = projected_gradient_residual(grad, x, lo, hi)
    iterations = 0

    while residual > tol and iterations < max_sweeps:
        eps = min(_EPS_MAX, residual)
        p = grad * active_step
        # Near a bound, a coordinate is held only if its diagonal step crosses
        # it; otherwise pairs coupled through H zigzag onto the bound.
        free = ~(((x <= lo + eps) & (x + p < lo)) | ((x >= hi - eps) & (x + p > hi)))
        while free.any():
            p[free] = _newton_direction(H[free][:, free], grad[free])
            # A free coordinate on a bound whose Newton step points out of
            # the box is held there, and the step re-solved without it.
            held = free & (((x <= lo) & (p < 0)) | ((x >= hi) & (p > 0)))
            if not held.any():
                break
            free &= ~held
            p[held] = 0.0

        # Armijo along the arc: f(x + s) <= f(x) + sigma g's with
        # s = P(x + a p) - x; f is quadratic, so f(x + s) - f(x) is exactly
        # g's + s'Hs/2.
        for step in _arc_steps(x, p, lo, hi):
            x_new = (x + step * p).clip(lo, hi)
            s = x_new - x
            Hs = H @ s
            slope = float(grad @ s)
            # slope == 0 with s != 0 only when a real decrease underflowed.
            armijo = 0.5 * float(s @ Hs) <= -(1.0 - _ARMIJO) * slope
            if slope <= 0.0 and armijo and s.any():
                break
        else:
            break  # no decrease along the arc: keep the best iterate
        x = x_new
        grad = grad + Hs
        residual = projected_gradient_residual(grad, x, lo, hi)
        iterations += 1

    return BoxQPResult(
        x=x,
        iterations=iterations,
        kkt_residual=residual,
        converged=residual <= tol,
        objective=float(0.5 * x @ (grad + d)),
    )
