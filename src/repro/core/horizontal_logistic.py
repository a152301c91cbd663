"""Consensus logistic regression — the framework beyond SVMs.

The paper presents its scheme as a general recipe ("we will use data
mining as the typical machine learning problems to articulate our
proposed algorithms whenever needed"): any learner whose objective is a
sum of per-sample losses plus a regularizer decomposes the same way —
local training as Map(), secure averaging as Reduce().  This module
instantiates the recipe for L2-regularized **logistic regression** over
horizontally partitioned data, demonstrating that the substrate
(Twister driver + secure summation + the same consensus reducer) is
model-agnostic:

    min_{w,b}  sum_i log(1 + exp(-y_i (x_i'w + b)))  +  (lam/2)||w||^2

Consensus ADMM: each learner m holds ``(w_m, b_m)`` with ``w_m = z``,
``b_m = s``.  The local subproblem

    min_{w,b}  L_m(w, b) + (rho/2)||w - (z - gamma_m)||^2
                         + (rho/2)(b - (s - beta_m))^2

is smooth and strongly convex — solved by damped Newton (the Hessian is
(k+1)x(k+1), tiny).  The z-update carries the regularizer:

    z = rho * sum_m (w_m + gamma_m) / (lam + M rho),

again a function of *sums only*, so the secure summation protocol
applies unchanged: it is the SVMs'
:class:`~repro.core.mapreduce_svm.HorizontalConsensusReducer` with
``lam > 0``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.mapreduce_svm import (
    ConsensusModel,
    HorizontalConsensusReducer,
    check_horizontal_partitions,
)
from repro.data.dataset import Dataset
from repro.utils.validation import check_labels, check_matrix, check_positive

__all__ = ["HorizontalLogisticRegression", "LogisticWorker"]


class LogisticWorker:
    """One learner's Map() computation for consensus logistic regression.

    Parameters
    ----------
    X, y:
        Private rows and labels.
    rho:
        ADMM penalty.
    newton_tol, newton_max_iter:
        Inner Newton solver controls.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        rho: float = 10.0,
        newton_tol: float = 1e-10,
        newton_max_iter: int = 50,
    ) -> None:
        self.X = check_matrix(X, "X")
        self.y = check_labels(y, "y", length=self.X.shape[0])
        self.rho = check_positive(rho, "rho")
        self.newton_tol = newton_tol
        self.newton_max_iter = int(newton_max_iter)
        k = self.X.shape[1]
        self.w = np.zeros(k)
        self.b = 0.0
        self.gamma = np.zeros(k)
        self.beta = 0.0
        self._started = False

    def _solve_local(self, u: np.ndarray, t: float) -> None:
        """Damped Newton on the penalized local objective."""
        X, y, rho = self.X, self.y, self.rho
        k = X.shape[1]
        theta = np.concatenate([self.w, [self.b]])  # warm start
        target = np.concatenate([u, [t]])
        Xa = np.hstack([X, np.ones((X.shape[0], 1))])

        def grad_hess(th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            margins = y * (Xa @ th)
            sigma = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))
            grad = -(Xa.T @ (y * sigma)) + rho * (th - target)
            weight = sigma * (1.0 - sigma)
            hess = (Xa * weight[:, None]).T @ Xa + rho * np.eye(k + 1)
            return grad, hess

        for _ in range(self.newton_max_iter):
            grad, hess = grad_hess(theta)
            if np.linalg.norm(grad) <= self.newton_tol:
                break
            step = np.linalg.solve(hess, grad)
            # Damping: halve until the objective decreases (the penalized
            # objective is strongly convex, so full steps almost always work).
            def objective(th: np.ndarray) -> float:
                margins = y * (Xa @ th)
                return float(
                    np.logaddexp(0.0, -margins).sum()
                    + 0.5 * rho * float((th - target) @ (th - target))
                )

            base = objective(theta)
            scale = 1.0
            while scale > 1e-8 and objective(theta - scale * step) > base:
                scale *= 0.5
            theta = theta - scale * step

        self.w = theta[:k]
        self.b = float(theta[k])

    def step(self, z: np.ndarray, s: float) -> dict[str, np.ndarray]:
        """One ADMM local iteration; returns the consensus summands."""
        z = np.asarray(z, dtype=float).ravel()
        if z.shape[0] != self.w.shape[0]:
            raise ValueError(f"z has length {z.shape[0]}, expected {self.w.shape[0]}")
        s = float(s)
        if self._started:
            self.gamma = self.gamma + self.w - z
            self.beta = self.beta + self.b - s
        self._started = True
        self._solve_local(z - self.gamma, s - self.beta)
        return {
            "z_contrib": self.w + self.gamma,
            "s_contrib": np.array([self.b + self.beta]),
        }


class HorizontalLogisticRegression(ConsensusModel):
    """Privacy-preserving consensus logistic regression (in-process).

    The same round as
    :class:`~repro.core.horizontal_linear.HorizontalLinearSVM`, with
    logistic workers and a regularized z-update.

    Parameters
    ----------
    lam:
        Global L2 regularization strength (applied at the Reducer's
        z-update — the learners never need to know it).
    rho:
        ADMM penalty.
    max_iter, tol:
        Outer-iteration controls.
    """

    def __init__(
        self,
        lam: float = 1.0,
        rho: float = 10.0,
        *,
        max_iter: int = 50,
        tol: float | None = None,
    ) -> None:
        super().__init__(max_iter=max_iter, tol=tol)
        self.lam = check_positive(lam, "lam")
        self.rho = check_positive(rho, "rho")
        self.consensus_weights_: np.ndarray | None = None
        self.consensus_bias_: float = 0.0

    def fit(
        self, partitions: list[Dataset], *, eval_set: Dataset | None = None
    ) -> "HorizontalLogisticRegression":
        """Train from per-learner datasets."""
        eval_rows = () if eval_set is None else (eval_set.X, eval_set.y)
        return self._fit(partitions, *eval_rows)

    def _prepare(
        self, partitions: list[Dataset]
    ) -> tuple[list[dict[str, Any]], HorizontalConsensusReducer]:
        n_features = check_horizontal_partitions(partitions)
        payloads = [dict(worker=LogisticWorker, X=p.X, y=p.y, rho=self.rho) for p in partitions]
        reducer = HorizontalConsensusReducer(
            n_features, tol=self.tol, lam=self.lam, rho=self.rho
        )
        return payloads, reducer

    def _publish(self, workers: list[Any], reducer: Any) -> None:
        super()._publish(workers, reducer)
        self.consensus_weights_, self.consensus_bias_ = reducer.z, reducer.s

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """Consensus log-odds scores."""
        if self.consensus_weights_ is None:
            raise RuntimeError("model must be fit before use")
        return X @ self.consensus_weights_ + self.consensus_bias_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y = +1 | x) under the consensus model."""
        scores = self.decision_function(X)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
