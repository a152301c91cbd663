"""Nonlinear (kernel) SVM over vertically partitioned data (Section IV-C).

The paper notes the vertical nonlinear case is "a straightforward
modification": the consensus vector ``z`` has fixed size N regardless of
the kernel, so only the Mapper's ridge subproblem changes.  With
``Phi_m = phi(X_m)`` the learner-m feature map *of its own columns*, the
update

    w_m := argmin (1/2)||w||_H^2 + (rho/2)||Phi_m w - p_m||^2

has, by the push-through identity (the paper's eq. (20) trick),

    alpha_m = (K_m + I/rho)^(-1) p_m,      a_m = Phi_m w_m = K_m alpha_m,

where ``K_m = K(X_m, X_m)`` is the Gram matrix on learner m's columns.
The inverse ``(K_m + I/rho)^(-1)`` is formed once at set-up, and since
``K_m (K_m + I/rho)^(-1) = I - (1/rho) (K_m + I/rho)^(-1)`` the share is
``a_m = p_m - alpha_m / rho``: each step is one ``N x N`` matrix-vector
product.  The Reducer step is *identical* to the linear case
(:class:`~repro.core.vertical_linear.VerticalConsensusReducer`).

Note the resulting joint model is an **additive kernel machine**
``f(x) = sum_m K_m(x_m, X_m) alpha_m + b``: each learner contributes a
kernel machine on its own feature block.  That is inherent to the
vertical decomposition — the cross-learner feature interactions live
only in the shared consensus vector, exactly as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.partitioning import VerticalPartition
from repro.core.results import IterationRecord, TrainingHistory
from repro.core.vertical_linear import VerticalConsensusReducer
from repro.svm.kernels import Kernel, RBFKernel
from repro.svm.model import accuracy
from repro.utils.validation import check_labels, check_matrix, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.health import HealthMonitor

__all__ = ["VerticalKernelSVM", "VerticalKernelWorker"]


class VerticalKernelWorker:
    """One learner's Map() computation for the kernel vertical scheme.

    Parameters
    ----------
    X:
        The learner's ``(N, k_m)`` column block (private).
    kernel:
        Kernel applied to this learner's feature subset.
    rho:
        ADMM penalty, shared.
    """

    def __init__(self, X: np.ndarray, *, kernel: Kernel, rho: float = 100.0) -> None:
        self.X = check_matrix(X, "X")
        self.kernel = kernel
        self.rho = check_positive(rho, "rho")
        n = self.X.shape[0]
        self._K = kernel.gram(self.X)
        self._ridge_inv = np.linalg.inv(self._K + np.eye(n) / self.rho)
        self.alpha = np.zeros(n)
        self.share = np.zeros(n)  # a_m = K_m alpha_m

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    def step(self, correction: np.ndarray) -> dict[str, np.ndarray]:
        """One local kernel-ridge update; returns the new score share."""
        correction = np.asarray(correction, dtype=float).ravel()
        if correction.shape[0] != self.n_samples:
            raise ValueError(
                f"correction has length {correction.shape[0]}, expected {self.n_samples}"
            )
        target = self.share + correction
        self.alpha = self._ridge_inv @ target
        self.share = target - self.alpha / self.rho  # = K_m alpha_m
        return {"share": self.share}

    def score_share(self, X_test: np.ndarray) -> np.ndarray:
        """This learner's contribution ``K(x_m, X_m) alpha_m`` to test scores."""
        X_test = check_matrix(X_test, "X_test")
        if X_test.shape[1] != self.X.shape[1]:
            raise ValueError(
                f"X_test has {X_test.shape[1]} columns, expected {self.X.shape[1]}"
            )
        return self.kernel(X_test, self.X) @ self.alpha


class VerticalKernelSVM:
    """In-process trainer for the kernel vertical scheme.

    Identical orchestration to
    :class:`~repro.core.vertical_linear.VerticalLinearSVM`, with kernel
    workers.  The ``kernel`` is applied per-learner to that learner's
    feature block.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        C: float = 50.0,
        rho: float = 100.0,
        *,
        max_iter: int = 100,
        tol: float | None = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else RBFKernel(gamma=0.5)
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        self.max_iter = int(max_iter)
        self.tol = tol
        self.workers_: list[VerticalKernelWorker] = []
        self.reducer_: VerticalConsensusReducer | None = None
        self.partition_: VerticalPartition | None = None
        self.history_ = TrainingHistory()

    def fit(
        self,
        partition: VerticalPartition,
        *,
        eval_X=None,
        eval_y=None,
        health_monitor: "HealthMonitor | None" = None,
    ) -> "VerticalKernelSVM":
        """Train; ``eval_X/eval_y`` enable the Fig. 4(h) accuracy series."""
        self.partition_ = partition
        self.workers_ = [
            VerticalKernelWorker(block, kernel=self.kernel, rho=self.rho)
            for block in partition.blocks
        ]
        self.reducer_ = VerticalConsensusReducer(
            partition.y, C=self.C, rho=self.rho, n_learners=partition.n_learners
        )
        eval_blocks = None
        if eval_X is not None:
            eval_blocks = partition.split_features(check_matrix(eval_X, "eval_X"))
            eval_y = check_labels(eval_y, "eval_y", length=eval_blocks[0].shape[0])

        n = partition.n_samples
        correction = np.zeros(n)
        self.history_ = TrainingHistory()

        for iteration in range(self.max_iter):
            share_sum = np.zeros(n)
            for worker in self.workers_:
                share_sum += worker.step(correction)["share"]
            correction, z_change, primal = self.reducer_.step(share_sum)

            acc = float("nan")
            if eval_blocks is not None:
                scores = self._scores_from_blocks(eval_blocks)
                acc = accuracy(eval_y, np.where(scores >= 0, 1.0, -1.0))
            self.history_.append(
                IterationRecord(
                    iteration=iteration,
                    z_change_sq=z_change,
                    primal_residual=primal,
                    accuracy=acc,
                )
            )
            if health_monitor is not None:
                health_monitor.observe(
                    iteration,
                    z_change_sq=z_change,
                    primal_residual=primal,
                    residual_available=True,
                )
            if self.tol is not None and z_change <= self.tol:
                break
        return self

    def _scores_from_blocks(self, blocks: list[np.ndarray]) -> np.ndarray:
        scores = np.zeros(blocks[0].shape[0])
        for worker, block in zip(self.workers_, blocks):
            scores += worker.score_share(block)
        return scores + self.reducer_.bias

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Joint additive-kernel scores across all learners."""
        if self.partition_ is None or self.reducer_ is None:
            raise RuntimeError("model must be fit before use")
        blocks = self.partition_.split_features(check_matrix(X, "X"))
        return self._scores_from_blocks(blocks)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted -1/+1 labels."""
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on ``(X, y)``."""
        return accuracy(check_labels(y, "y"), self.predict(X))
