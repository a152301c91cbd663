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
(:class:`~repro.core.mapreduce_svm.VerticalConsensusReducer`).

Note the resulting joint model is an **additive kernel machine**
``f(x) = sum_m K_m(x_m, X_m) alpha_m + b``: each learner contributes a
kernel machine on its own feature block.  That is inherent to the
vertical decomposition — the cross-learner feature interactions live
only in the shared consensus vector, exactly as in the paper.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.vertical_linear import VerticalLinearSVM
from repro.svm.kernels import Kernel, RBFKernel
from repro.utils.validation import check_matrix, check_positive

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


class VerticalKernelSVM(VerticalLinearSVM):
    """In-process trainer for the kernel vertical scheme.

    :class:`~repro.core.vertical_linear.VerticalLinearSVM` with kernel
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
        super().__init__(C, rho, max_iter=max_iter, tol=tol)
        self.kernel = kernel if kernel is not None else RBFKernel(gamma=0.5)

    def _worker_params(self) -> dict[str, Any]:
        return {"worker": VerticalKernelWorker, "kernel": self.kernel}
