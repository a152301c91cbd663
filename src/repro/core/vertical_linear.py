"""Linear SVM over vertically partitioned data (paper Section IV-C).

Each learner holds a column block ``X_m`` (all N rows, its own feature
subset) and its own weight block ``w_m``; labels are shared.  The joint
problem (paper eq. (26)) couples the learners only through
``z = sum_m X_m w_m``, which is the *sharing* form of ADMM
(Boyd et al. §7.3).  Per iteration:

* **Mapper m** solves the ridge subproblem
  ``w_m := argmin (1/2)||w||^2 + (rho/2) ||X_m w - p_m||^2`` with target
  ``p_m = a_m + corr`` (``a_m = X_m w_m`` from the previous round and
  ``corr = zbar - abar - u`` broadcast by the Reducer).  The solution is
  the fixed linear map ``w_m = (X_m'X_m + I/rho)^(-1) X_m' p_m``, formed
  once at set-up, so each step is one ``k_m x N`` matrix-vector product;
* the Reducer (:class:`~repro.core.mapreduce_svm.VerticalConsensusReducer`)
  obtains ``abar = mean_m(a_m)`` by **secure summation**
  (this is the paper's ``c̄``), forms ``cbar = abar + u``, and solves the
  hinge proximal problem

      min_{zbar,b,xi} C 1'xi + (M rho / 2) ||zbar - cbar||^2
      s.t.  Y(M zbar + 1 b) >= 1 - xi,  xi >= 0

  whose dual is a **diagonal** QP with one equality constraint — solved
  exactly by continuous quadratic knapsack (paper eq. (29), where
  ``A = (1/rho) Y 1 1' Y``); then ``zbar = cbar + Y lambda / rho``,
  ``u := cbar - zbar = -Y lambda / rho``, and the new correction
  ``corr = zbar - abar - u`` is broadcast back (the Twister feedback).

The classifier is ``f(x) = sum_m x_m' w_m + b``: at test time every
learner contributes the score share of its own columns, mirroring how
vertically partitioned deployments actually classify.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.mapreduce_svm import ConsensusModel, VerticalConsensusReducer
from repro.core.partitioning import VerticalPartition
from repro.utils.validation import check_matrix, check_positive

__all__ = ["VerticalConsensusReducer", "VerticalLinearSVM", "VerticalLinearWorker"]


class VerticalLinearWorker:
    """One learner's Map() computation for the linear vertical scheme.

    Parameters
    ----------
    X:
        The learner's ``(N, k_m)`` column block (private).
    rho:
        ADMM penalty, shared.
    """

    def __init__(self, X: np.ndarray, *, rho: float = 100.0) -> None:
        self.X = check_matrix(X, "X")
        self.rho = check_positive(rho, "rho")
        n, k = self.X.shape
        gram = self.X.T @ self.X + np.eye(k) / self.rho
        self._ridge_map = np.linalg.solve(gram, self.X.T)  # (X'X + I/rho)^(-1) X', (k, n)
        self.w = np.zeros(k)
        self.share = np.zeros(n)  # a_m = X_m w_m

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    def step(self, correction: np.ndarray) -> dict[str, np.ndarray]:
        """One local ridge update; returns the new score share ``a_m``."""
        correction = np.asarray(correction, dtype=float).ravel()
        if correction.shape[0] != self.n_samples:
            raise ValueError(
                f"correction has length {correction.shape[0]}, expected {self.n_samples}"
            )
        target = self.share + correction
        self.w = self._ridge_map @ target
        self.share = self.X @ self.w
        return {"share": self.share}

    def score_share(self, X_test: np.ndarray) -> np.ndarray:
        """This learner's contribution ``X_test w_m`` to test scores."""
        X_test = check_matrix(X_test, "X_test")
        if X_test.shape[1] != self.X.shape[1]:
            raise ValueError(
                f"X_test has {X_test.shape[1]} columns, expected {self.X.shape[1]}"
            )
        return X_test @ self.w


class VerticalLinearSVM(ConsensusModel):
    """In-process trainer for the linear vertical scheme.

    Parameters mirror :class:`~repro.core.horizontal_linear.HorizontalLinearSVM`;
    fitting consumes a :class:`~repro.core.partitioning.VerticalPartition`.
    """

    def __init__(
        self,
        C: float = 50.0,
        rho: float = 100.0,
        *,
        max_iter: int = 100,
        tol: float | None = None,
    ) -> None:
        super().__init__(max_iter=max_iter, tol=tol)
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        self.partition_: VerticalPartition | None = None

    def _worker_params(self) -> dict[str, Any]:
        """The payload entries that pick the learners' worker."""
        return {"worker": VerticalLinearWorker}

    def fit(
        self, partition: VerticalPartition, *, eval_X=None, eval_y=None
    ) -> "VerticalLinearSVM":
        """Train; ``eval_X/eval_y`` enable the Fig. 4(g)/(h) accuracy series."""
        return self._fit(partition, eval_X, eval_y)

    def _prepare(
        self, partition: VerticalPartition
    ) -> tuple[list[dict[str, Any]], VerticalConsensusReducer]:
        self.partition_ = partition
        worker = self._worker_params()
        payloads = [dict(worker, X=block, rho=self.rho) for block in partition.blocks]
        reducer = VerticalConsensusReducer(
            partition.y,
            C=self.C,
            rho=self.rho,
            n_learners=partition.n_learners,
            tol=self.tol,
        )
        return payloads, reducer

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """Joint scores: every learner contributes its column block's share."""
        if self.partition_ is None or self.reducer_ is None:
            raise RuntimeError("model must be fit before use")
        scores = np.zeros(X.shape[0])
        for worker, block in zip(self.workers_, self.partition_.split_features(X)):
            scores += worker.score_share(block)
        return scores + self.reducer_.bias
