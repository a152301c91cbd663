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
* the Reducer obtains ``abar = mean_m(a_m)`` by **secure summation**
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

from typing import TYPE_CHECKING

import numpy as np

from repro.core.partitioning import VerticalPartition
from repro.core.results import IterationRecord, TrainingHistory
from repro.svm.knapsack import solve_quadratic_knapsack
from repro.svm.model import accuracy
from repro.utils.validation import check_labels, check_matrix, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.health import HealthMonitor

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


class VerticalConsensusReducer:
    """The Reducer's per-iteration logic for both vertical schemes.

    Holds the shared labels and the ADMM running state ``(zbar, u)``;
    consumes the securely-summed score shares; produces the broadcast
    correction and the current bias.
    """

    def __init__(self, y: np.ndarray, *, C: float = 50.0, rho: float = 100.0, n_learners: int) -> None:
        self.y = check_labels(y, "y")
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        if n_learners < 2:
            raise ValueError(f"n_learners must be >= 2, got {n_learners}")
        self.n_learners = int(n_learners)
        n = self.y.shape[0]
        self.zbar = np.zeros(n)
        self.u = np.zeros(n)
        self.bias = 0.0
        self.z_total_prev = np.zeros(n)

    def step(self, share_sum: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Consume ``sum_m a_m``; return ``(correction, z_change_sq, primal)``.

        ``z_change_sq`` tracks the paper's Fig. 4(c)/(d) quantity on the
        total consensus vector ``z = M zbar``; ``primal`` is
        ``||abar - zbar||`` (consensus violation).
        """
        share_sum = np.asarray(share_sum, dtype=float).ravel()
        n = self.y.shape[0]
        if share_sum.shape[0] != n:
            raise ValueError(f"share sum has length {share_sum.shape[0]}, expected {n}")
        M = float(self.n_learners)
        abar = share_sum / M
        cbar = abar + self.u

        # Hinge proximal via its exact knapsack dual.
        result = solve_quadratic_knapsack(
            a=np.full(n, M / self.rho),
            d=M * self.y * cbar - 1.0,
            c=self.y,
            r=0.0,
            lower=0.0,
            upper=self.C,
        )
        lam = result.x
        self.zbar = cbar + self.y * lam / self.rho
        self.u = cbar - self.zbar
        self.bias = self._recover_bias(lam)

        z_total = M * self.zbar
        z_change = float(np.sum((z_total - self.z_total_prev) ** 2))
        self.z_total_prev = z_total
        primal = float(np.linalg.norm(abar - self.zbar))
        correction = self.zbar - abar - self.u
        return correction, z_change, primal

    def _recover_bias(self, lam: np.ndarray) -> float:
        """KKT bias: ``y_i (zeta_i + b) = 1`` on free support vectors."""
        zeta = self.n_learners * self.zbar
        free = (lam > 1e-8) & (lam < self.C - 1e-8)
        if free.any():
            return float(np.mean(self.y[free] - zeta[free]))
        # No free SVs: bracket b by the two bound sets' margins.  A
        # point with lam = 0 needs y (zeta + b) >= 1, one at lam = C
        # needs y (zeta + b) <= 1, so ``y - zeta`` bounds b from below
        # for (lam = 0, y > 0) and (lam = C, y < 0), from above otherwise.
        margins = self.y - zeta
        at_zero, at_c = lam <= 1e-8, lam >= self.C - 1e-8
        upper_set = margins[at_zero & (self.y < 0) | at_c & (self.y > 0)]
        lower_set = margins[at_zero & (self.y > 0) | at_c & (self.y < 0)]
        hi = float(np.min(upper_set)) if upper_set.size else 0.0
        lo = float(np.max(lower_set)) if lower_set.size else 0.0
        return 0.5 * (hi + lo)


class VerticalLinearSVM:
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
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        self.max_iter = int(max_iter)
        self.tol = tol
        self.workers_: list[VerticalLinearWorker] = []
        self.reducer_: VerticalConsensusReducer | None = None
        self.partition_: VerticalPartition | None = None
        self.history_ = TrainingHistory()

    def _make_workers(self, partition: VerticalPartition) -> list[VerticalLinearWorker]:
        return [VerticalLinearWorker(block, rho=self.rho) for block in partition.blocks]

    def fit(
        self,
        partition: VerticalPartition,
        *,
        eval_X=None,
        eval_y=None,
        health_monitor: "HealthMonitor | None" = None,
    ) -> "VerticalLinearSVM":
        """Train; ``eval_X/eval_y`` enable the Fig. 4(g) accuracy series."""
        self.partition_ = partition
        self.workers_ = self._make_workers(partition)
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
        """Joint scores: every learner contributes its column block's share."""
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
