"""The ADMM round's Map() and Reduce() tasks, shared by every variant.

Every trainer in this package runs the same round —
:meth:`~repro.cluster.twister.IterativeMapReduceDriver.run` — with the
tasks defined here:

* :class:`ADMMMapper` builds one learner's worker from its partition
  payload and runs that worker's local ``step`` once per round;
* :class:`HorizontalConsensusReducer` averages the summed horizontal
  contributions into the consensus ``(z, s)``;
* :class:`VerticalConsensusReducer` turns the summed vertical score
  shares into the broadcast correction (the hinge proximal step).

The reducers see only *sums* of the learners' outputs, which is what
the secure summation protocol delivers on the cluster.  Each records
one :class:`~repro.core.results.IterationRecord` per round and gives the
``tol`` verdict.

:class:`ConsensusModel` is the fit/predict plumbing of the in-process
trainers: a fit runs the rounds on an
:class:`~repro.cluster.twister.InMemoryTransport`, and
:class:`~repro.core.trainer.PrivacyPreservingSVM` runs the same payloads
and reducer on the simulated cluster and predicts through the same
``decision_function``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Self

import numpy as np

from repro.cluster.twister import (
    InMemoryTransport,
    IterationResult,
    IterativeMapper,
    IterativeMapReduceDriver,
    IterativeReducer,
    MapperContext,
    ReducerContext,
)
from repro.core.results import IterationRecord, TrainingHistory
from repro.data.dataset import Dataset
from repro.svm.knapsack import QuadraticKnapsack
from repro.svm.model import accuracy
from repro.utils.validation import check_labels, check_matrix, check_positive

__all__ = [
    "ADMMMapper",
    "Classifier",
    "ConsensusModel",
    "HorizontalConsensusReducer",
    "VerticalConsensusReducer",
    "VerticalReducerAdapter",
    "check_horizontal_partitions",
]


def check_horizontal_partitions(partitions: list[Dataset]) -> int:
    """Require at least 2 learners sharing one feature dimension; returns it."""
    if len(partitions) < 2:
        raise ValueError("need at least 2 partitions")
    n_features = partitions[0].n_features
    if any(p.n_features != n_features for p in partitions):
        raise ValueError("all partitions must share the feature dimension")
    return n_features


class ADMMMapper(IterativeMapper):
    """Map() task of every variant: one learner's worker, stepped per round.

    The partition payload is a dict whose ``"worker"`` entry is the
    worker class and whose other entries are its constructor arguments
    (the learner's private rows plus the shared hyperparameters).
    Horizontal workers step against the broadcast consensus ``(z, s)``,
    vertical ones against the broadcast ``correction``.
    """

    def __init__(self) -> None:
        self.worker: Any = None

    def configure(self, partition: dict[str, Any], context: MapperContext) -> None:
        """Build the worker from the payload."""
        params = dict(partition)
        self.worker = params.pop("worker")(**params)

    def map(self, broadcast: Any, context: MapperContext) -> dict[str, np.ndarray]:
        """One ADMM local step against the broadcast state.

        Emits an ``admm.local_step`` span tagged with the mapper's node
        and iteration.  For workers that solve a local box-QP (the
        horizontal SVMs) the span carries its ``qp_iterations`` and
        ``qp_kkt_residual``, and a solve that misses its tolerance
        increments ``admm.qp_unconverged``.
        """
        worker = self.worker
        if worker is None:
            raise RuntimeError("mapper was never configured")
        with context.network.tracer.span(
            "admm.local_step",
            kind="trainer",
            node=context.node_id,
            iteration=context.iteration,
        ) as span:
            if "correction" in broadcast:
                out = worker.step(broadcast["correction"])
            else:
                out = worker.step(broadcast["z"], broadcast["s"])
            qp = getattr(worker, "last_qp", None)
            if qp is not None:
                span.attrs.update(
                    qp_iterations=qp.iterations, qp_kkt_residual=qp.kkt_residual
                )
                if not qp.converged:
                    context.network.metrics.increment("admm.qp_unconverged")
        return out


class _RecordingReducer(IterativeReducer):
    """The per-round bookkeeping both consensus reducers share."""

    def __init__(self, tol: float | None) -> None:
        self.tol = tol
        self.history = TrainingHistory()

    def _record(
        self,
        context: ReducerContext,
        z_change: float,
        primal: float | None = None,
    ) -> bool:
        """Give the ``tol`` verdict and append the round's record.

        Emits an ``admm.convergence_check`` span carrying ``z_change_sq``,
        the primal residual when one was measured, and the verdict.
        ``primal=None`` records ``nan`` with ``residual_available=False``.
        """
        measured = {"z_change_sq": z_change}
        if primal is not None:
            measured["primal_residual"] = primal
        with context.network.tracer.span(
            "admm.convergence_check", kind="trainer", node=context.node_id, **measured
        ) as check:
            converged = self.tol is not None and z_change <= self.tol
            check.attrs.update(tol=self.tol, converged=converged)
        self.history.append(
            IterationRecord(
                iteration=context.iteration,
                z_change_sq=z_change,
                primal_residual=float("nan") if primal is None else primal,
                residual_available=primal is not None,
            )
        )
        return converged


class HorizontalConsensusReducer(_RecordingReducer):
    """Reduce() task for the horizontal schemes: average and re-broadcast.

    Receives only the *sums* of the consensus contributions (``w_m +
    gamma_m`` / ``G w_m + r_m`` and ``b_m + beta_m``) and forms

        z = rho sum_m (w_m + gamma_m) / (lam + M rho),   s = sum_m (b_m + beta_m) / M,

    the z-update of the consensus problem with ``(lam/2)||z||^2`` at the
    Reducer.  ``lam = 0`` (the SVMs) is the plain mean of paper eqs.
    (13b/e); consensus logistic regression passes its L2 strength.  The
    record carries the ``||z^{t+1}-z^t||^2`` series (Fig. 4(a)/(b)) and
    no primal residual: the sums do not separate ``w_m`` from its dual.
    """

    def __init__(
        self,
        n_consensus: int,
        *,
        tol: float | None = None,
        lam: float = 0.0,
        rho: float = 1.0,
    ) -> None:
        if n_consensus < 1:
            raise ValueError(f"n_consensus must be >= 1, got {n_consensus}")
        super().__init__(tol)
        self.n_consensus = int(n_consensus)
        self.lam = lam
        self.rho = rho
        self.z = np.zeros(n_consensus)
        self.s = 0.0

    def initial_state(self) -> dict[str, Any]:
        """Zero consensus before the first iteration."""
        return {"z": self.z, "s": self.s}

    def reduce(
        self, sums: dict[str, np.ndarray], n_mappers: int, context: ReducerContext
    ) -> tuple[dict[str, Any], bool]:
        """Average the summed contributions into the new consensus.

        Emits an ``admm.consensus_step`` span, then the
        ``admm.convergence_check`` span.
        """
        with context.network.tracer.span(
            "admm.consensus_step", kind="trainer", node=context.node_id
        ):
            total = np.asarray(sums["z_contrib"], dtype=float).ravel()
            if self.lam:
                z_new = self.rho * total / (self.lam + n_mappers * self.rho)
            else:
                z_new = total / n_mappers
            s_new = float(np.asarray(sums["s_contrib"]).ravel()[0]) / n_mappers
            z_change = float(np.sum((z_new - self.z) ** 2) + (s_new - self.s) ** 2)
        self.z, self.s = z_new, s_new
        converged = self._record(context, z_change)
        return {"z": self.z, "s": self.s}, converged


class VerticalConsensusReducer(_RecordingReducer):
    """Reduce() task for both vertical schemes (paper Section IV-C).

    Holds the shared labels — the paper's assumption that labels are
    shared among all learners — and the ADMM running state
    ``(zbar, u)``; consumes the summed score shares; broadcasts the
    correction and the current bias.
    """

    def __init__(
        self,
        y: np.ndarray,
        *,
        C: float = 50.0,
        rho: float = 100.0,
        n_learners: int,
        tol: float | None = None,
    ) -> None:
        super().__init__(tol)
        self.y = check_labels(y, "y")
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        if n_learners < 2:
            raise ValueError(f"n_learners must be >= 2, got {n_learners}")
        self.n_learners = int(n_learners)
        n = self.y.shape[0]
        # The hinge proximal's knapsack dual: only its linear term
        # changes from round to round.
        self._knapsack = QuadraticKnapsack(
            a=np.full(n, float(self.n_learners) / self.rho),
            c=self.y,
            r=0.0,
            lower=0.0,
            upper=self.C,
        )
        self.zbar = np.zeros(n)
        self.u = np.zeros(n)
        self.bias = 0.0
        self.z_total_prev = np.zeros(n)

    def initial_state(self) -> dict[str, Any]:
        """Zero correction before the first iteration."""
        return {"correction": np.zeros(self.y.shape[0]), "bias": 0.0}

    def reduce(
        self, sums: dict[str, np.ndarray], n_mappers: int, context: ReducerContext
    ) -> tuple[dict[str, Any], bool]:
        """Run the hinge-proximal/knapsack consensus step on the share sum.

        Emits an ``admm.consensus_step`` span, then the
        ``admm.convergence_check`` span with the primal residual.
        """
        with context.network.tracer.span(
            "admm.consensus_step", kind="trainer", node=context.node_id
        ):
            correction, z_change, primal = self.step(sums["share"])
        converged = self._record(context, z_change, primal)
        return {"correction": correction, "bias": self.bias}, converged

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
        lam = self._knapsack.solve(M * self.y * cbar - 1.0).x
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


#: The name the cluster trainer's vertical Reduce() task went by.
VerticalReducerAdapter = VerticalConsensusReducer


class Classifier:
    """``predict`` and ``score`` from a subclass's ``decision_function``."""

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Decision scores of rows ``X``."""
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted -1/+1 labels."""
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on ``(X, y)``."""
        return accuracy(check_labels(y, "y"), self.predict(X))


class ConsensusModel(Classifier):
    """Fit/predict plumbing of the in-process trainers.

    A subclass turns its data into one Map() payload per learner and a
    Reduce() task (:meth:`_prepare`), publishes the model as its fitted
    attributes (:meth:`_publish`) and scores validated rows
    (:meth:`_scores`, also used for the per-round eval accuracy).
    """

    def __init__(self, *, max_iter: int, tol: float | None) -> None:
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.max_iter = int(max_iter)
        self.tol = tol
        self.workers_: list[Any] = []
        self.reducer_: Any = None
        self.history_ = TrainingHistory()

    def _prepare(self, data: Any) -> tuple[list[dict[str, Any]], Any]:
        raise NotImplementedError

    def _publish(self, workers: list[Any], reducer: Any) -> None:
        self.workers_ = workers
        self.reducer_ = reducer

    def _scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _fit(
        self,
        data: Any,
        eval_X: np.ndarray | None = None,
        eval_y: np.ndarray | None = None,
        **driver_options: Any,
    ) -> Self:
        """Run the rounds on an :class:`~repro.cluster.twister.InMemoryTransport`."""
        if (eval_X is None) != (eval_y is None):
            raise ValueError("eval_X and eval_y go together: pass both or neither")
        if eval_X is not None:
            X = check_matrix(eval_X, "eval_X")
            y = check_labels(eval_y, "eval_y", length=X.shape[0])
        payloads, reducer = self._prepare(data)
        driver = IterativeMapReduceDriver(
            InMemoryTransport(), ADMMMapper, reducer, **driver_options
        )
        driver.setup(payloads)
        workers = [mapper.worker for mapper in driver.mappers()]
        self.history_ = reducer.history

        def score_round(result: IterationResult) -> None:
            self._publish(workers, reducer)
            records = reducer.history.records
            acc = accuracy(y, np.where(self._scores(X) >= 0, 1.0, -1.0))
            records[-1] = replace(records[-1], accuracy=acc)

        if eval_X is not None:
            driver.on_round = score_round
        driver.run(payloads, max_iterations=self.max_iter)
        self._publish(workers, reducer)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Decision scores of rows ``X`` under the fitted model."""
        return self._scores(check_matrix(X, "X"))
