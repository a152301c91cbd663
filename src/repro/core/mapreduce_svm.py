"""Mapper/Reducer adapters binding the ADMM workers to the Twister driver.

The in-process trainers in this package hold the numerical logic; this
module wraps the *same worker classes* as
:class:`~repro.cluster.twister.IterativeMapper` /
:class:`~repro.cluster.twister.IterativeReducer` implementations so the
identical mathematics runs on the simulated cluster — with raw data
pinned to its node by HDFS and local results leaving only through the
aggregator (the secure summation protocol, in the paper's
configuration).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cluster.twister import (
    IterativeMapper,
    IterativeReducer,
    MapperContext,
    ReducerContext,
)
from repro.core.horizontal_kernel import HorizontalKernelWorker
from repro.core.horizontal_linear import HorizontalLinearWorker
from repro.core.results import IterationRecord, TrainingHistory
from repro.core.vertical_kernel import VerticalKernelWorker
from repro.core.vertical_linear import VerticalConsensusReducer, VerticalLinearWorker
from repro.svm.kernels import Kernel

__all__ = [
    "HorizontalConsensusReducer",
    "HorizontalSVMMapper",
    "VerticalReducerAdapter",
    "VerticalSVMMapper",
]


class HorizontalSVMMapper(IterativeMapper):
    """Map() task for the horizontal schemes (linear or kernel).

    The HDFS partition payload is a dict with the learner's private
    ``X``/``y`` plus the shared hyperparameters; ``configure`` builds the
    appropriate worker, ``map`` delegates one ADMM local step to it.
    """

    def __init__(self) -> None:
        self.worker: HorizontalLinearWorker | HorizontalKernelWorker | None = None

    def configure(self, partition: dict[str, Any], context: MapperContext) -> None:
        """Build the linear or kernel worker from the HDFS payload."""
        kernel: Kernel | None = partition.get("kernel")
        common = dict(
            C=partition["C"],
            rho=partition["rho"],
            n_learners=partition["n_learners"],
            qp_tol=partition.get("qp_tol", 1e-8),
            qp_max_sweeps=partition.get("qp_max_sweeps", 500),
        )
        if kernel is None:
            self.worker = HorizontalLinearWorker(partition["X"], partition["y"], **common)
        else:
            self.worker = HorizontalKernelWorker(
                partition["X"],
                partition["y"],
                partition["landmarks"],
                kernel=kernel,
                **common,
            )

    def map(self, broadcast: Any, context: MapperContext) -> dict[str, np.ndarray]:
        """One ADMM local step against the broadcast consensus ``(z, s)``.

        Emits an ``admm.local_step`` span tagged with the mapper's node
        and iteration, carrying the local QP's ``qp_iterations`` and
        ``qp_kkt_residual``; a solve that misses its tolerance also
        increments ``admm.qp_unconverged``.
        """
        if self.worker is None:
            raise RuntimeError("mapper was never configured")
        with context.network.tracer.span(
            "admm.local_step",
            kind="trainer",
            node=context.node_id,
            iteration=context.iteration,
        ) as span:
            out = self.worker.step(broadcast["z"], broadcast["s"])
            qp = self.worker.last_qp
            assert qp is not None
            span.attrs.update(
                qp_iterations=qp.iterations, qp_kkt_residual=qp.kkt_residual
            )
            if not qp.converged:
                context.network.metrics.increment("admm.qp_unconverged")
            return out


class HorizontalConsensusReducer(IterativeReducer):
    """Reduce() task for the horizontal schemes: average and re-broadcast.

    Receives only the *sums* of the consensus contributions (``w_m +
    gamma_m`` / ``G w_m + r_m`` and ``b_m + beta_m``)
    (the secure summation output), divides by M, and records the
    ``||z^{t+1}-z^t||^2`` series (Fig. 4(a)/(b)).
    """

    def __init__(self, n_consensus: int, *, tol: float | None = None) -> None:
        if n_consensus < 1:
            raise ValueError(f"n_consensus must be >= 1, got {n_consensus}")
        self.n_consensus = int(n_consensus)
        self.tol = tol
        self.z = np.zeros(n_consensus)
        self.s = 0.0
        self.history = TrainingHistory()

    def initial_state(self) -> dict[str, Any]:
        """Zero consensus before the first iteration."""
        return {"z": self.z, "s": self.s}

    def reduce(
        self, sums: dict[str, np.ndarray], n_mappers: int, context: ReducerContext
    ) -> tuple[dict[str, Any], bool]:
        """Average the securely-summed contributions into the new consensus.

        Emits an ``admm.consensus_step`` span and an
        ``admm.convergence_check`` span carrying ``z_change_sq`` and the
        convergence verdict as attributes.
        """
        tracer = context.network.tracer
        with tracer.span(
            "admm.consensus_step", kind="trainer", node=context.node_id
        ):
            z_new = np.asarray(sums["z_contrib"], dtype=float).ravel() / n_mappers
            s_new = float(np.asarray(sums["s_contrib"]).ravel()[0]) / n_mappers
        with tracer.span(
            "admm.convergence_check", kind="trainer", node=context.node_id
        ) as check:
            z_change = float(np.sum((z_new - self.z) ** 2) + (s_new - self.s) ** 2)
            converged = self.tol is not None and z_change <= self.tol
            check.attrs.update(z_change_sq=z_change, tol=self.tol, converged=converged)
        self.z, self.s = z_new, s_new
        # The secure path delivers only the sums w_m + gamma_m, so the
        # Reducer cannot isolate mean(w_m) to measure the residual.
        self.history.append(
            IterationRecord(
                iteration=context.iteration,
                z_change_sq=z_change,
                primal_residual=float("nan"),
                residual_available=False,
            )
        )
        return {"z": self.z, "s": self.s}, converged


class VerticalSVMMapper(IterativeMapper):
    """Map() task for the vertical schemes (linear or kernel)."""

    def __init__(self) -> None:
        self.worker: VerticalLinearWorker | VerticalKernelWorker | None = None

    def configure(self, partition: dict[str, Any], context: MapperContext) -> None:
        """Build the linear or kernel column-block worker."""
        kernel: Kernel | None = partition.get("kernel")
        if kernel is None:
            self.worker = VerticalLinearWorker(partition["X"], rho=partition["rho"])
        else:
            self.worker = VerticalKernelWorker(
                partition["X"], kernel=kernel, rho=partition["rho"]
            )

    def map(self, broadcast: Any, context: MapperContext) -> dict[str, np.ndarray]:
        """One ridge update against the broadcast correction vector.

        Emits an ``admm.local_step`` span tagged with the mapper's node
        and iteration.
        """
        if self.worker is None:
            raise RuntimeError("mapper was never configured")
        with context.network.tracer.span(
            "admm.local_step",
            kind="trainer",
            node=context.node_id,
            iteration=context.iteration,
        ):
            return self.worker.step(broadcast["correction"])


class VerticalReducerAdapter(IterativeReducer):
    """Reduce() task for the vertical schemes.

    Wraps :class:`~repro.core.vertical_linear.VerticalConsensusReducer`
    (the hinge proximal / knapsack logic) behind the Twister interface.
    The labels are Reducer-side state — the paper's assumption that
    labels are shared among all learners.
    """

    def __init__(
        self,
        y: np.ndarray,
        *,
        C: float,
        rho: float,
        n_learners: int,
        tol: float | None = None,
    ) -> None:
        self.logic = VerticalConsensusReducer(y, C=C, rho=rho, n_learners=n_learners)
        self.tol = tol
        self.history = TrainingHistory()

    def initial_state(self) -> dict[str, Any]:
        """Zero correction before the first iteration."""
        return {"correction": np.zeros(self.logic.y.shape[0]), "bias": 0.0}

    def reduce(
        self, sums: dict[str, np.ndarray], n_mappers: int, context: ReducerContext
    ) -> tuple[dict[str, Any], bool]:
        """Run the hinge-proximal/knapsack consensus step on the share sum.

        Emits an ``admm.consensus_step`` span and an
        ``admm.convergence_check`` span carrying ``z_change_sq`` and the
        primal residual as attributes.
        """
        tracer = context.network.tracer
        with tracer.span(
            "admm.consensus_step", kind="trainer", node=context.node_id
        ):
            correction, z_change, primal = self.logic.step(
                np.asarray(sums["share"], dtype=float)
            )
        with tracer.span(
            "admm.convergence_check", kind="trainer", node=context.node_id
        ) as check:
            converged = self.tol is not None and z_change <= self.tol
            check.attrs.update(
                z_change_sq=z_change,
                primal_residual=primal,
                tol=self.tol,
                converged=converged,
            )
        self.history.append(
            IterationRecord(
                iteration=context.iteration,
                z_change_sq=z_change,
                primal_residual=primal,
            )
        )
        return {"correction": correction, "bias": self.logic.bias}, converged
