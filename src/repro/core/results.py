"""Training-history records shared by all four algorithm variants.

Fig. 4 of the paper plots, per ADMM iteration, (a–d) the consensus
movement ``||z^{t+1} - z^t||^2`` and (e–h) the correct classification
ratio.  :class:`TrainingHistory` collects exactly those series plus the
primal residual, so the experiment harness can print any panel from any
trained model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IterationRecord", "TrainingHistory"]


@dataclass(frozen=True)
class IterationRecord:
    """Metrics for one ADMM iteration.

    Attributes
    ----------
    iteration:
        0-based iteration index.
    z_change_sq:
        ``||z^{t+1} - z^t||_2^2`` — the convergence quantity of
        Fig. 4(a)–(d).
    primal_residual:
        ``||abar - zbar||_2`` (vertical): how far the learners are from
        consensus; ``nan`` for the horizontal schemes.
    accuracy:
        Correct ratio on the evaluation set, if one was supplied
        (Fig. 4(e)–(h)); ``nan`` otherwise.
    residual_available:
        Whether ``primal_residual`` was actually measured.  The
        horizontal Reducer only ever sees the *sums* ``w_m + gamma_m``,
        so it cannot separate the dual terms to compute the residual —
        it records ``nan`` with ``residual_available=False`` instead of
        a silent placeholder, and downstream consumers (the health
        monitors, the run ledger) skip the series rather than tripping
        on NaN.
    """

    iteration: int
    z_change_sq: float
    primal_residual: float
    accuracy: float = float("nan")
    residual_available: bool = True


@dataclass
class TrainingHistory:
    """Accumulates :class:`IterationRecord` objects during a fit."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        """Add one iteration's record."""
        self.records.append(record)

    @property
    def n_iterations(self) -> int:
        return len(self.records)

    @property
    def z_changes(self) -> np.ndarray:
        """The Fig. 4(a)-(d) series."""
        return np.array([r.z_change_sq for r in self.records])

    @property
    def accuracies(self) -> np.ndarray:
        """The Fig. 4(e)-(h) series."""
        return np.array([r.accuracy for r in self.records])

    @property
    def primal_residuals(self) -> np.ndarray:
        """Primal-residual series (``nan`` where not measured —
        check :attr:`residuals_available` before interpreting)."""
        return np.array([r.primal_residual for r in self.records])

    @property
    def residuals_available(self) -> bool:
        """True when every record carries a measured primal residual."""
        return all(r.residual_available for r in self.records)

    def final_accuracy(self) -> float:
        """Last recorded accuracy (nan if never evaluated)."""
        return self.records[-1].accuracy if self.records else float("nan")

    def __len__(self) -> int:
        return len(self.records)
