"""The paper's primary contribution: privacy-preserving consensus SVMs.

Four algorithm variants (Section IV), plus consensus logistic
regression, all trained by one ADMM round — broadcast, one local step
per learner, sum, reduce — in
:meth:`~repro.cluster.twister.IterativeMapReduceDriver.run`, with the
Map() and Reduce() tasks of :mod:`repro.core.mapreduce_svm`.  Each SVM
variant runs over either of two transports:

* **in memory** (:class:`HorizontalLinearSVM`,
  :class:`HorizontalKernelSVM`, :class:`VerticalLinearSVM`,
  :class:`VerticalKernelSVM`, :class:`HorizontalLogisticRegression`):
  state and outputs are passed by reference and summed in NumPy, with
  no trace — used by unit tests, ablations, and the Fig. 4 accuracy
  series;
* on the **simulated Hadoop/Twister cluster**
  (:class:`PrivacyPreservingSVM`), with data-local HDFS partitions and
  the coalition-resistant secure summation protocol at the Reducer;
  it predicts through the in-process variant's own path.
"""

from repro.core.feature_selection import (
    SecureFeatureSelection,
    correlation_scores,
    secure_feature_selection,
    vertical_feature_selection,
)
from repro.core.horizontal_kernel import (
    HorizontalKernelSVM,
    HorizontalKernelWorker,
    sample_landmarks,
)
from repro.core.horizontal_linear import HorizontalLinearSVM, HorizontalLinearWorker
from repro.core.horizontal_logistic import HorizontalLogisticRegression, LogisticWorker
from repro.core.partitioning import (
    VerticalPartition,
    horizontal_partition,
    vertical_partition,
)
from repro.core.results import IterationRecord, TrainingHistory
from repro.core.trainer import PrivacyPreservingSVM
from repro.core.vertical_kernel import VerticalKernelSVM, VerticalKernelWorker
from repro.core.vertical_linear import (
    VerticalConsensusReducer,
    VerticalLinearSVM,
    VerticalLinearWorker,
)

__all__ = [
    "HorizontalKernelSVM",
    "SecureFeatureSelection",
    "correlation_scores",
    "secure_feature_selection",
    "vertical_feature_selection",
    "HorizontalKernelWorker",
    "HorizontalLinearSVM",
    "HorizontalLinearWorker",
    "HorizontalLogisticRegression",
    "IterationRecord",
    "LogisticWorker",
    "PrivacyPreservingSVM",
    "TrainingHistory",
    "VerticalConsensusReducer",
    "VerticalKernelSVM",
    "VerticalKernelWorker",
    "VerticalLinearSVM",
    "VerticalLinearWorker",
    "VerticalPartition",
    "horizontal_partition",
    "sample_landmarks",
    "vertical_partition",
]
