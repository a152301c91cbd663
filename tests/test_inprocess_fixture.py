"""In-process fits replayed against a pinned fixture.

``fixtures/inprocess_fits.json`` holds, for each in-process trainer, the
per-round ``z_changes`` and eval accuracies, the vertical primal
residuals, and the decision scores on held-out rows of one small seeded
fit.  A change to the round loop must reproduce them: the trajectories
to rtol 1e-9, the scores to atol 1e-9 and the accuracies exactly.

Regenerate (only when a change is meant to move the numbers) with
``PYTHONPATH=src python tests/test_inprocess_fixture.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    HorizontalKernelSVM,
    HorizontalLinearSVM,
    HorizontalLogisticRegression,
    VerticalKernelSVM,
    VerticalLinearSVM,
    horizontal_partition,
    vertical_partition,
)
from repro.data import train_test_split
from repro.data.synthetic import make_linear_task
from repro.svm.kernels import RBFKernel

PATH = Path(__file__).parent / "fixtures" / "inprocess_fits.json"
FITS = ["h-lin-full", "h-lin-half", "h-ker", "v-lin", "v-ker", "logistic"]


def _fit(name: str):
    """One small seeded fit of ``name`` with an eval set; returns ``(model, X_test)``."""
    train, test = train_test_split(make_linear_task(120, 6, margin=0.3, noise=0.1, seed=3), seed=0)
    if name.startswith("v-"):
        partition = vertical_partition(train, 3, seed=0)
        if name == "v-lin":
            model = VerticalLinearSVM(max_iter=12)
        else:
            model = VerticalKernelSVM(RBFKernel(gamma=0.2), max_iter=12)
        return model.fit(partition, eval_X=test.X, eval_y=test.y), test.X
    parts = horizontal_partition(train, 4, seed=0)
    if name == "h-lin-full":
        model = HorizontalLinearSVM(max_iter=12, seed=0)
    elif name == "h-lin-half":
        model = HorizontalLinearSVM(max_iter=12, participation=0.5, seed=5)
    elif name == "h-ker":
        model = HorizontalKernelSVM(RBFKernel(gamma=0.2), n_landmarks=8, max_iter=12, seed=0)
    else:
        model = HorizontalLogisticRegression(lam=0.5, rho=5.0, max_iter=12)
    return model.fit(parts, eval_set=test), test.X


def _observe(name: str) -> dict:
    model, X_test = _fit(name)
    history = model.history_
    observed = {
        "z_changes": history.z_changes.tolist(),
        "accuracies": history.accuracies.tolist(),
        "scores": model.decision_function(X_test).tolist(),
    }
    if name.startswith("v-"):
        observed["primal_residuals"] = history.primal_residuals.tolist()
    return observed


@pytest.mark.parametrize("name", FITS)
def test_fit_matches_pinned_fixture(name):
    pinned = json.loads(PATH.read_text())[name]
    observed = _observe(name)
    np.testing.assert_allclose(observed["z_changes"], pinned["z_changes"], rtol=1e-9)
    assert observed["accuracies"] == pinned["accuracies"]
    np.testing.assert_allclose(observed["scores"], pinned["scores"], rtol=0, atol=1e-9)
    if name.startswith("v-"):
        np.testing.assert_allclose(
            observed["primal_residuals"], pinned["primal_residuals"], rtol=1e-9
        )


if __name__ == "__main__":
    PATH.write_text(json.dumps({name: _observe(name) for name in FITS}, indent=1) + "\n")
    sys.exit(0)
