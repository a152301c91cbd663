"""Property-based tests of the ADMM trainers' core invariants.

On randomly generated small problems:
* the horizontal-linear consensus matches the centralized SVM direction;
* the consensus trajectory's tail movement is small relative to its head;
* workers' local duals always respect the box constraints;
* the vertical reducer's knapsack dual is always feasible.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.horizontal_linear import HorizontalLinearSVM
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.vertical_linear import VerticalLinearSVM
from repro.data.synthetic import make_blobs
from repro.svm.model import LinearSVC


@st.composite
def blob_problems(draw):
    n = draw(st.integers(40, 90))
    k = draw(st.integers(2, 5))
    delta = draw(st.floats(1.5, 4.0))
    seed = draw(st.integers(0, 10_000))
    return make_blobs(n, k, delta=delta, seed=seed)


class TestHorizontalLinearProperties:
    @given(blob_problems(), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_consensus_aligns_with_centralized(self, dataset, n_learners):
        parts = horizontal_partition(dataset, n_learners, seed=0)
        centralized = LinearSVC(C=10.0).fit(dataset.X, dataset.y)
        model = HorizontalLinearSVM(C=10.0, rho=10.0, max_iter=60).fit(parts)
        w_c = centralized.coef_
        w_d = model.consensus_weights_
        cos = float(w_c @ w_d / (np.linalg.norm(w_c) * np.linalg.norm(w_d) + 1e-12))
        assert cos > 0.9

    @given(blob_problems())
    @settings(max_examples=10, deadline=None)
    def test_trajectory_settles(self, dataset):
        parts = horizontal_partition(dataset, 2, seed=0)
        model = HorizontalLinearSVM(C=10.0, rho=10.0, max_iter=50).fit(parts)
        z = model.history_.z_changes
        assert np.mean(z[-5:]) < np.mean(z[:5])

    @given(blob_problems())
    @settings(max_examples=10, deadline=None)
    def test_worker_duals_respect_box(self, dataset):
        parts = horizontal_partition(dataset, 2, seed=0)
        model = HorizontalLinearSVM(C=5.0, rho=10.0, max_iter=10).fit(parts)
        for worker in model.workers_:
            assert np.all(worker._lambda >= -1e-10)
            assert np.all(worker._lambda <= 5.0 + 1e-10)

    @given(blob_problems())
    @settings(max_examples=10, deadline=None)
    def test_dual_balance_identity(self, dataset):
        # In scaled consensus ADMM, sum_m gamma_m stays ~0 (it starts at
        # 0 and each update adds w_m - z whose mean is -mean(gamma)).
        parts = horizontal_partition(dataset, 3, seed=0)
        model = HorizontalLinearSVM(C=10.0, rho=10.0, max_iter=20).fit(parts)
        gamma_mean = np.mean([w.gamma for w in model.workers_], axis=0)
        # Exact identity: z = mean(w) + mean(gamma) by construction.
        mean_w = np.mean([w.w for w in model.workers_], axis=0)
        np.testing.assert_allclose(
            model.consensus_weights_, mean_w + gamma_mean, atol=1e-8
        )


class TestVerticalLinearProperties:
    @given(blob_problems())
    # Ends rounds 240-340 (and 80) with no free support vector, which
    # reached the reducer's bias fallback when its bracket was inverted.
    @example(make_blobs(43, 2, delta=4.0, seed=433))
    @settings(max_examples=10, deadline=None)
    def test_accuracy_within_reach_of_centralized(self, dataset):
        if dataset.n_features < 2:
            return
        partition = vertical_partition(dataset, 2, seed=0)
        centralized = LinearSVC(C=10.0).fit(dataset.X, dataset.y)
        model = VerticalLinearSVM(C=10.0, rho=10.0, max_iter=80).fit(partition)
        assert model.score(dataset.X, dataset.y) >= centralized.score(dataset.X, dataset.y) - 0.1

    @given(blob_problems())
    @settings(max_examples=10, deadline=None)
    def test_reducer_dual_feasible_every_iteration(self, dataset):
        if dataset.n_features < 2:
            return
        partition = vertical_partition(dataset, 2, seed=0)
        model = VerticalLinearSVM(C=7.0, rho=10.0, max_iter=15).fit(partition)
        # u = -Y lambda / rho  =>  |u_i| <= C / rho.
        reducer = model.reducer_
        assert np.all(np.abs(reducer.u) <= 7.0 / 10.0 + 1e-8)
