"""Tests for the horizontal (linear and kernel) consensus SVMs.

The key correctness facts, per the paper's Lemmas 4.1/4.2:
* the consensus solution matches the centralized SVM (Lemma 4.1);
* the iterates converge — z-changes decay monotonically in trend
  (Lemma 4.2);
* each learner's local model agrees with the consensus at convergence.
"""

import numpy as np
import pytest

from repro.core.horizontal_kernel import (
    HorizontalKernelSVM,
    HorizontalKernelWorker,
    sample_landmarks,
)
from repro.core.horizontal_linear import HorizontalLinearSVM, HorizontalLinearWorker
from repro.core.partitioning import horizontal_partition
from repro.data.synthetic import make_xor_task
from repro.svm.kernels import RBFKernel
from repro.svm.model import LinearSVC


@pytest.fixture
def cancer_parts(cancer_split):
    train, test = cancer_split
    return horizontal_partition(train, 4, seed=0), train, test


class TestHorizontalLinearConvergence:
    def test_matches_centralized_solution(self, cancer_parts):
        parts, train, test = cancer_parts
        centralized = LinearSVC(C=50.0).fit(train.X, train.y)
        model = HorizontalLinearSVM(C=50.0, rho=100.0, max_iter=150).fit(parts)
        # Consensus hyperplane close to the centralized one (Lemma 4.1).
        cos = np.dot(model.consensus_weights_, centralized.coef_) / (
            np.linalg.norm(model.consensus_weights_) * np.linalg.norm(centralized.coef_)
        )
        assert cos > 0.99
        assert abs(model.score(test.X, test.y) - centralized.score(test.X, test.y)) < 0.05

    def test_z_changes_decay(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = HorizontalLinearSVM(C=50.0, rho=100.0, max_iter=60).fit(parts)
        z = model.history_.z_changes
        assert z[-1] < z[0] * 1e-2

    def test_local_models_reach_consensus(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = HorizontalLinearSVM(C=50.0, rho=100.0, max_iter=150).fit(parts)
        for worker in model.workers_:
            assert np.linalg.norm(worker.w - model.consensus_weights_) < 0.1

    def test_accuracy_series_recorded(self, cancer_parts):
        parts, _, test = cancer_parts
        model = HorizontalLinearSVM(max_iter=10).fit(parts, eval_set=test)
        accs = model.history_.accuracies
        assert len(accs) == 10
        assert np.all((accs >= 0) & (accs <= 1))

    def test_no_eval_set_gives_nan_accuracy(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = HorizontalLinearSVM(max_iter=5).fit(parts)
        assert np.all(np.isnan(model.history_.accuracies))

    def test_early_stop_on_tol(self, cancer_parts):
        parts, _, _ = cancer_parts
        model = HorizontalLinearSVM(max_iter=200, tol=1e-4).fit(parts)
        assert model.history_.n_iterations < 200

    def test_more_learners_still_converges(self, cancer_split):
        train, test = cancer_split
        parts = horizontal_partition(train, 8, seed=0)
        model = HorizontalLinearSVM(C=50.0, rho=100.0, max_iter=120).fit(parts)
        assert model.score(test.X, test.y) > 0.85

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HorizontalLinearSVM().predict(np.ones((1, 2)))

    def test_partition_feature_mismatch(self, cancer_parts):
        parts, _, _ = cancer_parts
        bad = parts[0].feature_subset(np.array([0, 1]))
        with pytest.raises(ValueError, match="feature dimension"):
            HorizontalLinearSVM().fit([bad, parts[1]])

    def test_single_partition_rejected(self, cancer_parts):
        parts, _, _ = cancer_parts
        with pytest.raises(ValueError, match="at least 2"):
            HorizontalLinearSVM().fit(parts[:1])


class TestLocalSolveAccuracy:
    """The default local QP tolerance is tight enough for the consensus."""

    def test_linear_consensus_matches_exact_local_solves(self, cancer_parts):
        parts, _, test = cancer_parts
        runs = [
            HorizontalLinearSVM(C=50.0, rho=100.0, max_iter=30, qp_tol=qp_tol).fit(parts)
            for qp_tol in (1e-8, 1e-12)
        ]
        np.testing.assert_allclose(
            runs[0].consensus_weights_, runs[1].consensus_weights_, atol=1e-6
        )
        assert runs[0].consensus_bias_ == pytest.approx(runs[1].consensus_bias_, abs=1e-6)
        assert runs[0].score(test.X, test.y) == runs[1].score(test.X, test.y)
        assert all(w.last_qp.converged for run in runs for w in run.workers_)

    def test_kernel_consensus_matches_exact_local_solves(self):
        ds = make_xor_task(200, seed=3)
        parts = horizontal_partition(ds, 4, seed=0)
        runs = [
            HorizontalKernelSVM(
                RBFKernel(gamma=1.0),
                n_landmarks=15,
                landmark_scale=1.5,
                max_iter=30,
                seed=0,
                qp_tol=qp_tol,
            ).fit(parts)
            for qp_tol in (1e-8, 1e-12)
        ]
        np.testing.assert_allclose(runs[0].consensus_, runs[1].consensus_, atol=1e-6)
        assert runs[0].consensus_bias_ == pytest.approx(runs[1].consensus_bias_, abs=1e-6)
        assert runs[0].score(ds.X, ds.y) == runs[1].score(ds.X, ds.y)
        assert all(w.last_qp.converged for run in runs for w in run.workers_)


class TestHorizontalLinearWorker:
    def test_step_output_keys_and_shapes(self, cancer_parts):
        parts, _, _ = cancer_parts
        worker = HorizontalLinearWorker(parts[0].X, parts[0].y, n_learners=4)
        out = worker.step(np.zeros(parts[0].n_features), 0.0)
        assert set(out) == {"z_contrib", "s_contrib"}
        assert out["z_contrib"].shape == (parts[0].n_features,)
        assert out["s_contrib"].shape == (1,)

    def test_wrong_consensus_length(self, cancer_parts):
        parts, _, _ = cancer_parts
        worker = HorizontalLinearWorker(parts[0].X, parts[0].y, n_learners=4)
        with pytest.raises(ValueError, match="length"):
            worker.step(np.zeros(3), 0.0)

    def test_dual_variables_update_after_first_step(self, cancer_parts):
        parts, _, _ = cancer_parts
        worker = HorizontalLinearWorker(parts[0].X, parts[0].y, n_learners=4)
        worker.step(np.zeros(parts[0].n_features), 0.0)
        assert np.allclose(worker.gamma, 0.0)  # no consensus seen yet
        worker.step(np.ones(parts[0].n_features), 0.0)
        assert not np.allclose(worker.gamma, 0.0)

    def test_local_decision_function(self, cancer_parts):
        parts, _, test = cancer_parts
        worker = HorizontalLinearWorker(parts[0].X, parts[0].y, n_learners=4)
        worker.step(np.zeros(parts[0].n_features), 0.0)
        scores = worker.local_decision_function(test.X)
        assert scores.shape == (test.n_samples,)


class TestHorizontalKernel:
    def test_solves_xor_where_linear_fails(self):
        ds = make_xor_task(320, seed=2)
        parts = horizontal_partition(ds, 4, seed=0)
        linear = HorizontalLinearSVM(C=50.0, rho=100.0, max_iter=40).fit(parts)
        kernel = HorizontalKernelSVM(
            RBFKernel(gamma=1.0),
            C=50.0,
            rho=100.0,
            n_landmarks=20,
            landmark_scale=1.5,
            max_iter=40,
            seed=0,
        ).fit(parts)
        assert linear.score(ds.X, ds.y) < 0.8
        assert kernel.score(ds.X, ds.y) > 0.95

    def test_convergence_decay(self):
        ds = make_xor_task(200, seed=3)
        parts = horizontal_partition(ds, 4, seed=0)
        model = HorizontalKernelSVM(
            RBFKernel(gamma=1.0), n_landmarks=15, landmark_scale=1.5, max_iter=40, seed=0
        ).fit(parts)
        z = model.history_.z_changes
        assert z[-1] < z[0] * 1e-1

    def test_all_learners_agree_at_convergence(self):
        ds = make_xor_task(240, seed=4)
        parts = horizontal_partition(ds, 4, seed=0)
        model = HorizontalKernelSVM(
            RBFKernel(gamma=1.0), n_landmarks=15, landmark_scale=1.5, max_iter=60, seed=0
        ).fit(parts)
        preds = [
            np.sign(w.local_decision_function(ds.X[:50])) for w in model.workers_
        ]
        agreement = np.mean(preds[0] == preds[1])
        assert agreement > 0.9

    def test_more_landmarks_do_not_hurt(self):
        ds = make_xor_task(240, seed=5)
        parts = horizontal_partition(ds, 4, seed=0)
        accs = {}
        for n_land in (5, 30):
            model = HorizontalKernelSVM(
                RBFKernel(gamma=1.0),
                n_landmarks=n_land,
                landmark_scale=1.5,
                max_iter=40,
                seed=0,
            ).fit(parts)
            accs[n_land] = model.score(ds.X, ds.y)
        assert accs[30] >= accs[5] - 0.05

    def test_explicit_landmarks_accepted(self):
        ds = make_xor_task(160, seed=6)
        parts = horizontal_partition(ds, 2, seed=0)
        landmarks = sample_landmarks(10, 2, scale=1.5, seed=1)
        model = HorizontalKernelSVM(
            RBFKernel(gamma=1.0), landmarks=landmarks, max_iter=20
        ).fit(parts)
        np.testing.assert_array_equal(model.landmarks_, landmarks)

    def test_worker_representer_matches_decision(self):
        ds = make_xor_task(120, seed=7)
        parts = horizontal_partition(ds, 2, seed=0)
        landmarks = sample_landmarks(8, 2, scale=1.5, seed=2)
        worker = HorizontalKernelWorker(
            parts[0].X, parts[0].y, landmarks, kernel=RBFKernel(gamma=1.0), n_learners=2
        )
        worker.step(np.zeros(8), 0.0)
        a, c, b = worker.representer_coefficients()
        kernel = RBFKernel(gamma=1.0)
        manual = kernel(ds.X[:10], parts[0].X) @ a + kernel(ds.X[:10], landmarks) @ c + b
        np.testing.assert_allclose(
            worker.local_decision_function(ds.X[:10]), manual, atol=1e-10
        )

    def test_landmark_dimension_mismatch(self):
        ds = make_xor_task(100, seed=8)
        parts = horizontal_partition(ds, 2, seed=0)
        with pytest.raises(ValueError, match="feature dimension"):
            HorizontalKernelWorker(
                parts[0].X,
                parts[0].y,
                np.zeros((5, 9)),
                kernel=RBFKernel(gamma=1.0),
                n_learners=2,
            )

    def test_sample_landmarks_validation(self):
        with pytest.raises(ValueError):
            sample_landmarks(0, 3)

    def test_eval_learner_out_of_range(self):
        ds = make_xor_task(100, seed=9)
        parts = horizontal_partition(ds, 2, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            HorizontalKernelSVM(
                RBFKernel(gamma=1.0), eval_learner=5, max_iter=2
            ).fit(parts)
