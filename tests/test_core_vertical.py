"""Tests for the vertical (linear and kernel) consensus SVMs."""

import numpy as np
import pytest

from repro.core.partitioning import vertical_partition
from repro.core.vertical_kernel import VerticalKernelSVM, VerticalKernelWorker
from repro.core.vertical_linear import (
    VerticalConsensusReducer,
    VerticalLinearSVM,
    VerticalLinearWorker,
)
from repro.data.synthetic import make_xor_task
from repro.svm.kernels import RBFKernel
from repro.svm.model import LinearSVC


@pytest.fixture
def cancer_vertical(cancer_split):
    train, test = cancer_split
    return vertical_partition(train, 3, seed=0), train, test


class TestVerticalLinear:
    def test_matches_centralized_accuracy(self, cancer_vertical):
        partition, train, test = cancer_vertical
        centralized = LinearSVC(C=50.0).fit(train.X, train.y)
        model = VerticalLinearSVM(C=50.0, rho=100.0, max_iter=100).fit(partition)
        assert abs(model.score(test.X, test.y) - centralized.score(test.X, test.y)) < 0.06

    def test_joint_weights_close_to_centralized(self, cancer_vertical):
        # ADMM at the paper's rho=100 converges slowly on this problem;
        # a softer penalty reaches the same fixed point much faster
        # (cos -> 1.0 as iterations grow; see the rho ablation benchmark).
        partition, train, _ = cancer_vertical
        centralized = LinearSVC(C=50.0).fit(train.X, train.y)
        model = VerticalLinearSVM(C=50.0, rho=10.0, max_iter=400).fit(partition)
        # Reassemble the joint weight vector from the per-learner blocks.
        joint = np.zeros(train.n_features)
        for worker, features in zip(model.workers_, partition.features):
            joint[features] = worker.w
        cos = np.dot(joint, centralized.coef_) / (
            np.linalg.norm(joint) * np.linalg.norm(centralized.coef_)
        )
        assert cos > 0.97

    def test_z_changes_decay(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        model = VerticalLinearSVM(max_iter=80).fit(partition)
        z = model.history_.z_changes
        assert z[-1] < z[0] * 1e-3

    def test_primal_residual_shrinks(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        model = VerticalLinearSVM(max_iter=80).fit(partition)
        residuals = model.history_.primal_residuals
        assert residuals[-1] < residuals[0]

    def test_accuracy_series(self, cancer_vertical):
        partition, _, test = cancer_vertical
        model = VerticalLinearSVM(max_iter=15).fit(partition, eval_X=test.X, eval_y=test.y)
        accs = model.history_.accuracies
        assert len(accs) == 15
        assert accs[-1] > 0.8

    def test_early_stop(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        model = VerticalLinearSVM(max_iter=500, tol=1e-2).fit(partition)
        assert model.history_.n_iterations < 500

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            VerticalLinearSVM().predict(np.ones((1, 4)))

    @pytest.mark.parametrize("half", ["eval_X", "eval_y"])
    def test_eval_rows_need_both_halves(self, half, cancer_vertical):
        partition, _, test = cancer_vertical
        rows = {"eval_X": test.X, "eval_y": test.y}
        with pytest.raises(ValueError, match="eval_X and eval_y go together"):
            VerticalLinearSVM(max_iter=2).fit(partition, **{half: rows[half]})


class TestVerticalLinearWorker:
    def test_share_is_projection_of_weights(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        worker = VerticalLinearWorker(partition.blocks[0], rho=100.0)
        out = worker.step(np.zeros(partition.n_samples))
        np.testing.assert_allclose(out["share"], partition.blocks[0] @ worker.w)

    def test_zero_correction_zero_start_small_weights(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        worker = VerticalLinearWorker(partition.blocks[0], rho=100.0)
        worker.step(np.zeros(partition.n_samples))
        # With zero target the ridge solution is exactly zero.
        np.testing.assert_allclose(worker.w, 0.0, atol=1e-12)

    def test_correction_length_validated(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        worker = VerticalLinearWorker(partition.blocks[0], rho=100.0)
        with pytest.raises(ValueError, match="length"):
            worker.step(np.zeros(3))

    def test_score_share_validates_width(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        worker = VerticalLinearWorker(partition.blocks[0], rho=100.0)
        with pytest.raises(ValueError, match="columns"):
            worker.score_share(np.zeros((2, 99)))


class TestVerticalConsensusReducer:
    def test_bias_recovered(self, cancer_vertical):
        partition, _, test = cancer_vertical
        model = VerticalLinearSVM(max_iter=60).fit(partition)
        assert np.isfinite(model.reducer_.bias)

    def test_bias_without_free_support_vectors_is_feasible(self):
        # Every lam at a bound: b comes from the bracket the KKT
        # conditions give, here [-0.2, 0.1], and must keep every margin.
        y = np.array([1.0, 1.0, -1.0, -1.0])
        zeta = np.array([5.0, 1.2, -1.2, -1.1])
        reducer = VerticalConsensusReducer(y, C=10.0, rho=10.0, n_learners=2)
        reducer.zbar = zeta / 2
        bias = reducer._recover_bias(np.zeros(4))
        assert bias == pytest.approx(-0.05)
        assert np.all(y * (zeta + bias) >= 1.0)

    def test_knapsack_dual_feasible(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        reducer = VerticalConsensusReducer(partition.y, C=50.0, rho=100.0, n_learners=3)
        rng = np.random.default_rng(0)
        correction, z_change, primal = reducer.step(rng.normal(size=partition.n_samples))
        assert correction.shape == (partition.n_samples,)
        assert z_change >= 0.0
        assert primal >= 0.0

    def test_requires_two_learners(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        with pytest.raises(ValueError):
            VerticalConsensusReducer(partition.y, n_learners=1)

    def test_share_length_validated(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        reducer = VerticalConsensusReducer(partition.y, n_learners=3)
        with pytest.raises(ValueError, match="length"):
            reducer.step(np.zeros(5))


class TestVerticalKernel:
    def test_beats_linear_on_xor_columns(self):
        # XOR needs the interaction of both features; an additive model
        # over single columns cannot express it, but giving one learner
        # both columns (kernelized) can.  Use a 4-feature XOR embedding
        # where features 0,1 are XOR dims and 2,3 are noise.
        rng = np.random.default_rng(0)
        xor = make_xor_task(400, seed=1)
        X = np.column_stack([xor.X, rng.normal(size=(400, 2))])
        from repro.data.dataset import Dataset

        ds = Dataset(X, xor.y, "xor4")
        partition = vertical_partition(ds, 2, seed=3)
        # Find the seed-3 split: check whether features {0,1} are co-located;
        # if not, the additive-kernel model legitimately cannot solve XOR.
        together = any(set([0, 1]) <= set(f.tolist()) for f in partition.features)
        model = VerticalKernelSVM(RBFKernel(gamma=1.0), max_iter=60).fit(partition)
        acc = model.score(ds.X, ds.y)
        if together:
            assert acc > 0.9
        else:
            assert acc < 0.8  # structural limit of the decomposition

    def test_matches_linear_on_linear_task(self, cancer_vertical):
        partition, _, test = cancer_vertical
        linear = VerticalLinearSVM(max_iter=80).fit(partition)
        kernel = VerticalKernelSVM(RBFKernel(gamma=0.1), max_iter=80).fit(partition)
        assert kernel.score(test.X, test.y) > linear.score(test.X, test.y) - 0.08

    def test_worker_share_is_kernel_combination(self, cancer_vertical):
        partition, _, _ = cancer_vertical
        worker = VerticalKernelWorker(partition.blocks[0], kernel=RBFKernel(gamma=0.1), rho=100.0)
        rng = np.random.default_rng(1)
        out = worker.step(rng.normal(size=partition.n_samples))
        np.testing.assert_allclose(out["share"], worker._K @ worker.alpha, atol=1e-10)

    def test_score_share_shape(self, cancer_vertical):
        partition, _, test = cancer_vertical
        worker = VerticalKernelWorker(partition.blocks[0], kernel=RBFKernel(gamma=0.1))
        worker.step(np.zeros(partition.n_samples))
        blocks = partition.split_features(test.X)
        assert worker.score_share(blocks[0]).shape == (test.n_samples,)

    def test_history_recorded(self, cancer_vertical):
        partition, _, test = cancer_vertical
        model = VerticalKernelSVM(RBFKernel(gamma=0.1), max_iter=12).fit(
            partition, eval_X=test.X, eval_y=test.y
        )
        assert model.history_.n_iterations == 12
        assert np.isfinite(model.history_.accuracies[-1])
