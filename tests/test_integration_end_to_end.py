"""End-to-end integration tests across the whole stack.

These run the complete paper pipeline — partition, store privately in
HDFS, iterate Twister rounds with secure summation, classify — and
check the cross-cutting facts no unit test covers.
"""

import numpy as np
import pytest

from repro.cluster.network import NetworkError
from repro.core.horizontal_kernel import HorizontalKernelSVM
from repro.core.horizontal_linear import HorizontalLinearSVM
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.core.vertical_kernel import VerticalKernelSVM
from repro.core.vertical_linear import VerticalLinearSVM
from repro.data.dataset import Dataset
from repro.data.scaling import StandardScaler
from repro.data.splits import train_test_split
from repro.data.synthetic import make_cancer_like, make_higgs_like, make_ocr_like
from repro.svm.kernels import RBFKernel
from repro.svm.model import SVC


def prepared(maker, n, seed=0):
    dataset = maker(n, seed=seed)
    train, test = train_test_split(dataset, 0.5, seed=0)
    scaler = StandardScaler().fit(train.X)
    return scaler.transform_dataset(train), scaler.transform_dataset(test)


class TestAllVariantsBeatChance:
    """Every variant, every dataset family: meaningfully above chance and
    in the neighbourhood of the centralized benchmark."""

    @pytest.mark.parametrize(
        "maker,n,floor",
        [(make_cancer_like, 240, 0.85), (make_higgs_like, 300, 0.55), (make_ocr_like, 240, 0.85)],
    )
    def test_horizontal_linear(self, maker, n, floor):
        train, test = prepared(maker, n)
        parts = horizontal_partition(train, 4, seed=0)
        model = HorizontalLinearSVM(max_iter=60).fit(parts)
        assert model.score(test.X, test.y) >= floor

    @pytest.mark.parametrize(
        "maker,n,gamma,floor",
        [(make_cancer_like, 240, 0.02, 0.80), (make_ocr_like, 240, 0.002, 0.80)],
    )
    def test_horizontal_kernel(self, maker, n, gamma, floor):
        train, test = prepared(maker, n)
        parts = horizontal_partition(train, 4, seed=0)
        model = HorizontalKernelSVM(
            RBFKernel(gamma=gamma), n_landmarks=20, max_iter=40, seed=0
        ).fit(parts)
        assert model.score(test.X, test.y) >= floor

    @pytest.mark.parametrize(
        "maker,n,floor",
        [(make_cancer_like, 240, 0.85), (make_ocr_like, 240, 0.85)],
    )
    def test_vertical_linear(self, maker, n, floor):
        train, test = prepared(maker, n)
        partition = vertical_partition(train, 4, seed=0)
        model = VerticalLinearSVM(max_iter=80).fit(partition)
        assert model.score(test.X, test.y) >= floor

    @pytest.mark.parametrize(
        "maker,n,gamma,floor",
        [(make_cancer_like, 240, 0.1, 0.80), (make_ocr_like, 240, 0.015, 0.80)],
    )
    def test_vertical_kernel(self, maker, n, gamma, floor):
        train, test = prepared(maker, n)
        partition = vertical_partition(train, 4, seed=0)
        model = VerticalKernelSVM(RBFKernel(gamma=gamma), max_iter=60).fit(partition)
        assert model.score(test.X, test.y) >= floor


class TestFullSystemParity:
    """Distributed+secure == in-process, for all four variants."""

    def test_horizontal_linear_parity(self):
        train, _ = prepared(make_cancer_like, 200)
        parts = horizontal_partition(train, 4, seed=0)
        ref = HorizontalLinearSVM(max_iter=20).fit(parts)
        dist = PrivacyPreservingSVM("horizontal", max_iter=20, seed=0).fit(parts)
        np.testing.assert_allclose(
            dist.history_.z_changes, ref.history_.z_changes, rtol=1e-4, atol=1e-8
        )

    def test_horizontal_kernel_parity(self):
        train, _ = prepared(make_cancer_like, 200)
        parts = horizontal_partition(train, 4, seed=0)
        ref = HorizontalKernelSVM(
            RBFKernel(gamma=0.1), n_landmarks=10, max_iter=12, seed=0
        ).fit(parts)
        dist = PrivacyPreservingSVM(
            "horizontal", kernel=RBFKernel(gamma=0.1), n_landmarks=10, max_iter=12, seed=0
        ).fit(parts)
        np.testing.assert_allclose(
            dist.history_.z_changes, ref.history_.z_changes, rtol=1e-4, atol=1e-8
        )

    def test_vertical_linear_parity(self):
        train, _ = prepared(make_cancer_like, 200)
        partition = vertical_partition(train, 3, seed=0)
        ref = VerticalLinearSVM(max_iter=25).fit(partition)
        dist = PrivacyPreservingSVM("vertical", max_iter=25, seed=0).fit(partition)
        np.testing.assert_allclose(
            dist.history_.z_changes, ref.history_.z_changes, rtol=1e-3, atol=1e-6
        )

    def test_vertical_kernel_parity(self):
        train, _ = prepared(make_cancer_like, 200)
        partition = vertical_partition(train, 3, seed=0)
        ref = VerticalKernelSVM(RBFKernel(gamma=0.1), max_iter=20).fit(partition)
        dist = PrivacyPreservingSVM(
            "vertical", kernel=RBFKernel(gamma=0.1), max_iter=20, seed=0
        ).fit(partition)
        np.testing.assert_allclose(
            dist.history_.z_changes, ref.history_.z_changes, rtol=1e-3, atol=1e-6
        )


class TestCollaborationGain:
    def test_consensus_beats_isolated_learners_on_scarce_data(self):
        # The paper's motivation: small local shares, big joint gain.
        train, test = prepared(make_higgs_like, 400, seed=4)
        parts = horizontal_partition(train, 8, seed=0)
        consensus = HorizontalLinearSVM(C=1.0, rho=10.0, max_iter=60).fit(parts)
        local_accs = [
            SVC(C=1.0).fit(p.X, p.y).score(test.X, test.y) for p in parts
        ]
        assert consensus.score(test.X, test.y) >= np.mean(local_accs) - 0.02


class TestDifficultyOrderingEndToEnd:
    def test_all_datasets_converge_by_orders_of_magnitude(self):
        # The robust part of the paper's Fig. 4(a) story: every dataset's
        # consensus movement collapses by orders of magnitude within the
        # plotted horizon.  (The paper's *ordering* claim — HIGGS slowest
        # — depends on the real datasets; our measured ordering at each
        # scale is recorded in EXPERIMENTS.md rather than asserted.)
        for maker in (make_cancer_like, make_higgs_like, make_ocr_like):
            train, _ = prepared(maker, 320, seed=2)
            parts = horizontal_partition(train, 4, seed=0)
            model = HorizontalLinearSVM(max_iter=60).fit(parts)
            z = model.history_.z_changes
            assert z[-1] < z[0] * 1e-2


class TestFaultInjection:
    def test_learner_failure_mid_training_surfaces(self):
        train, _ = prepared(make_cancer_like, 160)
        parts = horizontal_partition(train, 4, seed=0)
        model = PrivacyPreservingSVM("horizontal", max_iter=50, seed=0)
        # Train a few iterations, then fail a node and resume: the
        # masking protocol cannot proceed without all participants.
        model.fit(parts)
        model.network_.fail_node("learner-2")
        with pytest.raises(NetworkError, match=r"node 'learner-2' has failed"):
            model.driver_.run("training-data", max_iterations=2)
