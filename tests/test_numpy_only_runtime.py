"""The runtime needs NumPy only, and its precomputed solve maps are exact.

The learners form their per-round linear maps once at set-up
(``(X'X + I/rho)^(-1) X'`` for V-lin, ``(K + I/rho)^(-1)`` for V-ker,
one reduced solve for H-ker); these tests pin them to a per-step
``np.linalg.solve`` reference, and pin that nothing the program loads
imports SciPy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.horizontal_kernel import HorizontalKernelWorker, sample_landmarks
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.vertical_kernel import VerticalKernelWorker
from repro.core.vertical_linear import VerticalLinearWorker
from repro.svm import qp
from repro.svm.kernels import RBFKernel

RHO = 100.0
STEPS = 30


def assert_close(actual, expected, rtol=1e-10):
    """Norm-relative agreement, robust to entries near zero."""
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


def test_runtime_never_imports_scipy():
    script = textwrap.dedent(
        """
        import sys
        from repro import PrivacyPreservingSVM, horizontal_partition, vertical_partition
        from repro.data import make_cancer_like
        from repro.svm.kernels import RBFKernel

        data = make_cancer_like(60, seed=0)
        for partitioning, kernel in [
            ("horizontal", None),
            ("horizontal", RBFKernel(gamma=0.1)),
            ("vertical", None),
            ("vertical", RBFKernel(gamma=0.1)),
        ]:
            split = horizontal_partition if partitioning == "horizontal" else vertical_partition
            model = PrivacyPreservingSVM(partitioning, kernel, max_iter=2, n_landmarks=4, seed=0)
            model.fit(split(data, n_learners=3, seed=0))
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.fixture
def cancer_vertical(cancer_split):
    train, _ = cancer_split
    return vertical_partition(train, 3, seed=0)


def corrections(n):
    rng = np.random.default_rng(3)
    return [rng.normal(size=n) for _ in range(STEPS)]


class TestPrecomputedMaps:
    def test_vertical_linear_trajectory_matches_per_step_solve(self, cancer_vertical):
        X = cancer_vertical.blocks[0]
        worker = VerticalLinearWorker(X, rho=RHO)
        gram = X.T @ X + np.eye(X.shape[1]) / RHO
        share = np.zeros(X.shape[0])
        for correction in corrections(X.shape[0]):
            w = np.linalg.solve(gram, X.T @ (share + correction))
            share = X @ w
            out = worker.step(correction)
            assert_close(worker.w, w)
            assert_close(out["share"], share)

    def test_vertical_kernel_trajectory_matches_per_step_solve(self, cancer_vertical):
        X = cancer_vertical.blocks[1]
        kernel = RBFKernel(gamma=0.1)
        worker = VerticalKernelWorker(X, kernel=kernel, rho=RHO)
        K = kernel.gram(X)
        system = K + np.eye(X.shape[0]) / RHO
        share = np.zeros(X.shape[0])
        for correction in corrections(X.shape[0]):
            alpha = np.linalg.solve(system, share + correction)
            share = K @ alpha
            out = worker.step(correction)
            assert_close(worker.alpha, alpha)
            assert_close(out["share"], share)

    def test_horizontal_kernel_reduced_matrices_match_reference(self, cancer_split):
        train, _ = cancer_split
        part = horizontal_partition(train, 3, seed=0)[0]
        kernel, M = RBFKernel(gamma=0.1), 3.0
        landmarks = sample_landmarks(12, train.n_features, seed=1)
        worker = HorizontalKernelWorker(
            part.X, part.y, landmarks, kernel=kernel, rho=RHO, n_learners=3
        )
        k_mg, k_gg = kernel(part.X, landmarks), kernel.gram(landmarks)
        kg_mat = np.eye(len(landmarks)) + M * RHO * k_gg
        kg_inv_kgm = np.linalg.solve(kg_mat, k_mg.T)
        kg_inv_kgg = np.linalg.solve(kg_mat, k_gg)
        assert_close(worker._kg_inv_kgm, kg_inv_kgm)
        assert_close(worker._kg_inv_kgg, kg_inv_kgg)
        assert_close(worker._phi_s_g, M * (k_mg - M * RHO * k_mg @ kg_inv_kgg))
        assert_close(worker._g_s_g, M * (k_gg - M * RHO * k_gg @ kg_inv_kgg))


def test_exactly_singular_newton_block_takes_lstsq(monkeypatch):
    # Zero mean diagonal: the shift is _SHIFT itself, which cancels the
    # first entry exactly and leaves a singular block.
    H = np.diag([-qp._SHIFT, qp._SHIFT])
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    direction = qp._newton_direction(H, np.array([1.0, 1.0]))
    assert len(calls) == 1
    np.testing.assert_allclose(direction, [0.0, -1.0 / (2 * qp._SHIFT)])
