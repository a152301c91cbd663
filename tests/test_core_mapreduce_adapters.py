"""Direct unit tests for the ADMM round's Map() and Reduce() tasks."""

import numpy as np
import pytest

from repro.cluster.twister import MapperContext, ReducerContext
from repro.cluster.network import Network
from repro.core.horizontal_kernel import HorizontalKernelWorker
from repro.core.horizontal_linear import HorizontalLinearWorker
from repro.core.mapreduce_svm import (
    ADMMMapper,
    HorizontalConsensusReducer,
    VerticalReducerAdapter,
)
from repro.core.partitioning import vertical_partition
from repro.core.vertical_kernel import VerticalKernelWorker
from repro.core.vertical_linear import VerticalLinearWorker
from repro.data.synthetic import make_blobs
from repro.svm.kernels import RBFKernel


@pytest.fixture
def context():
    network = Network()
    network.register("node")
    return MapperContext(node_id="node", network=network)


@pytest.fixture
def reducer_context():
    network = Network()
    network.register("reducer")
    return ReducerContext(node_id="reducer", network=network)


def horizontal_payload(kernel=None):
    ds = make_blobs(40, 3, seed=0)
    payload = dict(worker=HorizontalLinearWorker, X=ds.X, y=ds.y, C=10.0, rho=10.0, n_learners=2)
    if kernel is not None:
        payload.update(
            worker=HorizontalKernelWorker,
            kernel=kernel,
            landmarks=np.zeros((4, 3)) + np.eye(4, 3),
        )
    return payload


class TestHorizontalMapper:
    def test_configure_builds_linear_worker(self, context):
        mapper = ADMMMapper()
        mapper.configure(horizontal_payload(), context)
        assert isinstance(mapper.worker, HorizontalLinearWorker)

    def test_configure_builds_kernel_worker(self, context):
        mapper = ADMMMapper()
        mapper.configure(horizontal_payload(kernel=RBFKernel(gamma=0.5)), context)
        assert isinstance(mapper.worker, HorizontalKernelWorker)

    def test_map_delegates_to_worker(self, context):
        mapper = ADMMMapper()
        mapper.configure(horizontal_payload(), context)
        out = mapper.map({"z": np.zeros(3), "s": 0.0}, context)
        assert set(out) == {"z_contrib", "s_contrib"}

    def test_map_before_configure_raises(self, context):
        with pytest.raises(RuntimeError, match="configured"):
            ADMMMapper().map({"z": np.zeros(2), "s": 0.0}, context)


class TestHorizontalReducer:
    def test_averages_sums(self, reducer_context):
        reducer = HorizontalConsensusReducer(n_consensus=3)
        sums = {"z_contrib": np.array([2.0, 4.0, 6.0]), "s_contrib": np.array([8.0])}
        state, converged = reducer.reduce(sums, 2, reducer_context)
        np.testing.assert_array_equal(state["z"], [1.0, 2.0, 3.0])
        assert state["s"] == 4.0
        assert not converged

    def test_records_z_change_history(self, reducer_context):
        reducer = HorizontalConsensusReducer(n_consensus=2)
        for value in (2.0, 2.0):
            reducer.reduce(
                {"z_contrib": np.full(2, value), "s_contrib": np.zeros(1)},
                2,
                reducer_context,
            )
        changes = reducer.history.z_changes
        assert changes[0] > 0.0
        assert changes[1] == pytest.approx(0.0)

    def test_tol_triggers_convergence(self, reducer_context):
        reducer = HorizontalConsensusReducer(n_consensus=2, tol=1e-6)
        reducer.reduce(
            {"z_contrib": np.ones(2), "s_contrib": np.zeros(1)}, 2, reducer_context
        )
        _, converged = reducer.reduce(
            {"z_contrib": np.ones(2), "s_contrib": np.zeros(1)}, 2, reducer_context
        )
        assert converged

    def test_initial_state_zero(self):
        reducer = HorizontalConsensusReducer(n_consensus=4)
        state = reducer.initial_state()
        np.testing.assert_array_equal(state["z"], np.zeros(4))
        assert state["s"] == 0.0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            HorizontalConsensusReducer(n_consensus=0)


class TestVerticalAdapters:
    def test_mapper_linear_and_kernel(self, context):
        ds = make_blobs(30, 4, seed=1)
        linear = ADMMMapper()
        linear.configure({"worker": VerticalLinearWorker, "X": ds.X, "rho": 10.0}, context)
        out = linear.map({"correction": np.zeros(30), "bias": 0.0}, context)
        assert out["share"].shape == (30,)

        kernel = ADMMMapper()
        kernel.configure(
            dict(worker=VerticalKernelWorker, X=ds.X, rho=10.0, kernel=RBFKernel(gamma=0.3)),
            context,
        )
        out = kernel.map({"correction": np.zeros(30), "bias": 0.0}, context)
        assert out["share"].shape == (30,)

    def test_mapper_before_configure_raises(self, context):
        with pytest.raises(RuntimeError):
            ADMMMapper().map({"correction": np.zeros(2)}, context)

    def test_reducer_adapter_state_and_history(self, reducer_context):
        ds = make_blobs(24, 3, seed=2)
        adapter = VerticalReducerAdapter(ds.y, C=10.0, rho=10.0, n_learners=2)
        state = adapter.initial_state()
        assert state["correction"].shape == (24,)
        new_state, converged = adapter.reduce(
            {"share": np.random.default_rng(0).normal(size=24)}, 2, reducer_context
        )
        assert new_state["correction"].shape == (24,)
        assert np.isfinite(new_state["bias"])
        assert len(adapter.history) == 1
        assert not converged

    def test_full_roundtrip_matches_trainer(self, cancer_split):
        # Driving the adapters by hand reproduces the in-process trainer.
        from repro.core.vertical_linear import VerticalLinearSVM

        train, _ = cancer_split
        partition = vertical_partition(train, 3, seed=0)
        reference = VerticalLinearSVM(C=50.0, rho=100.0, max_iter=5).fit(partition)

        network = Network()
        network.register("n")
        ctx = MapperContext(node_id="n", network=network)
        rctx = ReducerContext(node_id="r", network=network)
        mappers = []
        for block in partition.blocks:
            m = ADMMMapper()
            m.configure({"worker": VerticalLinearWorker, "X": block, "rho": 100.0}, ctx)
            mappers.append(m)
        adapter = VerticalReducerAdapter(
            partition.y, C=50.0, rho=100.0, n_learners=partition.n_learners
        )
        state = adapter.initial_state()
        for _ in range(5):
            share_sum = np.zeros(partition.n_samples)
            for m in mappers:
                share_sum += m.map(state, ctx)["share"]
            state, _ = adapter.reduce({"share": share_sum}, len(mappers), rctx)
        np.testing.assert_allclose(
            adapter.history.z_changes, reference.history_.z_changes, rtol=1e-8
        )
