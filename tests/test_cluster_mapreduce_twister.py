"""Tests for the iterative Twister driver."""

import numpy as np
import pytest

from repro.cluster.hdfs import SimulatedHdfs
from repro.cluster.network import Network
from repro.cluster.twister import (
    ClusterTransport,
    IterativeMapper,
    IterativeMapReduceDriver,
    IterativeReducer,
    PlaintextAggregator,
)


class CountingMapper(IterativeMapper):
    """Adds its (static) partition value to the broadcast each round."""

    def configure(self, partition, context):
        self.value = float(partition)
        self.configured_times = getattr(self, "configured_times", 0) + 1

    def map(self, broadcast, context):
        return {"total": np.array([self.value + broadcast["offset"]])}


class AveragingReducer(IterativeReducer):
    def __init__(self, stop_after):
        self.stop_after = stop_after
        self.values = []

    def initial_state(self):
        return {"offset": 0.0}

    def reduce(self, sums, n_mappers, context):
        avg = float(sums["total"][0]) / n_mappers
        self.values.append(avg)
        return {"offset": avg}, len(self.values) >= self.stop_after


class TestIterativeDriver:
    def _driver(self, stop_after=3):
        network = Network()
        hdfs = SimulatedHdfs(network)
        for i in range(3):
            hdfs.add_datanode(f"n{i}")
        hdfs.put("parts", [1.0, 2.0, 3.0], preferred_nodes=["n0", "n1", "n2"])
        reducer = AveragingReducer(stop_after)
        driver = IterativeMapReduceDriver(
            transport=ClusterTransport(hdfs, PlaintextAggregator()),
            mapper_factory=CountingMapper,
            reducer=reducer,
        )
        return network, driver, reducer

    def test_runs_until_convergence_flag(self):
        _, driver, reducer = self._driver(stop_after=3)
        history = driver.run("parts", max_iterations=50)
        assert len(history) == 3
        assert history[-1].converged

    def test_respects_max_iterations(self):
        _, driver, _ = self._driver(stop_after=100)
        history = driver.run("parts", max_iterations=5)
        assert len(history) == 5
        assert not history[-1].converged

    def test_mappers_configured_exactly_once(self):
        _, driver, _ = self._driver()
        driver.run("parts", max_iterations=3)
        assert all(m.configured_times == 1 for m in driver._mappers.values())

    def test_iteration_math(self):
        # mean(parts) = 2; offsets: 2, 4, 6, ...
        _, driver, reducer = self._driver(stop_after=3)
        driver.run("parts")
        assert reducer.values == [2.0, 4.0, 6.0]

    def test_broadcast_traffic_accounted(self):
        network, driver, _ = self._driver(stop_after=2)
        driver.run("parts")
        # 3 mapper nodes x 2 iterations.
        assert network.messages_sent("broadcast") == 6

    def test_history_byte_deltas_positive(self):
        _, driver, _ = self._driver(stop_after=2)
        history = driver.run("parts")
        assert all(h.bytes_delta > 0 for h in history)

    def test_invalid_max_iterations(self):
        _, driver, _ = self._driver()
        with pytest.raises(ValueError):
            driver.run("parts", max_iterations=0)

    def test_node_side_combining_multiple_blocks_per_node(self):
        network = Network()
        hdfs = SimulatedHdfs(network)
        hdfs.add_datanode("n0")
        hdfs.add_datanode("n1")
        # 4 blocks on 2 nodes -> 2 mappers per node, combined locally.
        hdfs.put("parts", [1.0, 2.0, 3.0, 4.0], preferred_nodes=["n0", "n0", "n1", "n1"])
        reducer = AveragingReducer(1)
        driver = IterativeMapReduceDriver(
            transport=ClusterTransport(hdfs, PlaintextAggregator()),
            mapper_factory=CountingMapper,
            reducer=reducer,
        )
        driver.run("parts")
        # Sum = 10 over 4 mappers -> average 2.5; only 2 consensus messages.
        assert reducer.values == [2.5]
        assert network.messages_sent("consensus") == 2
