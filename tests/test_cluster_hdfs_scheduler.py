"""Unit tests for the simulated HDFS and the locality scheduler."""

import pickle
import types

import numpy as np
import pytest

from repro.cluster import hdfs as hdfs_module
from repro.cluster.hdfs import HdfsError, SimulatedHdfs
from repro.cluster.network import Network
from repro.cluster.scheduler import LocalityScheduler


class TestHdfsPut:
    def test_blocks_land_on_preferred_nodes(self, cluster):
        _, hdfs = cluster
        hdfs.put("f", ["b0", "b1"], preferred_nodes=["node1", "node3"])
        assert hdfs.locations("f") == [["node1"], ["node3"]]
        assert "f#0" in hdfs.blocks_on("node1")
        assert "f#1" in hdfs.blocks_on("node3")

    def test_round_robin_default_placement(self, cluster):
        _, hdfs = cluster
        hdfs.put("f", ["a", "b", "c", "d", "e"])
        primaries = [loc[0] for loc in hdfs.locations("f")]
        assert primaries == ["node0", "node1", "node2", "node3", "node0"]

    def test_duplicate_file_rejected(self, cluster):
        _, hdfs = cluster
        hdfs.put("f", ["x"])
        with pytest.raises(HdfsError, match="already exists"):
            hdfs.put("f", ["y"])

    def test_empty_file_rejected(self, cluster):
        _, hdfs = cluster
        with pytest.raises(HdfsError, match="empty"):
            hdfs.put("f", [])

    def test_unknown_preferred_node(self, cluster):
        _, hdfs = cluster
        with pytest.raises(HdfsError, match="unknown data node"):
            hdfs.put("f", ["x"], preferred_nodes=["nowhere"])

    def test_placement_length_mismatch(self, cluster):
        _, hdfs = cluster
        with pytest.raises(HdfsError, match="one preferred node per block"):
            hdfs.put("f", ["x", "y"], preferred_nodes=["node0"])

    def test_no_datanodes(self):
        hdfs = SimulatedHdfs(Network())
        with pytest.raises(HdfsError, match="no data nodes"):
            hdfs.put("f", ["x"])


class TestReplication:
    def test_replicas_copied_over_network(self, cluster):
        network, hdfs = cluster
        hdfs.put("f", ["payload"], preferred_nodes=["node0"], replication=3)
        assert len(hdfs.locations("f")[0]) == 3
        assert network.bytes_sent("hdfs-replication") > 0
        assert network.messages_sent("hdfs-replication") == 2

    def test_replication_exceeding_cluster(self, cluster):
        _, hdfs = cluster
        with pytest.raises(HdfsError, match="exceeds cluster size"):
            hdfs.put("f", ["x"], replication=9)

    def test_private_files_never_replicate(self, cluster):
        network, hdfs = cluster
        hdfs = SimulatedHdfs(network, replication=3)
        for i in range(4):
            hdfs.add_datanode(f"n{i}")
        hdfs.put("secret", ["data"], preferred_nodes=["n0"], private=True)
        assert hdfs.locations("secret") == [["n0"]]
        assert network.bytes_sent("hdfs-replication") == 0.0


class TestReads:
    def test_local_read_is_free(self, cluster):
        network, hdfs = cluster
        hdfs.put("f", ["v"], preferred_nodes=["node2"])
        before = network.bytes_sent()
        assert hdfs.read_block("node2", "f", 0) == "v"
        assert network.bytes_sent() == before
        assert network.metrics.get("hdfs.local_reads") == 1

    def test_remote_read_moves_bytes(self, cluster):
        network, hdfs = cluster
        hdfs.put("f", ["v"], preferred_nodes=["node0"])
        assert hdfs.read_block("node3", "f", 0) == "v"
        assert network.bytes_sent("hdfs-remote-read") > 0
        assert network.metrics.get("hdfs.remote_reads") == 1

    def test_private_remote_read_refused(self, cluster):
        _, hdfs = cluster
        hdfs.put("secret", ["v"], preferred_nodes=["node0"], private=True)
        with pytest.raises(HdfsError, match="raw training data"):
            hdfs.read_block("node1", "secret", 0)

    def test_private_local_read_allowed(self, cluster):
        _, hdfs = cluster
        hdfs.put("secret", ["v"], preferred_nodes=["node0"], private=True)
        assert hdfs.read_block("node0", "secret", 0) == "v"

    def test_missing_file(self, cluster):
        _, hdfs = cluster
        with pytest.raises(HdfsError, match="no such file"):
            hdfs.read_block("node0", "ghost", 0)

    def test_missing_block_index(self, cluster):
        _, hdfs = cluster
        hdfs.put("f", ["v"])
        with pytest.raises(HdfsError, match="no block 5"):
            hdfs.read_block("node0", "f", 5)

    def test_exists_and_metadata(self, cluster):
        _, hdfs = cluster
        hdfs.put("f", ["a", "b"])
        assert hdfs.exists("f")
        assert not hdfs.exists("g")
        assert hdfs.n_blocks("f") == 2
        assert not hdfs.is_private("f")


class TestTransfersAreDelivered:
    def test_replicas_and_remote_reads_leave_no_message_behind(self, monkeypatch):
        # Each replica stores the copy it received, a remote read returns
        # the reader's copy, and the byte and count accounting is the
        # same as when the copies stayed queued in the inboxes.  A block
        # is pickled to size it only when it has no replica.
        sized = []

        def dumps(payload, protocol):
            sized.append(payload)
            return pickle.dumps(payload, protocol)

        monkeypatch.setattr(
            hdfs_module,
            "pickle",
            types.SimpleNamespace(dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL),
        )
        network = Network()
        hdfs = SimulatedHdfs(network, replication=3)
        for i in range(3):
            hdfs.add_datanode(f"n{i}")
        blocks = [np.arange(1000.0), -np.arange(1000.0)]
        hdfs.put("shared", blocks, preferred_nodes=["n0", "n1"])
        assert sized == []
        hdfs.put("single", [np.ones(1000)], preferred_nodes=["n2"], replication=1)
        assert len(sized) == 1
        read = hdfs.read_block("n0", "single", 0)
        for node in network.node_ids:
            for kind in ("hdfs-replication", "hdfs-remote-read"):
                assert network.pending(node, kind) == 0
        size = len(pickle.dumps(blocks[0], protocol=pickle.HIGHEST_PROTOCOL))
        assert size == 8128
        counters = {
            name: value
            for name, value in network.metrics.as_dict().items()
            if name.startswith(("hdfs.", "network.messages", "network.bytes"))
        }
        assert counters == {
            "hdfs.blocks_written": 3,
            "hdfs.remote_reads": 1,
            "network.messages": 5,
            "network.messages.hdfs-replication": 4,
            "network.messages.hdfs-remote-read": 1,
            "network.bytes": 5 * size,
            "network.bytes.hdfs-replication": 4 * size,
            "network.bytes.hdfs-remote-read": size,
        }
        np.testing.assert_array_equal(read, np.ones(1000))
        replica = hdfs.read_block("n2", "shared", 0)  # a local read
        np.testing.assert_array_equal(replica, blocks[0])
        assert replica is not blocks[0]
        assert hdfs._storage["n2"]["shared#0"].size_bytes == size
        assert hdfs._storage["n2"]["single#0"].size_bytes == size


class TestLocalityScheduler:
    def test_all_tasks_data_local(self, cluster):
        _, hdfs = cluster
        hdfs.put("f", ["a", "b", "c", "d"], preferred_nodes=["node0", "node1", "node2", "node3"])
        assignments = LocalityScheduler(hdfs).assign("f")
        assert all(t.data_local for t in assignments)
        assert [t.node_id for t in assignments] == ["node0", "node1", "node2", "node3"]

    def test_load_balancing_across_replicas(self, cluster):
        network, hdfs = cluster
        hdfs = SimulatedHdfs(network, replication=2)
        for i in range(2):
            hdfs.add_datanode(f"n{i}")
        hdfs.put("f", ["a", "b"], preferred_nodes=["n0", "n0"])
        assignments = LocalityScheduler(hdfs).assign("f")
        # Second task should prefer the replica holder n1 over loaded n0.
        assert {t.node_id for t in assignments} == {"n0", "n1"}

    def test_local_task_counter(self, cluster):
        network, hdfs = cluster
        hdfs.put("f", ["a", "b"])
        LocalityScheduler(hdfs).assign("f")
        assert network.metrics.get("scheduler.local_tasks") == 2

    def test_private_file_never_spills(self, cluster):
        _, hdfs = cluster
        hdfs.put("p", ["a", "b", "c"], preferred_nodes=["node0"] * 3, private=True)
        assignments = LocalityScheduler(hdfs, max_tasks_per_node=1).assign("p")
        assert all(t.node_id == "node0" for t in assignments)
        assert all(t.data_local for t in assignments)
