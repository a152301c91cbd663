"""Simulated HDFS: blocks, data nodes, replication, and a namenode.

The paper treats each learner as "a data node of HDFS" whose private
training data is stored locally and never leaves the node (data
locality).  :class:`SimulatedHdfs` models exactly the pieces that claim
rests on:

* files are split into **blocks**; each block lives on one or more data
  nodes (the block *replicas*);
* the **namenode** (this object) tracks block → node placement and lets
  the scheduler ask "where does this data live?";
* a **local read** costs no network traffic, while a **remote read**
  ships the block over the :class:`~repro.cluster.network.Network` and is
  therefore visible in the byte counters — the privacy invariant
  "raw training data bytes moved = 0" is checked against those counters
  by tests and benchmarks;
* **private files** must be stored with replication 1: replicating a
  private block would copy raw data to another organization's node,
  which is precisely what the scheme exists to avoid.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

from repro.cluster.network import Network

__all__ = ["Block", "HdfsError", "SimulatedHdfs"]


class HdfsError(RuntimeError):
    """Raised for missing files/blocks, placement violations, etc."""


@dataclass(frozen=True)
class Block:
    """One immutable block of a file.

    Attributes
    ----------
    file_name:
        Owning file.
    index:
        Position of this block within the file.
    payload:
        The stored object (e.g. a learner's partition of the training
        set).
    size_bytes:
        Serialized size, used for replication-traffic accounting.
    """

    file_name: str
    index: int
    payload: Any
    size_bytes: int

    @property
    def block_id(self) -> str:
        """Globally unique id ``"<file>#<index>"``."""
        return f"{self.file_name}#{self.index}"


class SimulatedHdfs:
    """A namenode plus per-node block storage, wired to a network.

    Parameters
    ----------
    network:
        The cluster fabric; replication and remote reads move bytes
        through it so they show up in the metrics.
    replication:
        Default replica count for non-private files.
    """

    def __init__(self, network: Network, *, replication: int = 1) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.network = network
        self.replication = replication
        # node_id -> block_id -> Block
        self._storage: dict[str, dict[str, Block]] = {}
        # file name -> list over block index of list of replica node ids
        self._placement: dict[str, list[list[str]]] = {}
        self._private_files: set[str] = set()

    # -- cluster membership --------------------------------------------

    def add_datanode(self, node_id: str) -> None:
        """Register a storage node (also registers it on the network)."""
        self.network.register(node_id)
        self._storage.setdefault(node_id, {})

    @property
    def datanode_ids(self) -> list[str]:
        """All registered data nodes."""
        return list(self._storage)

    # -- writes ----------------------------------------------------------

    def put(
        self,
        name: str,
        parts: list[Any],
        *,
        preferred_nodes: list[str] | None = None,
        private: bool = False,
        replication: int | None = None,
    ) -> None:
        """Store a file consisting of ``parts`` (one block each).

        Parameters
        ----------
        name:
            File name; must be new.
        parts:
            Block payloads, in order.
        preferred_nodes:
            Primary replica placement, one node per block.  This models
            the paper's setting where learner *m*'s data is generated on
            (and stays on) learner *m*'s node.  Defaults to round-robin.
        private:
            Mark the file as private training data.  Private files are
            pinned to their preferred node with replication 1; the
            namenode will refuse to hand them to remote readers.
        replication:
            Replica count override for non-private files.
        """
        if name in self._placement:
            raise HdfsError(f"file {name!r} already exists")
        if not parts:
            raise HdfsError("cannot store an empty file")
        if not self._storage:
            raise HdfsError("no data nodes registered")
        nodes = list(self._storage)
        if preferred_nodes is None:
            preferred_nodes = [nodes[i % len(nodes)] for i in range(len(parts))]
        if len(preferred_nodes) != len(parts):
            raise HdfsError(
                f"need one preferred node per block: {len(preferred_nodes)} != {len(parts)}"
            )
        n_replicas = 1 if private else (replication or self.replication)
        if n_replicas > len(nodes):
            raise HdfsError(f"replication {n_replicas} exceeds cluster size {len(nodes)}")

        placement: list[list[str]] = []
        with self.network.tracer.span(
            "hdfs.put", kind="hdfs", file_name=name, n_blocks=len(parts), private=private
        ):
            for index, (payload, primary) in enumerate(zip(parts, preferred_nodes)):
                if primary not in self._storage:
                    raise HdfsError(f"unknown data node {primary!r}")
                block_id = f"{name}#{index}"
                # Additional replicas are *copied over the network* from the
                # primary — this is what makes replicating private data
                # visibly unsafe in the byte accounting.  Each replica
                # stores the copy it receives, and the transfer's wire size
                # is the block's size (pickled here only without replicas).
                copies: dict[str, Any] = {}
                size: int | None = None
                other = [n for n in nodes if n != primary]
                for replica_node in other[: n_replicas - 1]:
                    with self.network.tracer.span(
                        "hdfs.replicate",
                        kind="hdfs",
                        node=primary,
                        block_id=block_id,
                        dst=replica_node,
                    ) as span:
                        message = self.network.send(
                            primary, replica_node, payload, kind="hdfs-replication"
                        )
                        span.attrs["size_bytes"] = message.size_bytes
                    copies[replica_node] = self.network.receive(
                        replica_node, kind="hdfs-replication"
                    )
                    size = message.size_bytes
                if size is None:
                    size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
                for node, stored in {primary: payload, **copies}.items():
                    self._storage[node][block_id] = Block(name, index, stored, size)
                placement.append([primary, *copies])
                self.network.metrics.increment("hdfs.blocks_written", 1)

        self._placement[name] = placement
        if private:
            self._private_files.add(name)

    # -- reads -----------------------------------------------------------

    def exists(self, name: str) -> bool:
        """Whether file ``name`` is stored."""
        return name in self._placement

    def is_private(self, name: str) -> bool:
        """Whether ``name`` was stored with ``private=True``."""
        return name in self._private_files

    def n_blocks(self, name: str) -> int:
        """Number of blocks in file ``name``."""
        return len(self._require_file(name))

    def locations(self, name: str) -> list[list[str]]:
        """Replica node ids for each block of ``name`` (namenode lookup)."""
        return [list(replicas) for replicas in self._require_file(name)]

    def read_block(self, reader: str, name: str, index: int) -> Any:
        """Read one block from node ``reader``.

        A local read is free; a remote read ships the block over the
        network (tagged ``hdfs-remote-read``) and returns the reader's
        received copy — and is refused outright
        for private files, enforcing the paper's trust assumption that
        raw data never leaves its owner.

        Emits ``hdfs.local_reads`` plus an ``hdfs.local_read`` trace
        event for local reads, or ``hdfs.remote_reads`` plus an
        ``hdfs.remote_read`` span (wrapping the network transfer) for
        remote ones.
        """
        placement = self._require_file(name)
        if not 0 <= index < len(placement):
            raise HdfsError(f"file {name!r} has no block {index}")
        if reader not in self._storage:
            raise HdfsError(f"unknown data node {reader!r}")
        replicas = placement[index]
        block_id = f"{name}#{index}"
        if reader in replicas:
            self.network.metrics.increment("hdfs.local_reads", 1)
            self.network.tracer.event(
                "hdfs.local_read", kind="hdfs", node=reader, block_id=block_id
            )
            return self._storage[reader][block_id].payload
        if name in self._private_files:
            raise HdfsError(
                f"block {block_id} of private file {name!r} is pinned to {replicas}; "
                f"remote read from {reader!r} would move raw training data"
            )
        source = replicas[0]
        payload = self._storage[source][block_id].payload
        self.network.metrics.increment("hdfs.remote_reads", 1)
        with self.network.tracer.span(
            "hdfs.remote_read", kind="hdfs", node=reader, block_id=block_id, src=source
        ):
            self.network.send(source, reader, payload, kind="hdfs-remote-read")
        return self.network.receive(reader, kind="hdfs-remote-read")

    def blocks_on(self, node_id: str) -> list[str]:
        """Block ids stored on ``node_id``."""
        if node_id not in self._storage:
            raise HdfsError(f"unknown data node {node_id!r}")
        return sorted(self._storage[node_id])

    def _require_file(self, name: str) -> list[list[str]]:
        placement = self._placement.get(name)
        if placement is None:
            raise HdfsError(f"no such file {name!r}")
        return placement
