"""Simulated data-parallel cluster (the paper's Hadoop/Twister substrate).

The paper runs its algorithms on Apache Hadoop's architecture (Fig. 1):
each learner is an HDFS data node hosting a Mapper; a Reducer summarizes
local results; an iterative runtime (Twister [12]) feeds the consensus
back to the Mappers each round.  This package simulates that stack
in-process, with explicit accounting so the paper's data-locality and
communication claims can be *measured*:

* :mod:`repro.cluster.metrics` — named counters (bytes, messages, crypto ops);
* :mod:`repro.cluster.network` — message-passing fabric with per-message
  byte sizes, a latency/bandwidth model, and a full message log (the
  adversary's wire view);
* :mod:`repro.cluster.hdfs` — blocks, data nodes, replication, and a
  namenode; raw training data is stored as local blocks that never move;
* :mod:`repro.cluster.scheduler` — locality-aware map-task placement;
* :mod:`repro.cluster.twister` — the iterative MapReduce driver with a
  broadcast feedback channel used by the privacy-preserving trainers;
* :mod:`repro.cluster.tracing` — structured spans/events/per-iteration
  counter totals with JSONL and Chrome-trace exporters;
* :mod:`repro.cluster.profiling` — the :class:`Profiler`, a counter
  registry with the trace recorder attached behind one snapshot.

The observability surface (every counter name, the span schema, and the
exporter formats) is documented in ``docs/OBSERVABILITY.md``.
"""

from repro.cluster.hdfs import Block, HdfsError, SimulatedHdfs
from repro.cluster.metrics import MetricRegistry
from repro.cluster.network import LatencyModel, Message, Network, NetworkError
from repro.cluster.profiling import Profiler
from repro.cluster.scheduler import LocalityScheduler, TaskAssignment
from repro.cluster.tracing import Span, TraceEvent, TraceRecorder, cost_table
from repro.cluster.twister import (
    IterationResult,
    IterativeMapper,
    IterativeMapReduceDriver,
    IterativeReducer,
)

__all__ = [
    "Block",
    "HdfsError",
    "IterationResult",
    "IterativeMapReduceDriver",
    "IterativeMapper",
    "IterativeReducer",
    "LatencyModel",
    "LocalityScheduler",
    "Message",
    "MetricRegistry",
    "Network",
    "NetworkError",
    "Profiler",
    "SimulatedHdfs",
    "Span",
    "TaskAssignment",
    "TraceEvent",
    "TraceRecorder",
    "cost_table",
]
