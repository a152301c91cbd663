"""Iterative MapReduce (Twister-style) with a broadcast feedback channel.

Hadoop's one-shot MapReduce is a poor fit for the paper's back-and-forth
consensus negotiation, so the paper points to Twister [Ekanayake et al.,
HPDC'10], an *iterative* MapReduce runtime.  Twister's distinguishing
features — all modeled here — are:

* **long-lived mappers** configured once with their (static, local) data
  partition, so raw data is loaded exactly once and never re-shuffled;
* per-iteration **map → reduce → broadcast** rounds, where the reducer's
  output (the consensus state) is fed back to every mapper;
* **combiner-style aggregation** of map outputs on their way to the
  reducer.

The aggregation step is pluggable (:class:`Aggregator`): the trainers in
:mod:`repro.core` install the coalition-resistant secure summation
protocol from :mod:`repro.crypto.secure_sum`, while benchmarks can swap
in :class:`PlaintextAggregator` to measure the cost of privacy.

:meth:`IterativeMapReduceDriver.run` is the one ADMM round loop in the
library.  Its :class:`Transport` decides where the rounds run: the
:class:`ClusterTransport` reads partitions from HDFS and moves the state
and the outputs over the simulated network, while the
:class:`InMemoryTransport` (the in-process trainers) hands both over by
reference and records no trace.

Observability: every round the driver emits one ``twister.round`` span
enclosing ``twister.broadcast``, ``twister.map_wave``,
``twister.aggregate``, and ``twister.reduce`` child spans, all tagged
with the iteration index (which also propagates to every message sent
inside the round) — see ``docs/OBSERVABILITY.md`` for the schema.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cluster.hdfs import SimulatedHdfs
from repro.cluster.network import Network
from repro.cluster.profiling import Profiler
from repro.cluster.scheduler import LocalityScheduler
from repro.cluster.tracing import TraceRecorder

__all__ = [
    "Aggregator",
    "ClusterTransport",
    "InMemoryTransport",
    "IterationResult",
    "IterativeMapReduceDriver",
    "IterativeMapper",
    "IterativeReducer",
    "MapperContext",
    "PlaintextAggregator",
    "ReducerContext",
    "Transport",
]


@dataclass
class MapperContext:
    """Per-mapper runtime handles passed to ``configure``/``map``.

    Attributes
    ----------
    node_id:
        The data node this mapper is pinned to.
    network:
        The cluster fabric (used by secure protocols for peer messages).
    iteration:
        Current iteration index (0-based), updated by the driver.
    """

    node_id: str
    network: Network
    iteration: int = 0


@dataclass
class ReducerContext:
    """Runtime handles for the reducer (mirror of :class:`MapperContext`)."""

    node_id: str
    network: Network
    iteration: int = 0


class IterativeMapper(abc.ABC):
    """A long-lived Map() task bound to one data partition.

    Subclasses hold all per-learner state (the local training set, warm
    starts, ADMM dual variables).  The driver guarantees ``configure`` is
    called exactly once, before any ``map``.
    """

    @abc.abstractmethod
    def configure(self, partition: Any, context: MapperContext) -> None:
        """Receive the static local data partition (runs data-locally)."""

    @abc.abstractmethod
    def map(self, broadcast: Any, context: MapperContext) -> dict[str, np.ndarray]:
        """Run one local iteration given the broadcast consensus state.

        Returns a dict of named vectors; the driver's aggregator combines
        them across mappers by summation.
        """


class IterativeReducer(abc.ABC):
    """The consensus-forming Reduce() task."""

    @abc.abstractmethod
    def reduce(
        self, sums: dict[str, np.ndarray], n_mappers: int, context: ReducerContext
    ) -> tuple[Any, bool]:
        """Combine the (securely) summed map outputs into new state.

        Returns ``(new_broadcast_state, converged)``.
        """

    def initial_state(self) -> Any:
        """State broadcast before the first iteration (default ``None``)."""
        return None


class Aggregator(abc.ABC):
    """Strategy moving map outputs to the reducer as *sums*.

    Implementations must deliver, for every key appearing in the map
    outputs, the elementwise sum over mappers — and nothing else — to the
    caller.  How much an adversary can learn along the way is what
    distinguishes implementations.
    """

    @abc.abstractmethod
    def aggregate(
        self,
        outputs: dict[str, dict[str, np.ndarray]],
        reducer_id: str,
        network: Network,
    ) -> dict[str, np.ndarray]:
        """Sum ``outputs[node][key]`` over nodes, transporting via ``network``."""


class PlaintextAggregator(Aggregator):
    """Baseline aggregator: mappers send raw local results to the reducer.

    This is the *insecure* strawman — the reducer (and any eavesdropper)
    sees every individual ``w_m``.  It exists to measure the overhead of
    the secure protocol and to drive the leakage demonstrations in
    :mod:`repro.security`.
    """

    def aggregate(
        self,
        outputs: dict[str, dict[str, np.ndarray]],
        reducer_id: str,
        network: Network,
    ) -> dict[str, np.ndarray]:
        """Ship every mapper's raw output to the reducer and sum there."""
        sums: dict[str, np.ndarray] = {}
        for node_id, named in outputs.items():
            network.send(node_id, reducer_id, named, kind="consensus")
        for _ in outputs:
            named = network.receive(reducer_id, kind="consensus")
            for key, value in named.items():
                value = np.asarray(value, dtype=float)
                sums[key] = sums.get(key, 0.0) + value
        return sums


@dataclass(frozen=True)
class IterationResult:
    """Record of one driver iteration.

    Attributes
    ----------
    iteration:
        0-based index.
    converged:
        The reducer's convergence verdict.
    wall_time_s:
        Wall-clock seconds spent in this iteration.
    bytes_delta:
        Network bytes transmitted during this iteration.
    """

    iteration: int
    converged: bool
    wall_time_s: float
    bytes_delta: float


Outputs = dict[str, dict[str, np.ndarray]]


class Transport(abc.ABC):
    """Where the map tasks' partitions live and how the state and the
    outputs travel.  ``network`` carries the run's tracer and counters."""

    network: Network

    @abc.abstractmethod
    def tasks(self, source: Any) -> list[tuple[str, str, Any]]:
        """``(task key, node id, partition)`` per map task, in block order."""

    @abc.abstractmethod
    def broadcast(self, src: str, nodes: list[str], state: Any) -> dict[str, Any]:
        """Each node's copy of ``state``."""

    @abc.abstractmethod
    def aggregate(self, outputs: Outputs, reducer_id: str) -> dict[str, np.ndarray]:
        """The reducer's key-wise sums of ``outputs[node]``."""


class ClusterTransport(Transport):
    """``source`` names an HDFS file whose blocks are read data-locally;
    the state is a network broadcast and the outputs go through
    ``aggregator`` (the secure sum, in the paper)."""

    def __init__(self, hdfs: SimulatedHdfs, aggregator: Aggregator) -> None:
        self.hdfs = hdfs
        self.aggregator = aggregator
        self.network = hdfs.network

    def tasks(self, source: str) -> list[tuple[str, str, Any]]:
        """One task per block, placed by the :class:`LocalityScheduler`."""
        hdfs = self.hdfs
        return [
            (
                f"{task.node_id}/{task.block_index}",
                task.node_id,
                hdfs.read_block(task.node_id, source, task.block_index),
            )
            for task in LocalityScheduler(hdfs).assign(source)
        ]

    def broadcast(self, src: str, nodes: list[str], state: Any) -> dict[str, Any]:
        """One ``broadcast`` message per node; mappers act on the received copy."""
        self.network.broadcast(src, nodes, state, kind="broadcast")
        return {node: self.network.receive(node, kind="broadcast") for node in nodes}

    def aggregate(self, outputs: Outputs, reducer_id: str) -> dict[str, np.ndarray]:
        """Whatever ``aggregator`` sends."""
        return self.aggregator.aggregate(outputs, reducer_id, self.network)


class InMemoryTransport(Transport):
    """``source`` is the list of partitions, mappers read the state by
    reference, outputs are summed in NumPy, and the tracer is off;
    ``network`` keeps the counters and is never sent on."""

    def __init__(self) -> None:
        self.network = Network(Profiler(TraceRecorder(enabled=False)), keep_log=False)

    def tasks(self, source: list[Any]) -> list[tuple[str, str, Any]]:
        """Task ``m`` runs partition ``m`` on node ``learner-m``."""
        return [(f"learner-{m}", f"learner-{m}", part) for m, part in enumerate(source)]

    def broadcast(self, src: str, nodes: list[str], state: Any) -> dict[str, Any]:
        """The reducer's state object itself, for every node."""
        return dict.fromkeys(nodes, state)

    def aggregate(self, outputs: Outputs, reducer_id: str) -> dict[str, np.ndarray]:
        """Key-wise sums in node order; the outputs themselves stay untouched."""
        first, *rest = outputs.values()
        sums: dict[str, np.ndarray] = {}
        for key, value in first.items():
            total = np.array(value, dtype=float)
            for named in rest:
                total += named[key]
            sums[key] = total
        return sums


@dataclass
class IterativeMapReduceDriver:
    """Orchestrates configure-once / iterate-many MapReduce rounds.

    Parameters
    ----------
    transport:
        Where the rounds run: a :class:`ClusterTransport` or an
        :class:`InMemoryTransport`.
    mapper_factory:
        Zero-argument callable creating a fresh :class:`IterativeMapper`
        per partition.
    reducer:
        The consensus reducer.
    reducer_node:
        Node id for the reducer (registered automatically).
    on_round:
        Optional callback invoked with each :class:`IterationResult`
        right after it is appended to :attr:`history` (while the round's
        metrics are fresh) — the hook the trainers use to stream results
        into a :class:`~repro.obs.health.HealthMonitor` or to score an
        eval set.  Exceptions propagate and abort the run.
    participation, rng:
        Fraction of the map tasks that run a fresh ``map`` each round
        after the first, drawn with ``rng``; the others resend their
        last output.  1.0 (the default) runs every task every round.
    """

    transport: Transport
    mapper_factory: Callable[[], IterativeMapper]
    reducer: IterativeReducer
    reducer_node: str = "reducer"
    on_round: Callable[[IterationResult], None] | None = None
    participation: float = 1.0
    rng: np.random.Generator | None = None
    history: list[IterationResult] = field(default_factory=list)
    _mappers: dict[str, IterativeMapper] = field(default_factory=dict)
    _contexts: dict[str, MapperContext] = field(default_factory=dict)

    def mappers(self) -> list[IterativeMapper]:
        """The configured mappers, in block order.

        Public accessor for callers (trainers, diagnostics) that need
        the per-partition learner state after :meth:`setup` — stable
        ordering, no reliance on the private task table.
        """
        return list(self._mappers.values())

    def setup(self, source: Any) -> None:
        """Instantiate and configure one mapper per partition of ``source``
        (an HDFS file name or an in-memory list, per the transport)."""
        network = self.transport.network
        network.register(self.reducer_node)
        for key, node_id, partition in self.transport.tasks(source):
            context = MapperContext(node_id=node_id, network=network)
            mapper = self.mapper_factory()
            mapper.configure(partition, context)
            self._mappers[key] = mapper
            self._contexts[key] = context

    def run(self, source: Any, *, max_iterations: int = 100) -> list[IterationResult]:
        """Execute up to ``max_iterations`` map→aggregate→reduce rounds.

        The reducer's state is broadcast to all mappers at the start of
        every round (the Twister feedback channel); iteration stops early
        when the reducer reports convergence.

        Emits the ``twister.iterations`` counter and, per round, one
        ``twister.round`` span with ``twister.broadcast`` /
        ``twister.map_wave`` / ``twister.aggregate`` / ``twister.reduce``
        children, each iteration-tagged.
        """
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        rng = self.rng
        if self.participation < 1.0 and rng is None:
            raise ValueError("partial participation needs an rng to draw with")
        if not self._mappers:
            self.setup(source)
        transport = self.transport
        network = transport.network
        tracer = network.tracer
        reducer_context = ReducerContext(node_id=self.reducer_node, network=network)
        state = self.reducer.initial_state()
        self.history = []
        tasks = [
            (key, mapper, self._contexts[key], self._contexts[key].node_id)
            for key, mapper in self._mappers.items()
        ]
        keys = list(self._mappers)
        everyone = frozenset(keys)
        n_fresh = max(1, int(round(self.participation * len(keys))))
        mapper_nodes = sorted({node for _, _, _, node in tasks})
        last: dict[str, dict[str, np.ndarray]] = {}

        for iteration in range(max_iterations):
            start_bytes = network.bytes_sent()
            start_time = time.perf_counter()
            fresh = everyone
            if rng is not None and self.participation < 1.0 and iteration > 0:
                drawn = rng.choice(len(keys), size=n_fresh, replace=False)
                fresh = frozenset(keys[index] for index in drawn.tolist())

            with tracer.iteration(iteration), tracer.span(
                "twister.round", kind="round", node=self.reducer_node
            ) as round_span:
                with tracer.span(
                    "twister.broadcast", kind="broadcast", node=self.reducer_node
                ):
                    node_state = transport.broadcast(self.reducer_node, mapper_nodes, state)

                # Node-side combining: if a node hosts several map tasks
                # their outputs are summed locally before transport (Hadoop
                # combiner semantics — no extra network traffic, no extra
                # leakage).
                outputs: dict[str, dict[str, np.ndarray]] = {}
                with tracer.span("twister.map_wave", kind="map", n_mappers=len(tasks)):
                    for key, mapper, context, node in tasks:
                        if key in fresh:
                            context.iteration = iteration
                            named = last[key] = mapper.map(node_state[node], context)
                        else:
                            named = last[key]
                        if node in outputs:
                            named = {k: np.add(outputs[node][k], v) for k, v in named.items()}
                        outputs[node] = named

                with tracer.span("twister.aggregate", kind="aggregate"):
                    sums = transport.aggregate(outputs, self.reducer_node)

                reducer_context.iteration = iteration
                with tracer.span("twister.reduce", kind="reduce", node=self.reducer_node):
                    state, converged = self.reducer.reduce(sums, len(tasks), reducer_context)
                network.metrics.increment("twister.iterations", 1)
                bytes_delta = network.bytes_sent() - start_bytes
                round_span.attrs.update(converged=converged, bytes_delta=bytes_delta)

            result = IterationResult(
                iteration=iteration,
                converged=converged,
                wall_time_s=time.perf_counter() - start_time,
                bytes_delta=bytes_delta,
            )
            self.history.append(result)
            if self.on_round is not None:
                self.on_round(result)
            if converged:
                break
        return self.history
