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
from repro.cluster.scheduler import LocalityScheduler

__all__ = [
    "Aggregator",
    "IterationResult",
    "IterativeMapReduceDriver",
    "IterativeMapper",
    "IterativeReducer",
    "MapperContext",
    "PlaintextAggregator",
    "ReducerContext",
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
    state:
        Broadcast state produced by the reducer this iteration.
    converged:
        The reducer's convergence verdict.
    wall_time_s:
        Wall-clock seconds spent in this iteration.
    bytes_delta:
        Network bytes transmitted during this iteration.
    """

    iteration: int
    state: Any
    converged: bool
    wall_time_s: float
    bytes_delta: float


@dataclass
class IterativeMapReduceDriver:
    """Orchestrates configure-once / iterate-many MapReduce rounds.

    Parameters
    ----------
    hdfs:
        File system holding the (private) input partitions.
    mapper_factory:
        Zero-argument callable creating a fresh :class:`IterativeMapper`
        per partition.
    reducer:
        The consensus reducer.
    aggregator:
        Map-output transport strategy (secure sum in the paper's scheme).
    reducer_node:
        Node id for the reducer (registered automatically).
    on_round:
        Optional callback invoked with each :class:`IterationResult`
        right after it is appended to :attr:`history` (while the round's
        metrics are fresh) — the hook the trainer uses to stream results
        into a :class:`~repro.obs.health.HealthMonitor`.  Exceptions
        propagate and abort the run.
    """

    hdfs: SimulatedHdfs
    mapper_factory: Callable[[], IterativeMapper]
    reducer: IterativeReducer
    aggregator: Aggregator
    reducer_node: str = "reducer"
    on_round: Callable[[IterationResult], None] | None = None
    history: list[IterationResult] = field(default_factory=list)
    _mappers: dict[str, IterativeMapper] = field(default_factory=dict)
    _contexts: dict[str, MapperContext] = field(default_factory=dict)

    def mappers(self) -> list[IterativeMapper]:
        """The configured mappers, in sorted task-key order.

        Public accessor for callers (trainers, diagnostics) that need
        the per-partition learner state after :meth:`setup` — stable
        ordering, no reliance on the private task table.
        """
        return [self._mappers[key] for key in sorted(self._mappers)]

    def setup(self, input_file: str) -> None:
        """Instantiate and configure one mapper per block, data-locally."""
        network = self.hdfs.network
        network.register(self.reducer_node)
        scheduler = LocalityScheduler(self.hdfs)
        for task in scheduler.assign(input_file):
            partition = self.hdfs.read_block(task.node_id, input_file, task.block_index)
            context = MapperContext(node_id=task.node_id, network=network)
            mapper = self.mapper_factory()
            mapper.configure(partition, context)
            key = f"{task.node_id}/{task.block_index}"
            self._mappers[key] = mapper
            self._contexts[key] = context

    def run(self, input_file: str, *, max_iterations: int = 100) -> list[IterationResult]:
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
        if not self._mappers:
            self.setup(input_file)
        network = self.hdfs.network
        reducer_context = ReducerContext(node_id=self.reducer_node, network=network)
        state = self.reducer.initial_state()
        self.history = []

        tracer = network.tracer
        for iteration in range(max_iterations):
            start_bytes = network.bytes_sent()
            start_time = time.perf_counter()

            with tracer.iteration(iteration), tracer.span(
                "twister.round", kind="round", node=self.reducer_node
            ) as round_span:
                # Feedback channel: reducer -> every mapper node.  Mappers
                # act on the *received* copy (serialization isolation), not
                # on a shared reference to the reducer's state.
                mapper_nodes = sorted({ctx.node_id for ctx in self._contexts.values()})
                with tracer.span(
                    "twister.broadcast", kind="broadcast", node=self.reducer_node
                ):
                    network.broadcast(
                        self.reducer_node, mapper_nodes, state, kind="broadcast"
                    )
                    node_state = {
                        node: network.receive(node, kind="broadcast")
                        for node in mapper_nodes
                    }

                # Node-side combining: if a node hosts several map tasks
                # their outputs are summed locally before transport (Hadoop
                # combiner semantics — no extra network traffic, no extra
                # leakage).
                outputs: dict[str, dict[str, np.ndarray]] = {}
                with tracer.span(
                    "twister.map_wave", kind="map", n_mappers=len(self._mappers)
                ):
                    for key, mapper in self._mappers.items():
                        context = self._contexts[key]
                        context.iteration = iteration
                        named = mapper.map(node_state[context.node_id], context)
                        node_out = outputs.setdefault(context.node_id, {})
                        for out_key, value in named.items():
                            value = np.asarray(value, dtype=float)
                            if out_key in node_out:
                                node_out[out_key] = node_out[out_key] + value
                            else:
                                node_out[out_key] = value

                with tracer.span("twister.aggregate", kind="aggregate"):
                    sums = self.aggregator.aggregate(outputs, self.reducer_node, network)

                reducer_context.iteration = iteration
                with tracer.span("twister.reduce", kind="reduce", node=self.reducer_node):
                    state, converged = self.reducer.reduce(
                        sums, len(self._mappers), reducer_context
                    )
                network.metrics.increment("twister.iterations", 1)
                round_span.attrs["converged"] = converged
                round_span.attrs["bytes_delta"] = network.bytes_sent() - start_bytes

            result = IterationResult(
                iteration=iteration,
                state=state,
                converged=converged,
                wall_time_s=time.perf_counter() - start_time,
                bytes_delta=network.bytes_sent() - start_bytes,
            )
            self.history.append(result)
            if self.on_round is not None:
                self.on_round(result)
            if converged:
                break
        return self.history
