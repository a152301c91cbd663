"""Simulated cluster network.

All inter-node communication in the library — HDFS block transport,
Twister broadcast, and every round of the secure summation protocol — flows
through a :class:`Network`.  The network

* hands the receiver an isolated copy of each payload and measures its
  wire size: a :class:`~repro.crypto.fixed_point.ResidueVector` (the
  secure sum's masks and shares) through its ``wire_copy`` method, a
  read-only limb copy whose size equals its pickled length, and every
  other payload (the threshold sum's ``uint32`` share planes among
  them) through one ``pickle`` round trip — one ``dumps`` per
  broadcast, however many nodes it reaches, and one ``loads`` per
  receiver;
* accounts bytes per message *kind* in the shared
  :class:`~repro.cluster.metrics.MetricRegistry`;
* advances a simple simulated clock using a latency + bandwidth model
  (:class:`LatencyModel`), so experiments can report simulated transfer
  time in addition to wall time;
* keeps a complete :attr:`Network.message_log`, which is exactly the
  *wire view* a semi-honest adversary (e.g. the Reducer, or an
  eavesdropper) can record — the security analysis in
  :mod:`repro.security` replays this log.

Nodes are identified by opaque string ids and must be registered before
use; messages are delivered into per-node, per-kind FIFO inboxes.

Observability: byte/message counters are listed in
``docs/OBSERVABILITY.md``; the attached
:class:`~repro.cluster.tracing.TraceRecorder` books them per iteration,
and the message log stays the per-message wire view.  By default the
metrics object is a :class:`~repro.cluster.profiling.Profiler`, so
counters and trace share one registry and one ``snapshot()`` schema.

Example
-------
>>> network = Network()
>>> network.register("a")
>>> network.register("b")
>>> with network.tracer.iteration(0):
...     message = network.send("a", "b", {"w": [1.0, 2.0]}, kind="consensus")
>>> network.receive("b", kind="consensus")
{'w': [1.0, 2.0]}
>>> network.bytes_sent("consensus") == message.size_bytes
True
>>> network.tracer.counter_totals[0]["network.bytes.consensus"] == message.size_bytes
True
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.cluster.metrics import MetricRegistry
from repro.cluster.profiling import Profiler
from repro.cluster.tracing import TraceRecorder
from repro.utils.validation import check_positive

__all__ = ["LatencyModel", "Message", "Network", "NetworkError"]


class NetworkError(RuntimeError):
    """Raised for protocol misuse: unknown nodes, empty inboxes, etc."""


class Message(NamedTuple):
    """An immutable record of one network transmission.

    Attributes
    ----------
    seq:
        Global sequence number (delivery order).
    src, dst:
        Sender and receiver node ids.
    kind:
        Application-level tag, e.g. ``"consensus"``, ``"mask-seed"``,
        ``"broadcast"`` — used for byte accounting and for the adversary's
        selective wiretaps.
    payload:
        The receiver's copy of the transmitted object: a read-only limb
        copy for a ``ResidueVector``, else a pickle round trip of the
        payload.  Either way sender-side mutation cannot leak
        through.
    size_bytes:
        Serialized payload size: the length of the payload's pickle
        (``pickle.HIGHEST_PROTOCOL``), also where no pickle is made.
    """

    seq: int
    src: str
    dst: str
    kind: str
    payload: Any
    size_bytes: int


@dataclass(frozen=True)
class LatencyModel:
    """Per-message transfer-time model: ``latency + size / bandwidth``.

    Defaults approximate a commodity gigabit cluster (0.5 ms RTT-ish
    latency, 125 MB/s).  ``straggler_factor`` > 1 multiplies delays for
    node ids listed in ``stragglers`` — used by fault-injection tests.
    """

    latency_s: float = 5e-4
    bandwidth_bytes_per_s: float = 125e6
    straggler_factor: float = 1.0
    stragglers: frozenset[str] = field(default_factory=frozenset)

    def transfer_time(self, message: Message) -> float:
        """Simulated seconds to deliver ``message``."""
        base = self.latency_s + message.size_bytes / self.bandwidth_bytes_per_s
        if message.src in self.stragglers or message.dst in self.stragglers:
            return base * self.straggler_factor
        return base


class Network:
    """In-process message-passing fabric with byte accounting.

    Parameters
    ----------
    metrics:
        Shared counter registry; a private
        :class:`~repro.cluster.profiling.Profiler` (registry + tracer in
        one) is created if omitted.  A bare ``MetricRegistry`` works
        too, with the same per-iteration attribution.
    latency_model:
        Transfer-time model for the simulated clock.
    keep_log:
        Whether to retain the full message log (the adversary view).
        Disable for very long benchmark runs to bound memory.
    tracer:
        Explicit :class:`~repro.cluster.tracing.TraceRecorder`;
        defaults to the one inside ``metrics`` when that is a
        ``Profiler``, else a fresh recorder.  The network attaches its
        simulated clock so spans capture simulated-latency durations,
        and its counter registry so iterations book their counter
        totals.
    """

    def __init__(
        self,
        metrics: MetricRegistry | None = None,
        latency_model: LatencyModel | None = None,
        *,
        keep_log: bool = True,
        tracer: TraceRecorder | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else Profiler()
        if tracer is None:
            tracer = getattr(self.metrics, "tracer", None)
        self.tracer = tracer if tracer is not None else TraceRecorder()
        self.latency_model = latency_model if latency_model is not None else LatencyModel()
        self.keep_log = keep_log
        self.message_log: list[Message] = []
        self.simulated_time_s: float = 0.0
        self.tracer.sim_clock = lambda: self.simulated_time_s
        self.tracer.registry = self.metrics
        self._inboxes: dict[str, dict[str, deque[Message]]] = {}
        # kind -> (messages counter, bytes counter), built once per kind.
        self._kind_counters: dict[str, tuple[str, str]] = {}
        self._seq = 0
        self._failed: set[str] = set()

    # -- membership ---------------------------------------------------

    def register(self, node_id: str) -> None:
        """Add a node; idempotent."""
        self._inboxes.setdefault(str(node_id), {})

    @property
    def node_ids(self) -> list[str]:
        """All registered node ids, in registration order."""
        return list(self._inboxes)

    def fail_node(self, node_id: str) -> None:
        """Mark a node as crashed: sends to/from it raise ``NetworkError``."""
        self._require_registered(node_id)
        self._failed.add(node_id)

    def recover_node(self, node_id: str) -> None:
        """Clear a previous :meth:`fail_node`."""
        self._failed.discard(node_id)

    # -- data plane ----------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, kind: str = "data") -> Message:
        """Transmit ``payload`` from ``src`` to ``dst`` under tag ``kind``.

        The receiver gets an independent copy of the payload and the
        message its wire size.  A payload whose type has a ``wire_copy()``
        method returning ``(copy, size_bytes)`` is delivered that way
        (a ``ResidueVector``: read-only limbs, no pickling); any other
        payload is pickled once and the same buffer gives the size and
        the copy.
        Counters are updated, the simulated clock advances, and the
        message lands in the receiver's inbox for that kind.

        Emits counters ``network.messages``, ``network.messages.<kind>``,
        ``network.bytes``, ``network.bytes.<kind>``,
        ``network.serialize_s`` (wall seconds spent making the
        receiver's copy and the wire size, once per send).
        """
        inboxes = self._inboxes
        dst_inbox = inboxes.get(dst)
        if dst_inbox is None or src not in inboxes:
            unknown = dst if src in inboxes else src
            raise NetworkError(f"unknown node {unknown!r}; register it first")
        failed = self._failed
        if failed:
            if src in failed:
                raise NetworkError(f"node {src!r} has failed and cannot send")
            if dst in failed:
                raise NetworkError(f"node {dst!r} has failed and cannot receive")
        if src == dst:
            raise NetworkError("a node does not use the network to talk to itself")

        # The receiver's isolated copy and the wire size: from the
        # payload type's ``wire_copy`` where it has one, else from one
        # pickle buffer.
        serialize_start = time.perf_counter()
        wire_copy = getattr(type(payload), "wire_copy", None)
        if wire_copy is not None:
            received_payload, size_bytes = wire_copy(payload)
        else:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            received_payload, size_bytes = pickle.loads(blob), len(blob)
        serialize_s = time.perf_counter() - serialize_start
        message = Message(self._seq, src, dst, kind, received_payload, size_bytes)
        self._seq += 1

        # The trailing comments below name the per-kind counters for the
        # counter-docs lint, which reads names off increment lines.
        kind_counters = self._kind_counters.get(kind)
        if kind_counters is None:
            kind_counters = (f"network.messages.{kind}", f"network.bytes.{kind}")
            self._kind_counters[kind] = kind_counters
        messages_name, bytes_name = kind_counters
        metrics = self.metrics
        metrics.increment("network.serialize_s", serialize_s)
        metrics.increment("network.messages", 1)
        metrics.increment(messages_name, 1)  # f"network.messages.{kind}"
        metrics.increment("network.bytes", size_bytes)
        metrics.increment(bytes_name, size_bytes)  # f"network.bytes.{kind}"
        self.simulated_time_s += self.latency_model.transfer_time(message)

        if self.keep_log:
            self.message_log.append(message)
        queue = dst_inbox.get(kind)
        if queue is None:
            queue = dst_inbox[kind] = deque()
        queue.append(message)
        return message

    def broadcast(self, src: str, dsts: list[str], payload: Any, kind: str = "data") -> None:
        """Send ``payload`` from ``src`` to every node in ``dsts``.

        Emits the same counters as :meth:`send`, once per destination
        (``src`` itself is skipped).  A payload with no ``wire_copy`` is
        pickled once, at the first send, and every destination receives
        its own copy loaded from that one buffer; each message has the
        size one :meth:`send` of the payload would give it.
        """
        if getattr(type(payload), "wire_copy", None) is None:
            payload = _PickledOnce(payload)
        for dst in dsts:
            if dst != src:
                self.send(src, dst, payload, kind)

    def receive(self, node_id: str, kind: str = "data") -> Any:
        """Pop the oldest pending payload of ``kind`` for ``node_id``."""
        return self.receive_message(node_id, kind).payload

    def receive_message(self, node_id: str, kind: str = "data") -> Message:
        """Like :meth:`receive` but returns the full :class:`Message`."""
        inbox = self._inboxes.get(node_id)
        if inbox is None:
            raise NetworkError(f"unknown node {node_id!r}; register it first")
        queue = inbox.get(kind)
        if not queue:
            raise NetworkError(f"node {node_id!r} has no pending {kind!r} message")
        return queue.popleft()

    def pending(self, node_id: str, kind: str = "data") -> int:
        """Number of undelivered messages of ``kind`` for ``node_id``."""
        self._require_registered(node_id)
        queue = self._inboxes[node_id].get(kind)
        return len(queue) if queue else 0

    # -- accounting ----------------------------------------------------

    def bytes_sent(self, kind: str | None = None) -> float:
        """Total bytes transmitted (optionally restricted to one kind)."""
        name = "network.bytes" if kind is None else f"network.bytes.{kind}"
        return self.metrics.get(name)

    def messages_sent(self, kind: str | None = None) -> float:
        """Total messages transmitted (optionally restricted to one kind)."""
        name = "network.messages" if kind is None else f"network.messages.{kind}"
        return self.metrics.get(name)

    def _require_registered(self, node_id: str) -> None:
        if node_id not in self._inboxes:
            raise NetworkError(f"unknown node {node_id!r}; register it first")


class _PickledOnce:
    """A broadcast payload pickled once for all its destinations.

    :meth:`Network.send` finds ``wire_copy`` on this type and delivers
    ``pickle.loads`` of the one buffer, so each receiver still gets its
    own copy of the wrapped object, never the wrapper.
    """

    __slots__ = ("value", "blob")

    def __init__(self, value: Any) -> None:
        self.value = value
        self.blob: bytes | None = None

    def wire_copy(self) -> tuple[Any, int]:
        blob = self.blob
        if blob is None:
            blob = self.blob = pickle.dumps(self.value, protocol=pickle.HIGHEST_PROTOCOL)
        return pickle.loads(blob), len(blob)
