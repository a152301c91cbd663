"""Structured tracing for the simulated cluster.

Flat counters (:mod:`repro.cluster.metrics`) answer *how much* — total
bytes, total crypto ops — but not *when* or *in which iteration* a byte
moved or a Paillier operation ran.  :class:`TraceRecorder` fills that
gap with three kinds of structured records, all cheap enough to stay on
by default:

* **spans** — named intervals with wall-clock *and* simulated-latency
  durations, parent/child nesting, a node id, an iteration tag, and
  free-form attributes (e.g. the ADMM residuals attached to a
  convergence-check span);
* **events** — instantaneous points with free-form attributes;
* **per-iteration counter totals** — each :meth:`TraceRecorder.iteration`
  boundary books the attached registry's change since the previous
  boundary to the iteration being left, which is what makes
  per-iteration bytes by kind and crypto-op counts derivable.

Exporters turn a recording into ``.jsonl`` (:meth:`TraceRecorder.to_jsonl`),
Chrome-trace JSON loadable in ``chrome://tracing`` / Perfetto
(:meth:`TraceRecorder.to_chrome_trace`), or a per-iteration cost table
(:meth:`TraceRecorder.iteration_costs`, rendered by
:func:`cost_table`) whose totals reconcile exactly with the
:class:`~repro.cluster.metrics.MetricRegistry` counters.

The span schema and every recorded name are documented in
``docs/OBSERVABILITY.md``.

Example
-------
>>> recorder = TraceRecorder()
>>> with recorder.iteration(0):
...     with recorder.span("round", kind="round") as outer:
...         with recorder.span("local_step", node="learner-0") as inner:
...             pass
>>> inner.parent_id == outer.span_id
True
>>> (outer.iteration, inner.node)
(0, 'learner-0')
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, ContextManager

from repro.cluster.metrics import MetricRegistry

__all__ = [
    "Span",
    "TraceEvent",
    "TraceRecorder",
    "cost_table",
]


@dataclass(slots=True)
class Span:
    """One named interval in a trace.

    Attributes
    ----------
    span_id:
        Recorder-unique id.
    parent_id:
        ``span_id`` of the enclosing span, or ``None`` at top level.
    name:
        Dotted span name, e.g. ``"twister.round"`` (the registry of
        names lives in ``docs/OBSERVABILITY.md``).
    kind:
        Coarse category used for grouping/export: ``"round"``, ``"map"``,
        ``"reduce"``, ``"broadcast"``, ``"crypto"``, ``"hdfs"``,
        ``"trainer"``, ...
    node:
        Simulated node the work ran on (``None`` for driver-level work).
    iteration:
        0-based training iteration, or ``None`` outside any round
        (setup work: HDFS placement, PRG seed exchange, ...).
    start_wall_s, duration_wall_s:
        Wall-clock interval, relative to the recorder's origin.
    start_sim_s, duration_sim_s:
        Simulated-clock interval (``None`` when no simulated clock is
        attached); durations count the simulated network transfer time
        that elapsed inside the span.
    attrs:
        Free-form attributes (byte counts, residuals, op counts).
    """

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    node: str | None
    iteration: int | None
    start_wall_s: float
    duration_wall_s: float = 0.0
    start_sim_s: float | None = None
    duration_sim_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
class TraceEvent:
    """One instantaneous point in a trace (e.g. a message send).

    Attributes mirror :class:`Span` minus the durations; ``wall_s`` and
    ``sim_s`` are the timestamps at which the event was recorded.
    """

    name: str
    kind: str
    node: str | None
    iteration: int | None
    wall_s: float
    sim_s: float | None
    attrs: dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """What a disabled recorder's :meth:`TraceRecorder.span` yields.

    ``attrs`` is a fresh dict on every access, so whatever a caller sets
    on it is dropped; one shared instance therefore serves every span.
    """

    __slots__ = ()

    @property
    def attrs(self) -> dict[str, Any]:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanScope:
    """What an enabled recorder's :meth:`TraceRecorder.span` returns.

    Entering opens the :class:`Span` (start times, parent, stack push)
    and returns it; leaving closes it and stores it, within the
    recorder's ``max_records``, whether or not the body raised.
    """

    __slots__ = ("_recorder", "_name", "_kind", "_node", "_iteration", "_attrs", "_record")
    _record: Span

    def __init__(
        self,
        recorder: "TraceRecorder",
        name: str,
        kind: str,
        node: str | None,
        iteration: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._kind = kind
        self._node = node
        self._iteration = iteration
        self._attrs = attrs

    def __enter__(self) -> Span:
        recorder = self._recorder
        stack = recorder._stack
        sim_clock = recorder.sim_clock
        iteration = self._iteration
        span_id = recorder._next_id
        # Positional, in field order: span_id, parent_id, name, kind,
        # node, iteration, start_wall_s, duration_wall_s, start_sim_s,
        # duration_sim_s, attrs.
        record = Span(
            span_id,
            stack[-1] if stack else None,
            self._name,
            self._kind,
            self._node,
            iteration if iteration is not None else recorder._iteration,
            time.perf_counter() - recorder._origin,
            0.0,
            sim_clock() if sim_clock is not None else None,
            None,
            self._attrs,
        )
        recorder._next_id = span_id + 1
        stack.append(span_id)
        self._record = record
        return record

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        recorder = self._recorder
        record = self._record
        recorder._stack.pop()
        record.duration_wall_s = time.perf_counter() - recorder._origin - record.start_wall_s
        sim_clock = recorder.sim_clock
        if record.start_sim_s is not None and sim_clock is not None:
            record.duration_sim_s = sim_clock() - record.start_sim_s
        if recorder._stored < recorder.max_records:
            recorder._stored += 1
            recorder.spans.append(record)
        else:
            recorder.dropped += 1


class _IterationScope:
    """What an enabled recorder's :meth:`TraceRecorder.iteration` returns.

    Entering books the registry's change so far and sets the iteration
    tag; leaving books the change made inside to that iteration and
    restores the previous tag, whether or not the body raised.
    """

    __slots__ = ("_recorder", "_index", "_previous")

    def __init__(self, recorder: "TraceRecorder", index: int) -> None:
        self._recorder = recorder
        self._index = index
        self._previous: int | None = None

    def __enter__(self) -> None:
        recorder = self._recorder
        recorder._book()
        self._previous = recorder._iteration
        recorder._iteration = self._index

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        recorder = self._recorder
        recorder._book()
        recorder._iteration = self._previous


class TraceRecorder:
    """Records spans, events, and per-iteration counter totals for one run.

    Parameters
    ----------
    enabled:
        When ``False``, ``span()`` still yields usable handles (so
        instrumented code needs no guards) but nothing is stored.
    max_records:
        Upper bound on stored spans + events (counter totals are not
        capped); once reached, further records are dropped and counted in
        :attr:`dropped` (bounding memory on very long benchmark runs, like
        ``Network(keep_log=False)`` does for the message log).
    sim_clock:
        Zero-argument callable returning the current simulated time;
        :class:`~repro.cluster.network.Network` attaches its own clock
        so spans capture simulated-latency durations.

    ``registry`` (attached by :class:`~repro.cluster.network.Network`)
    is the registry whose changes are booked into ``counter_totals``,
    ``{iteration: {name: total}}`` with ``None`` for setup work.

    A recorder is single-threaded, like the simulated cluster that
    drives it: spans nest on one stack and records are stored without
    locking.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        max_records: int = 500_000,
        sim_clock: Callable[[], float] | None = None,
    ) -> None:
        self.enabled = enabled
        self.max_records = max_records
        self.sim_clock = sim_clock
        self.registry: MetricRegistry | None = None
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self.counter_totals: dict[int | None, dict[str, float]] = {}
        self.dropped = 0
        self._origin = time.perf_counter()
        self._next_id = 0
        self._iteration: int | None = None
        self._stack: list[int] = []
        # Running count of stored spans + events, so the ``max_records``
        # check is one comparison per record.
        self._stored = 0
        # Registry values at the last booking boundary.
        self._booked: dict[str, float] = {}

    # -- recording ------------------------------------------------------

    @property
    def current_iteration(self) -> int | None:
        """Iteration tag applied to new records (``None`` = setup)."""
        return self._iteration

    def iteration(self, index: int) -> ContextManager[Any]:
        """Tag every span/event recorded inside with ``index``; counter
        changes made inside are booked to ``index`` on exit.  A disabled
        recorder does neither."""
        if not self.enabled:
            return _NULL_SPAN
        return _IterationScope(self, int(index))

    def _book(self) -> None:
        """Book the registry's change since the last boundary to the
        current iteration, one :meth:`counter` call per changed name."""
        if self.registry is None:
            return
        booked = self._booked
        for name, value in self.registry.items():
            previous = booked.get(name, 0.0)
            if value != previous:
                # A fall means the registry was reset: all of it is new.
                self.counter(name, value - previous if value > previous else value)
                booked[name] = value

    def span(
        self,
        name: str,
        *,
        kind: str = "span",
        node: str | None = None,
        iteration: int | None = None,
        **attrs: Any,
    ) -> ContextManager[Any]:
        """Open a span; yields the mutable :class:`Span` so callers can
        attach result attributes (e.g. residuals) before it closes.

        A disabled recorder yields a bare handle with an ``attrs`` dict
        instead, without reading the clock or touching the span stack.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanScope(self, name, kind, node, iteration, attrs)

    def event(
        self,
        name: str,
        *,
        kind: str = "event",
        node: str | None = None,
        iteration: int | None = None,
        **attrs: Any,
    ) -> None:
        """Record an instantaneous event with free-form attributes."""
        if not self.enabled:
            return
        if self._stored >= self.max_records:
            self.dropped += 1
            return
        self._stored += 1
        self.events.append(
            TraceEvent(
                name,
                kind,
                node,
                iteration if iteration is not None else self._iteration,
                time.perf_counter() - self._origin,
                self.sim_clock() if self.sim_clock is not None else None,
                attrs,
            )
        )

    def counter(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``'s total for the current
        iteration (what :meth:`iteration_costs` aggregates)."""
        if not self.enabled:
            return
        totals = self.counter_totals.setdefault(self._iteration, {})
        totals[name] = totals.get(name, 0.0) + float(amount)

    def clear(self) -> None:
        """Drop all recorded spans/events/totals (keeps configuration);
        later totals count only what the registry gains after the clear."""
        self.spans.clear()
        self.events.clear()
        self.counter_totals.clear()
        self.dropped = 0
        self._stored = 0
        self._stack.clear()
        self._iteration = None
        self._booked = {} if self.registry is None else dict(self.registry.items())

    # -- aggregation ----------------------------------------------------

    def iteration_costs(self) -> list[dict[str, Any]]:
        """Aggregate the trace into one cost row per iteration.

        Returns a list of dicts sorted with the setup row (``iteration
        is None``) first, each with keys ``iteration``, ``bytes_by_kind``,
        ``messages_by_kind`` (from the ``network.{bytes,messages}.<kind>``
        totals), ``total_bytes``, ``total_messages``, ``crypto_ops``
        (counter name -> per-iteration total for ``crypto.*`` counters),
        ``wall_s`` and ``sim_s`` (durations of the ``twister.round`` spans
        of that iteration).

        Summing any column across rows reproduces the corresponding
        :class:`~repro.cluster.metrics.MetricRegistry` total — the
        reconciliation the tests and the ``repro trace`` CLI assert.
        """
        rows: dict[int | None, dict[str, Any]] = {}

        def row(iteration: int | None) -> dict[str, Any]:
            if iteration not in rows:
                rows[iteration] = {
                    "iteration": iteration,
                    "bytes_by_kind": {},
                    "messages_by_kind": {},
                    "total_bytes": 0.0,
                    "total_messages": 0.0,
                    "crypto_ops": {},
                    "wall_s": 0.0,
                    "sim_s": 0.0,
                }
            return rows[iteration]

        self._book()
        for iteration, totals in self.counter_totals.items():
            for name, amount in totals.items():
                if name.startswith("network.bytes."):
                    entry = row(iteration)
                    entry["bytes_by_kind"][name[len("network.bytes."):]] = amount
                    entry["total_bytes"] += amount
                elif name.startswith("network.messages."):
                    entry = row(iteration)
                    entry["messages_by_kind"][name[len("network.messages."):]] = amount
                    entry["total_messages"] += amount
                elif name.startswith("crypto."):
                    row(iteration)["crypto_ops"][name] = amount

        for span in self.spans:
            if span.name != "twister.round":
                continue
            entry = row(span.iteration)
            entry["wall_s"] += span.duration_wall_s
            entry["sim_s"] += span.duration_sim_s or 0.0

        return sorted(
            rows.values(),
            key=lambda r: (0, 0) if r["iteration"] is None else (1, r["iteration"]),
        )

    # -- exporters ------------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize the trace as JSON Lines, one record per line.

        Each line is a JSON object with a ``"type"`` discriminator:
        ``"span"``, ``"event"``, or ``"counter"`` (one iteration's total).
        """
        lines: list[str] = []
        for span in self.spans:
            lines.append(json.dumps({"type": "span", **asdict(span)}, default=str))
        for event in self.events:
            lines.append(json.dumps({"type": "event", **asdict(event)}, default=str))
        self._book()
        for iteration, totals in self.counter_totals.items():
            for name, amount in totals.items():
                record = {"type": "counter", "iteration": iteration, "name": name, "amount": amount}
                lines.append(json.dumps(record))
        return "\n".join(lines)

    def to_chrome_trace(self) -> dict[str, Any]:
        """Export as a Chrome-trace (Trace Event Format) JSON object.

        Load the ``json.dumps`` of the result in ``chrome://tracing`` or
        https://ui.perfetto.dev.  Each simulated node becomes a process
        (named via ``process_name`` metadata); spans become complete
        (``"ph": "X"``) events with microsecond timestamps; trace events
        become instant (``"ph": "i"``) events.  Span attributes and the
        iteration tag travel in ``args``.
        """
        pids: dict[str, int] = {}

        def pid(node: str | None) -> int:
            label = node if node is not None else "driver"
            if label not in pids:
                pids[label] = len(pids) + 1
            return pids[label]

        trace_events: list[dict[str, Any]] = []
        for span in self.spans:
            args = {"iteration": span.iteration, **span.attrs}
            trace_events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.kind,
                    "pid": pid(span.node),
                    "tid": 1,
                    "ts": span.start_wall_s * 1e6,
                    "dur": span.duration_wall_s * 1e6,
                    "args": {k: _jsonable(v) for k, v in args.items()},
                }
            )
        for event in self.events:
            args = {"iteration": event.iteration, **event.attrs}
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": event.name,
                    "cat": event.kind,
                    "pid": pid(event.node),
                    "tid": 1,
                    "ts": event.wall_s * 1e6,
                    "args": {k: _jsonable(v) for k, v in args.items()},
                }
            )
        metadata = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": process_id,
                "tid": 1,
                "args": {"name": label},
            }
            for label, process_id in pids.items()
        ]
        return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def _jsonable(value: Any) -> Any:
    """Coerce an attribute value into something JSON-serializable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _jsonable(value.tolist())
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def cost_table(rows: list[dict[str, Any]]) -> tuple[list[str], list[list[Any]]]:
    """Render :meth:`TraceRecorder.iteration_costs` rows as a table.

    Returns ``(headers, rows)`` with one column per message kind seen in
    the trace (``bytes:<kind>``), plus total bytes/messages, total
    crypto ops, and wall/simulated milliseconds — the shape consumed by
    ``repro trace``, :mod:`repro.experiments.report`, and the
    distributed-cost benchmark.
    """
    kinds = sorted({kind for row in rows for kind in row["bytes_by_kind"]})
    headers = (
        ["iteration"]
        + [f"bytes:{kind}" for kind in kinds]
        + ["total_bytes", "messages", "crypto_ops", "wall_ms", "sim_ms"]
    )
    table: list[list[Any]] = []
    for row in rows:
        label = "setup" if row["iteration"] is None else str(row["iteration"])
        table.append(
            [label]
            + [row["bytes_by_kind"].get(kind, 0.0) for kind in kinds]
            + [
                row["total_bytes"],
                row["total_messages"],
                sum(row["crypto_ops"].values()),
                row["wall_s"] * 1e3,
                row["sim_s"] * 1e3,
            ]
        )
    return headers, table
