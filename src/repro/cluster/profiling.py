"""Unified profiling facade: counters and spans behind one object.

:class:`Profiler` is a flat, monotonic
:class:`~repro.cluster.metrics.MetricRegistry` with a structured
:class:`~repro.cluster.tracing.TraceRecorder` attached — any code
written against ``MetricRegistry`` (every
``network.metrics.increment(...)`` call site) works unchanged against a
``Profiler``, and an increment is a plain registry increment.  The
tracer books the registry's change per iteration at each
``iteration()`` boundary, which is what makes per-round crypto-op
breakdowns derivable from a run.

:class:`~repro.cluster.network.Network` constructs a ``Profiler`` by
default, so the full observability surface is on for every simulated
run.

``snapshot()`` returns the one schema shared by counters and spans —
see ``docs/OBSERVABILITY.md`` for the field-by-field reference.

Example
-------
>>> profiler = Profiler()
>>> with profiler.iteration(0):
...     profiler.increment("crypto.masks_generated", 3)
>>> profiler.get("crypto.masks_generated")
3.0
>>> profiler.snapshot()["counters"]
{'crypto.masks_generated': 3.0}
>>> profiler.tracer.counter_totals
{0: {'crypto.masks_generated': 3.0}}
"""

from __future__ import annotations

from typing import Any, ContextManager

from repro.cluster.metrics import MetricRegistry
from repro.cluster.tracing import Span, TraceRecorder

__all__ = ["Profiler"]


class Profiler(MetricRegistry):
    """A counter registry with a trace recorder attached.

    Parameters
    ----------
    tracer:
        Span/event store; a fresh :class:`TraceRecorder` if omitted.
    """

    def __init__(self, tracer: TraceRecorder | None = None) -> None:
        super().__init__()
        self.tracer = tracer if tracer is not None else TraceRecorder()
        self.tracer.registry = self

    def reset(self) -> None:
        """Zero all counters *and* drop the recorded trace."""
        super().reset()
        self.tracer.clear()

    # -- TraceRecorder interface ----------------------------------------

    def span(self, name: str, **kwargs: Any) -> ContextManager[Span]:
        """Open a span on the underlying tracer (see :meth:`TraceRecorder.span`)."""
        return self.tracer.span(name, **kwargs)

    def event(self, name: str, **kwargs: Any) -> None:
        """Record an instantaneous event on the underlying tracer."""
        self.tracer.event(name, **kwargs)

    def iteration(self, index: int) -> ContextManager[None]:
        """Context manager tagging nested records with iteration ``index``."""
        return self.tracer.iteration(index)

    # -- unified view ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One schema for the whole run: counters, spans, and costs.

        Returns a dict with keys

        * ``"counters"`` — ``MetricRegistry.as_dict()``;
        * ``"spans"`` — list of :class:`~repro.cluster.tracing.Span`;
        * ``"events"`` — list of :class:`~repro.cluster.tracing.TraceEvent`;
        * ``"iterations"`` — :meth:`TraceRecorder.iteration_costs` rows;
        * ``"dropped"`` — records discarded past the tracer's cap.
        """
        return {
            "counters": self.as_dict(),
            "spans": list(self.tracer.spans),
            "events": list(self.tracer.events),
            "iterations": self.tracer.iteration_costs(),
            "dropped": self.tracer.dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Profiler(counters={len(self.as_dict())}, "
            f"spans={len(self.tracer.spans)}, events={len(self.tracer.events)})"
        )
