"""Named counters for the simulated cluster.

Every subsystem (network, HDFS, crypto protocols, trainers) increments
counters in a shared :class:`MetricRegistry`.  The experiment harness
reads them to report the quantities the paper argues about qualitatively:
bytes of raw data moved (should be **zero** — data locality), consensus
traffic per iteration, number of cryptographic operations at the Reducer,
and so on.

Every counter name emitted anywhere in ``src/repro`` is cataloged in
``docs/OBSERVABILITY.md`` (enforced by
``tools/check_observability_docs.py``); for per-iteration attribution of
the same counters, see :class:`~repro.cluster.profiling.Profiler`.

Example
-------
>>> registry = MetricRegistry()
>>> registry.increment("network.bytes.mask", 128)
>>> registry.increment("network.bytes.mask", 64)
>>> registry.get("network.bytes.mask")
192.0
>>> registry.with_prefix("network.")
{'network.bytes.mask': 192.0}
>>> sorted(registry.items())
[('network.bytes.mask', 192)]
"""

from __future__ import annotations

from collections.abc import ItemsView

__all__ = ["MetricRegistry"]


class MetricRegistry:
    """A flat namespace of monotonically increasing counters.

    Counter names are dotted strings, e.g. ``"network.bytes.consensus"``:
    non-empty, whitespace-free, with non-empty dot-separated segments.
    Malformed names raise at the :meth:`increment` site instead of
    silently creating unreadable keys.  Reads of missing counters return
    0 so call sites never need guards.
    """

    def __init__(self) -> None:
        # A plain dict, not a ``Counter``: CPython specializes subscripts
        # of exact dicts only, so an increment on a ``Counter`` takes
        # about twice as long.
        self._counters: dict[str, float] = {}

    @staticmethod
    def _validate_name(name: str) -> str:
        """Reject non-string, empty, whitespace-bearing, or mis-dotted names."""
        if not isinstance(name, str):
            raise TypeError(f"counter names must be str, got {type(name).__name__}")
        if not name:
            raise ValueError("counter names must be non-empty")
        if any(ch.isspace() for ch in name):
            raise ValueError(f"counter names must not contain whitespace: {name!r}")
        if any(not segment for segment in name.split(".")):
            raise ValueError(
                f"counter names must be dotted with non-empty segments: {name!r}"
            )
        return name

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to counter ``name``.

        ``name`` must be a well-formed dotted string (see class
        docstring); ``amount`` must be non-negative (counters are
        monotonic).
        """
        counters = self._counters
        # Only valid names ever become keys, so a known name is one
        # lookup and no check; a new, non-str or unhashable name takes
        # the check, which raises the same errors for all of them.
        try:
            value = counters[name]
        except (KeyError, TypeError):
            self._validate_name(name)
            value = 0
        if amount < 0:
            raise ValueError(f"counters are monotonic; got negative amount {amount}")
        counters[name] = value + amount

    def items(self) -> ItemsView[str, float]:
        """Live ``(name, value)`` view of every counter, without a copy.

        The read path of :class:`~repro.cluster.tracing.TraceRecorder`,
        which diffs the registry at every iteration boundary and would
        otherwise copy it twice per round.  Unlike :meth:`get` and
        :meth:`as_dict`, which return floats, values keep the type they
        were incremented with (an ``int`` for whole-number increments).
        The view follows later increments, so copy it before holding on
        to it.
        """
        return self._counters.items()

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never incremented)."""
        return float(self._counters.get(name, 0.0))

    def with_prefix(self, prefix: str) -> dict[str, float]:
        """All counters whose name starts with ``prefix``.

        The empty prefix matches *every* counter — ``with_prefix("")``
        is equivalent to :meth:`as_dict` by design (str.startswith
        semantics), which callers use to snapshot whole namespaces
        generically.
        """
        return {k: float(v) for k, v in self._counters.items() if k.startswith(prefix)}

    def as_dict(self) -> dict[str, float]:
        """Snapshot of every counter."""
        return {k: float(v) for k, v in self._counters.items()}

    def reset(self) -> None:
        """Zero all counters (used between benchmark repetitions)."""
        self._counters.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricRegistry({dict(self._counters)!r})"
