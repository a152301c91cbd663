"""Persistent, content-addressed ledger of training/benchmark runs.

The in-memory observability stack (``Profiler`` = counters + trace)
evaporates at process exit; the ledger turns each run into a
schema-versioned JSON record under ``.repro-runs/`` so trajectories can
be compared *across* invocations — seed sweeps, config ablations,
before/after perf checks (``repro runs diff``).

A record joins the two per-iteration views the system already
produces — :class:`~repro.core.results.TrainingHistory` (``z`` change,
primal residual, accuracy) and
:meth:`~repro.cluster.tracing.TraceRecorder.iteration_costs`
(bytes/messages by wire kind, ``crypto.*`` op counts, wall/simulated
seconds) — plus the final counter totals, the health monitor's verdict,
the protocol auditor's per-round summaries, and environment metadata.

Run ids are content addresses: the SHA-256 of the canonical JSON
serialization (minus the id itself), truncated to 16 hex chars.  Two
byte-identical runs therefore map to one record; in practice wall-clock
durations differ per run, so re-running the same config yields distinct
ids whose *deterministic* fields diff to zero (what
:func:`diff_runs` checks — wall-derived fields are excluded from drift
on purpose).

Privacy: only aggregates reach disk.  The record carries counter
totals, per-iteration cost sums, and a dataset *fingerprint* (a hash,
see :func:`dataset_fingerprint`) — never feature rows, labels, or
payload bytes.  The ledger deliberately has no API for attaching raw
arrays.

No absolute timestamps are recorded anywhere (the repo's determinism
lint forbids ``time.time``/``datetime.now``); recency ordering in
``list_runs`` comes from file mtimes, which the filesystem provides for
free.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "RunDiff",
    "RunLedger",
    "RunRecord",
    "SCHEMA_VERSION",
    "dataset_fingerprint",
    "diff_runs",
]

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_DIR = ".repro-runs"

#: Per-iteration fields that are wall-clock-derived and therefore differ
#: between byte-identical runs; excluded from drift comparison.
_NONDETERMINISTIC_ITERATION_FIELDS = frozenset({"wall_s"})

#: Counters that accumulate wall seconds; excluded from drift comparison.
_NONDETERMINISTIC_COUNTERS = frozenset({"network.serialize_s"})


def dataset_fingerprint(X: np.ndarray, y: np.ndarray | None = None) -> str:
    """Short content hash identifying a dataset without revealing it.

    SHA-256 over shapes, dtypes, and raw bytes, truncated to 16 hex
    chars — enough to tell "same data?" across runs while disclosing
    nothing about feature values (preimage resistance); this is the
    only dataset-derived value the ledger ever persists.
    """
    digest = hashlib.sha256()
    X = np.ascontiguousarray(X)
    digest.update(repr((X.shape, str(X.dtype))).encode())
    digest.update(X.tobytes())
    if y is not None:
        y = np.ascontiguousarray(y)
        digest.update(repr((y.shape, str(y.dtype))).encode())
        digest.update(y.tobytes())
    return digest.hexdigest()[:16]


def _environment() -> dict[str, str]:
    """Version metadata for the record (no hostnames, no timestamps)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _sanitize(value: Any) -> Any:
    """Make a value strict-JSON-safe: non-finite floats become None."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return f if isfinite(f) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    if isinstance(value, str) or value is None:
        return value
    return str(value)


@dataclass
class RunRecord:
    """One run's persistent record (see the module docstring for layout).

    Attributes mirror the JSON schema: ``kind`` (``"train"``,
    ``"trace"``, or ``"bench"``), free-form ``label``, the ``config``
    dict, the ``seed``, the ``dataset`` fingerprint block, the joined
    per-``iterations`` rows, the ``setup`` cost row (pre-iteration
    traffic such as HDFS distribution and seed exchange), final
    ``counters``, optional ``health`` / ``audit`` summaries, and
    ``environment`` metadata.  ``run_id`` is assigned by
    :meth:`RunLedger.record`.
    """

    kind: str
    config: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    label: str = ""
    dataset: dict[str, Any] = field(default_factory=dict)
    iterations: list[dict[str, Any]] = field(default_factory=list)
    setup: dict[str, Any] | None = None
    counters: dict[str, float] = field(default_factory=dict)
    health: dict[str, Any] | None = None
    audit: dict[str, Any] | None = None
    environment: dict[str, str] = field(default_factory=_environment)
    schema_version: int = SCHEMA_VERSION
    run_id: str | None = None

    @classmethod
    def from_model(
        cls, model: Any, *, kind: str = "train", label: str = ""
    ) -> "RunRecord":
        """Build a record from a fitted ``PrivacyPreservingSVM``.

        Duck-typed on the fitted attributes (``history_``, ``profiler_``,
        ``health_monitor_``, ``audit_log_``, ``dataset_fingerprint_``)
        so :mod:`repro.obs` never imports :mod:`repro.core`.
        """
        history = model.history_
        profiler = model.profiler_
        cost_rows = {
            row["iteration"]: row for row in profiler.tracer.iteration_costs()
        }

        iterations: list[dict[str, Any]] = []
        for record in history.records:
            costs = cost_rows.get(record.iteration, {})
            iterations.append(
                {
                    "iteration": record.iteration,
                    "z_change_sq": record.z_change_sq,
                    "primal_residual": (
                        record.primal_residual if record.residual_available else None
                    ),
                    "residual_available": record.residual_available,
                    "accuracy": record.accuracy,
                    "bytes_by_kind": costs.get("bytes_by_kind", {}),
                    "messages_by_kind": costs.get("messages_by_kind", {}),
                    "total_bytes": costs.get("total_bytes", 0.0),
                    "total_messages": costs.get("total_messages", 0.0),
                    "crypto_ops": costs.get("crypto_ops", {}),
                    "wall_s": costs.get("wall_s", 0.0),
                    "sim_s": costs.get("sim_s", 0.0),
                }
            )
        setup = cost_rows.get(None)
        if setup is not None:
            setup = {k: v for k, v in setup.items() if k != "iteration"}

        health_monitor = getattr(model, "health_monitor_", None)
        audit_log = getattr(model, "audit_log_", None)
        seed = getattr(model, "seed", None)
        return cls(
            kind=kind,
            label=label,
            config=dict(getattr(model, "config_", None) or {}),
            seed=seed if isinstance(seed, int) else None,
            dataset=dict(getattr(model, "dataset_fingerprint_", None) or {}),
            iterations=iterations,
            setup=setup,
            counters=profiler.as_dict(),
            health=health_monitor.summary() if health_monitor is not None else None,
            audit=audit_log.summary() if audit_log is not None else None,
        )

    def as_dict(self) -> dict[str, Any]:
        """Strict-JSON-safe dict form (NaN/inf already sanitized)."""
        return _sanitize(
            {
                "schema_version": self.schema_version,
                "run_id": self.run_id,
                "kind": self.kind,
                "label": self.label,
                "config": self.config,
                "seed": self.seed,
                "dataset": self.dataset,
                "iterations": self.iterations,
                "setup": self.setup,
                "counters": self.counters,
                "health": self.health,
                "audit": self.audit,
                "environment": self.environment,
            }
        )


class RunLedger:
    """Directory of content-addressed run records.

    Parameters
    ----------
    root:
        Ledger directory (created on first write); defaults to
        ``.repro-runs`` in the working directory.
    """

    def __init__(self, root: str | Path = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)

    # -- writing --------------------------------------------------------

    def record(self, record: RunRecord) -> str:
        """Persist ``record``; assigns and returns its content-addressed id."""
        payload = record.as_dict()
        payload["run_id"] = None  # the id must not influence itself
        canonical = json.dumps(payload, sort_keys=True, allow_nan=False)
        run_id = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        record.run_id = run_id
        payload["run_id"] = run_id
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{run_id}.json"
        path.write_text(
            json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"
        )
        return run_id

    # -- reading --------------------------------------------------------

    def list_runs(self) -> list[dict[str, Any]]:
        """Summaries of every stored run, most recently written first."""
        if not self.root.is_dir():
            return []
        paths = sorted(
            self.root.glob("*.json"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        summaries = []
        for path in paths:
            data = json.loads(path.read_text())
            health = data.get("health") or {}
            audit = data.get("audit") or {}
            summaries.append(
                {
                    "run_id": data.get("run_id", path.stem),
                    "kind": data.get("kind", "?"),
                    "label": data.get("label", ""),
                    "seed": data.get("seed"),
                    "n_iterations": len(data.get("iterations", [])),
                    "verdict": health.get("verdict"),
                    "audit_ok": audit.get("ok"),
                    "total_bytes": data.get("counters", {}).get("network.bytes"),
                }
            )
        return summaries

    def load(self, run_id: str) -> dict[str, Any]:
        """Load one record by id or unambiguous id prefix."""
        return json.loads(self._resolve(run_id).read_text())

    def _resolve(self, run_id: str) -> Path:
        exact = self.root / f"{run_id}.json"
        if exact.is_file():
            return exact
        matches = sorted(self.root.glob(f"{run_id}*.json")) if self.root.is_dir() else []
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.root}")
        raise KeyError(
            f"run id prefix {run_id!r} is ambiguous: "
            + ", ".join(p.stem for p in matches)
        )


@dataclass
class RunDiff:
    """Structured comparison of two run records (see :func:`diff_runs`)."""

    run_a: str
    run_b: str
    iteration_deltas: list[dict[str, Any]]
    counter_drift: dict[str, tuple[float | None, float | None]]
    config_drift: dict[str, tuple[Any, Any]]

    @property
    def identical(self) -> bool:
        """True when no deterministic metric differs between the runs."""
        return (
            not self.config_drift
            and not self.counter_drift
            and all(
                not row["differs"] for row in self.iteration_deltas
            )
        )


def _num(value: Any) -> float | None:
    return float(value) if isinstance(value, (int, float)) else None


def _delta(a: Any, b: Any) -> float | None:
    fa, fb = _num(a), _num(b)
    if fa is None or fb is None:
        return None
    return fb - fa


def diff_runs(a: dict[str, Any], b: dict[str, Any]) -> RunDiff:
    """Compare two loaded run records metric-by-metric.

    Wall-clock-derived fields (``wall_s`` per iteration, the
    ``network.serialize_s`` counter) are excluded, so two runs of the
    same config and seed diff to :attr:`RunDiff.identical` — any
    surviving difference is real nondeterminism or a real change.
    """
    config_drift: dict[str, tuple[Any, Any]] = {}
    conf_a, conf_b = a.get("config", {}), b.get("config", {})
    for key in sorted(set(conf_a) | set(conf_b)):
        if conf_a.get(key) != conf_b.get(key):
            config_drift[key] = (conf_a.get(key), conf_b.get(key))
    if a.get("seed") != b.get("seed"):
        config_drift["seed"] = (a.get("seed"), b.get("seed"))

    counter_drift: dict[str, tuple[float | None, float | None]] = {}
    counters_a, counters_b = a.get("counters", {}), b.get("counters", {})
    for name in sorted(set(counters_a) | set(counters_b)):
        if name in _NONDETERMINISTIC_COUNTERS:
            continue
        va, vb = counters_a.get(name), counters_b.get(name)
        if va != vb:
            counter_drift[name] = (va, vb)

    iters_a = a.get("iterations", [])
    iters_b = b.get("iterations", [])
    deltas: list[dict[str, Any]] = []
    for i in range(max(len(iters_a), len(iters_b))):
        row_a = iters_a[i] if i < len(iters_a) else {}
        row_b = iters_b[i] if i < len(iters_b) else {}
        row = {
            "iteration": i,
            "in_both": bool(row_a) and bool(row_b),
            "z_change_sq": _delta(row_a.get("z_change_sq"), row_b.get("z_change_sq")),
            "primal_residual": _delta(
                row_a.get("primal_residual"), row_b.get("primal_residual")
            ),
            "accuracy": _delta(row_a.get("accuracy"), row_b.get("accuracy")),
            "total_bytes": _delta(row_a.get("total_bytes"), row_b.get("total_bytes")),
            "total_messages": _delta(
                row_a.get("total_messages"), row_b.get("total_messages")
            ),
        }
        comparable = {
            k: row_a.get(k)
            for k in row_a
            if k not in _NONDETERMINISTIC_ITERATION_FIELDS
        }
        comparable_b = {
            k: row_b.get(k)
            for k in row_b
            if k not in _NONDETERMINISTIC_ITERATION_FIELDS
        }
        row["differs"] = comparable != comparable_b
        deltas.append(row)

    return RunDiff(
        run_a=str(a.get("run_id")),
        run_b=str(b.get("run_id")),
        iteration_deltas=deltas,
        counter_drift=counter_drift,
        config_drift=config_drift,
    )
