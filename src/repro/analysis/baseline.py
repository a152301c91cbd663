"""Finding baselines: adopt the suite incrementally (``--baseline``).

A baseline is a snapshot of the findings a tree *currently* produces.
Diff mode (``repro lint --baseline lint-baseline.json``) suppresses any
finding already present in the snapshot and reports only what is *new*
— the standard ratchet for introducing a strict linter into a codebase
(or a strict new rule into this one) without first fixing every
historical occurrence.

Findings are matched by **fingerprint** — rule id, file path, and the
*stripped source line* — deliberately excluding the line number, so an
edit elsewhere in the file (which shifts line numbers but not the
offending code) does not resurrect baselined findings.  Identical lines
are disambiguated by count: a baseline recording two occurrences of a
fingerprint suppresses at most two, so adding a third copy of a known-bad
line is still reported.

Format on disk is a small JSON document (sorted keys, so baselines diff
cleanly in review)::

    {"version": 1, "fingerprints": {"<rule>::<path>::<line>": 2, ...}}

Write one with ``repro lint --write-baseline lint-baseline.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding

__all__ = ["Baseline", "BaselineError", "fingerprint"]

BASELINE_VERSION = 1


class BaselineError(ValueError):
    """Raised for malformed baseline files."""


def fingerprint(finding: Finding) -> str:
    """Line-number-independent identity of a finding."""
    return f"{finding.rule}::{finding.path}::{finding.source.strip()}"


@dataclass
class Baseline:
    """A set of known findings, matched by fingerprint with multiplicity."""

    counts: dict[str, int] = field(default_factory=dict)
    #: Remaining unconsumed occurrences (reset per run via :meth:`fresh`).
    _remaining: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._remaining = dict(self.counts)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        """Snapshot ``findings`` (normally a report's active findings)."""
        counts: dict[str, int] = {}
        for finding in findings:
            key = fingerprint(finding)
            counts[key] = counts.get(key, 0) + 1
        return cls(counts=counts)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file, validating shape and version."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise BaselineError(f"{path}: cannot read baseline: {exc}") from exc
        if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
            raise BaselineError(
                f"{path}: expected a baseline document with version "
                f"{BASELINE_VERSION}"
            )
        raw = data.get("fingerprints", {})
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v > 0
            for k, v in raw.items()
        ):
            raise BaselineError(
                f"{path}: 'fingerprints' must map strings to positive counts"
            )
        return cls(counts=dict(raw))

    def write(self, path: Path) -> None:
        """Serialize to ``path`` (sorted, so baselines diff cleanly)."""
        document = {
            "version": BASELINE_VERSION,
            "fingerprints": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    def fresh(self) -> "Baseline":
        """A copy with the per-run consumption state reset."""
        return Baseline(counts=dict(self.counts))

    def consume(self, finding: Finding) -> bool:
        """Whether ``finding`` is covered (uses up one occurrence)."""
        key = fingerprint(finding)
        remaining = self._remaining.get(key, 0)
        if remaining <= 0:
            return False
        self._remaining[key] = remaining - 1
        return True
