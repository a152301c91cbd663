"""Static-analysis suite for the repro codebase (``repro lint``).

The privacy guarantees of the paper's protocols are easy to void with a
one-line change — send a raw block instead of a masked one, reuse a
pairwise pad, draw a mask from the stdlib RNG — and none of those
mistakes fail a unit test.  This package provides an AST-based lint
framework with five shipped checkers:

* :mod:`~repro.analysis.checkers.privacy` — intraprocedural taint-flow
  from raw data (``.X``/``.y``, dataset loaders, HDFS payloads) into
  network sends, storage, and serialization, unless routed through a
  sanctioned crypto sink;
* :mod:`~repro.analysis.interproc` — the interprocedural extension:
  function summaries propagated over the project call graph
  (:mod:`~repro.analysis.callgraph`), so leaks that cross function
  boundaries are reported with their full source→sink call path;
* :mod:`~repro.analysis.checkers.crypto` — randomness and arithmetic
  misuse inside ``repro/crypto`` and the DP baseline;
* :mod:`~repro.analysis.checkers.determinism` — wall clocks, unseeded
  RNGs, unordered iteration, salted ``hash()``;
* :mod:`~repro.analysis.checkers.docs` — counter names emitted by the
  code but missing from ``docs/OBSERVABILITY.md``.

Entry points: :func:`~repro.analysis.engine.run_lint` (programmatic)
and ``repro lint`` (CLI).  Suppression: ``# repro-lint: disable=RULE``
pragmas, the ``.repro-lint.toml`` allowlist, and
:mod:`~repro.analysis.baseline` snapshots (``--baseline``) — see
``docs/STATIC_ANALYSIS.md`` for the rule registry.  CI hook: SARIF
output (``--format sarif``).
"""

from repro.analysis.allowlist import Allowlist, AllowlistEntry, AllowlistError
from repro.analysis.base import Checker, ModuleChecker, Project
from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.engine import LintReport, all_rules, default_checkers, run_lint
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import ModuleSource

__all__ = [
    "Allowlist",
    "AllowlistEntry",
    "AllowlistError",
    "Baseline",
    "BaselineError",
    "Checker",
    "Finding",
    "LintReport",
    "ModuleChecker",
    "ModuleSource",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "default_checkers",
    "run_lint",
]
