"""Simulation-determinism checker.

The whole experiment harness rests on runs being exactly reproducible
from a seed: the simulated cluster has its *own* clock (advanced by the
latency model), every RNG stream is derived from the experiment seed
via ``repro.utils.rng``, and iteration orders must not depend on
process-specific state.  This checker flags the ways that property is
typically lost:

* wall-clock reads (``time.time``, ``datetime.now``) leaking into
  simulated-time logic — ``time.perf_counter`` is allowed, it is the
  sanctioned *profiling* clock and never feeds simulated state;
* RNG streams that bypass ``repro.utils.rng`` (unseeded
  ``np.random.default_rng()``, legacy ``np.random.rand`` & co., the
  stdlib ``random`` module);
* iteration over unordered collections (set literals, ``set()`` calls)
  and unsorted filesystem walks, whose order varies run to run;
* ``hash()`` of strings, which is salted per process (PYTHONHASHSEED)
  and therefore changes partition assignments between runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ModuleChecker
from repro.analysis.checkers.crypto import is_crypto_scope
from repro.analysis.checkers.privacy import _call_name, _dotted_name
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import ModuleSource

__all__ = ["DeterminismChecker"]

#: Wall-clock calls (dotted suffixes) that must not appear in src/repro.
WALL_CLOCK_CALLS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
     "datetime.today", "date.today"}
)

#: Legacy/module-level numpy RNG entry points (implicit global state).
LEGACY_NP_RANDOM = frozenset(
    {"rand", "randn", "randint", "random", "random_sample", "choice",
     "shuffle", "permutation", "normal", "uniform", "seed"}
)

#: Filesystem enumeration calls whose order is platform-dependent.
FS_WALK_CALLS = frozenset({"glob", "rglob", "iterdir", "listdir", "scandir"})

#: Call wrappers that impose a deterministic order on their argument.
ORDERING_WRAPPERS = frozenset({"sorted", "min", "max", "len", "sum"})


def _is_rng_exempt(module: ModuleSource) -> bool:
    """utils/rng.py is the sanctioned seed-coercion point."""
    return module.relpath.endswith("utils/rng.py") or module.relpath.endswith(
        "/rng.py"
    )


class DeterminismChecker(ModuleChecker):
    """Flags nondeterminism that would break seeded reproducibility."""

    name = "determinism"
    rules = (
        Rule(
            id="determinism.wall-clock",
            severity=Severity.ERROR,
            summary="wall-clock read (time.time / datetime.now) in simulated code",
            hint="simulated time comes from the Network's latency model; for "
            "profiling durations use time.perf_counter",
        ),
        Rule(
            id="determinism.unseeded-rng",
            severity=Severity.ERROR,
            summary="RNG stream not derived from the experiment seed",
            hint="accept a seed argument and coerce it with "
            "repro.utils.rng.as_rng / spawn_rngs",
        ),
        Rule(
            id="determinism.stdlib-random",
            severity=Severity.ERROR,
            summary="stdlib random module used (global, platform-entangled state)",
            hint="use a numpy Generator from repro.utils.rng instead",
        ),
        Rule(
            id="determinism.set-iteration",
            severity=Severity.WARNING,
            summary="iteration over an unordered set",
            hint="wrap the set in sorted(...) so per-node work happens in a "
            "fixed order",
        ),
        Rule(
            id="determinism.unsorted-walk",
            severity=Severity.WARNING,
            summary="filesystem enumeration without sorted(...)",
            hint="directory order is platform-dependent; wrap the walk in "
            "sorted(...)",
        ),
        Rule(
            id="determinism.salted-hash",
            severity=Severity.ERROR,
            summary="builtin hash() used for placement/ordering",
            hint="str hashes are salted per process (PYTHONHASHSEED); use a "
            "stable digest such as zlib.crc32",
        ),
    )

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        rng_exempt = _is_rng_exempt(module)
        crypto = is_crypto_scope(module)
        # hash() inside a __hash__ method is the idiomatic delegation and
        # only ever feeds process-local dict lookups, never placement.
        in_dunder_hash: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, rng_exempt, allow_hash=id(node) in in_dunder_hash
                )
            elif isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                # The walk is breadth-first, so it reaches the method
                # before any call inside it.
                in_dunder_hash.update(map(id, ast.walk(node)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not crypto:
                # In crypto scope the crypto checker owns this pattern.
                yield from self._check_random_import(module, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for comp in node.generators:
                    yield from self._check_iteration(module, comp.iter)

    # -- calls -----------------------------------------------------------

    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        rng_exempt: bool,
        *,
        allow_hash: bool = False,
    ) -> Iterator[Finding]:
        dotted = _dotted_name(node.func) or ""
        name = _call_name(node)

        for clock in sorted(WALL_CLOCK_CALLS):
            if dotted == clock or dotted.endswith("." + clock):
                yield self.finding(
                    "determinism.wall-clock",
                    module,
                    node.lineno,
                    f"{dotted}() reads the wall clock",
                )
                return

        if not rng_exempt:
            if name in ("default_rng", "RandomState"):
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded:
                    yield self.finding(
                        "determinism.unseeded-rng",
                        module,
                        node.lineno,
                        f"{name}() constructed without a seed",
                    )
            elif name in LEGACY_NP_RANDOM and (
                dotted.startswith("np.random.") or dotted.startswith("numpy.random.")
            ):
                yield self.finding(
                    "determinism.unseeded-rng",
                    module,
                    node.lineno,
                    f"{dotted}() uses numpy's implicit global RNG",
                )

        if name == "hash" and isinstance(node.func, ast.Name) and not allow_hash:
            yield self.finding(
                "determinism.salted-hash",
                module,
                node.lineno,
                "builtin hash() output varies per process",
            )

        if dotted.startswith("random.") and not is_crypto_scope(module):
            yield self.finding(
                "determinism.stdlib-random",
                module,
                node.lineno,
                f"{dotted}() draws from the stdlib global RNG",
            )

    def _check_random_import(
        self, module: ModuleSource, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                yield self.finding(
                    "determinism.stdlib-random",
                    module,
                    node.lineno,
                    "stdlib random imported",
                )
        elif node.module == "random":
            yield self.finding(
                "determinism.stdlib-random",
                module,
                node.lineno,
                "stdlib random imported",
            )

    # -- iteration order --------------------------------------------------

    def _check_iteration(self, module: ModuleSource, iterable: ast.AST) -> Iterator[Finding]:
        # Peel enumerate()/zip() — their argument order is what matters.
        while isinstance(iterable, ast.Call) and _call_name(iterable) in (
            "enumerate",
            "zip",
        ):
            if not iterable.args:
                return
            iterable = iterable.args[0]

        if isinstance(iterable, (ast.Set, ast.SetComp)):
            yield self.finding(
                "determinism.set-iteration",
                module,
                iterable.lineno,
                "iterating a set literal; order is undefined",
            )
            return
        if not isinstance(iterable, ast.Call):
            return
        name = _call_name(iterable)
        if name in ORDERING_WRAPPERS:
            return
        if name == "set" or name in ("frozenset",):
            yield self.finding(
                "determinism.set-iteration",
                module,
                iterable.lineno,
                f"iterating {name}(...); order is undefined",
            )
        elif name in FS_WALK_CALLS:
            yield self.finding(
                "determinism.unsorted-walk",
                module,
                iterable.lineno,
                f"iterating {name}(...) without sorted(...)",
            )
