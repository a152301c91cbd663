"""Interprocedural privacy taint engine (``privacy.interproc-*`` rules).

The intraprocedural checker proves "no raw data reaches a sink *within
one function*"; this engine closes the cross-function blind spot the
paper's privacy argument actually depends on.  It computes a **summary**
for every indexed function — does it return raw training data?  do any
of its parameters flow to its return value or to a privacy sink? — and
drives those summaries to a fixpoint with a worklist over the reverse
call graph (:mod:`repro.analysis.callgraph`; see
:meth:`InterproceduralTaintChecker.solve`).  With summaries in hand, two
new leak shapes become visible:

* a sink payload that is only tainted *through a call* — e.g.
  ``network.send(node, r, collect(dataset))`` where ``collect`` returns
  ``dataset.X`` two hops down (rule ``privacy.interproc-leak``, reported
  at the sink with the full source→sink call path in the finding's
  ``trace``);
* a tainted argument handed to a function that forwards its parameter
  into a sink — e.g. ``ship(network, data.X)`` where ``ship`` does the
  ``send`` (also ``privacy.interproc-leak``, reported at the call site);
* the helper at the *origin* of a reported leak — the function whose
  ``return self.X`` / ``return dataset.X`` starts the chain — is
  additionally flagged with ``privacy.return-raw`` at the return
  statement, so the fix site is visible even when the sink lives in
  another file.

Findings the intraprocedural checker already reports are *not*
duplicated here: a site is only reported when plain single-function
taint deems it clean but summary-aware taint does not.  Sanitizer calls
(masking, sharing, encryption, secure aggregation) stop taint exactly as
in the intraprocedural analysis, so sanctioned flows stay silent.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.analysis.base import Checker, Project
from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.checkers.privacy import (
    DECLASSIFIER_CALLS,
    SANITIZER_CALLS,
    SOURCE_ATTRS,
    SOURCE_CALLS,
    SOURCE_KEYS,
    _call_name,
    _ScopeTaint,
    sink_calls,
)
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import ModuleSource

__all__ = ["InterproceduralTaintChecker", "Step", "Summary"]

#: Parameters beyond this index are not summarized (fan-out bound).
MAX_SUMMARIZED_PARAMS = 8

#: Depth bound for taint-origin explanation chains.
MAX_EXPLAIN_DEPTH = 6

#: Calls whose result is never raw data, whatever their callee returns.
_OPAQUE_CALLS = SANITIZER_CALLS | DECLASSIFIER_CALLS


@dataclass(frozen=True)
class Step:
    """One hop of a source→sink path.

    ``raw_return`` carries the display name of the function whose
    ``return`` statement originates the raw data (the
    ``privacy.return-raw`` anchor), ``None`` for intermediate hops.
    """

    path: str
    line: int
    desc: str
    raw_return: str | None = None

    def render(self) -> str:
        return f"{self.path}:{self.line} {self.desc}"


@dataclass
class Summary:
    """Taint summary of one function, iterated to a fixpoint.

    Attributes
    ----------
    returns_tainted:
        The function returns raw training data unconditionally (it reads
        a source itself, or calls something that does).
    return_origin:
        Path from the function's ``return`` down to the raw source.
    param_returns:
        Indices of parameters whose taint reaches the return value.
    param_sinks:
        Parameter index → path from the function's body into the sink
        that parameter reaches (directly or through further calls).
    """

    returns_tainted: bool = False
    return_origin: tuple[Step, ...] = ()
    param_returns: frozenset[int] = frozenset()
    param_sinks: dict[int, tuple[Step, ...]] = field(default_factory=dict)

    def state_key(self) -> tuple[bool, frozenset[int], frozenset[int]]:
        """Convergence key: origins are derived data, not fixpoint state."""
        return (self.returns_tainted, self.param_returns, frozenset(self.param_sinks))

    def joined(self, previous: "Summary") -> "Summary":
        """This summary, keeping every fact ``previous`` already held.

        Origins and sink paths come from the newer summary where it has
        them.
        """
        return Summary(
            returns_tainted=self.returns_tainted or previous.returns_tainted,
            return_origin=self.return_origin or previous.return_origin,
            param_returns=self.param_returns | previous.param_returns,
            param_sinks={**previous.param_sinks, **self.param_sinks},
        )


class _SummaryTaint(_ScopeTaint):
    """Scope taint that additionally consults function summaries."""

    def __init__(
        self,
        engine: "InterproceduralTaintChecker",
        info: FunctionInfo,
        seeds: frozenset[str] = frozenset(),
    ) -> None:
        super().__init__(info.statements)
        self.engine = engine
        self.info = info
        self.tainted |= set(seeds)

    def expr_tainted(self, node: ast.AST, extra: frozenset[str] = frozenset()) -> bool:
        # A call is tainted when a callee returns raw data; otherwise the
        # intraprocedural rules decide (sanitizers and declassifiers stop
        # taint, a tainted argument or receiver taints the call, which
        # covers every parameter in ``param_returns``).
        if (
            isinstance(node, ast.Call)
            and _call_name(node) not in _OPAQUE_CALLS
            and any(
                summary.returns_tainted
                for _, summary in self.engine.call_summaries(node, self.info)
            )
        ):
            return True
        return super().expr_tainted(node, extra)


def _map_args(info: FunctionInfo, call: ast.Call) -> Iterator[tuple[int, ast.AST]]:
    """Pair ``call``'s arguments with ``info``'s parameter indices."""
    offset = 0
    if info.cls is not None and info.params and info.params[0] in ("self", "cls"):
        offset = 1
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        index = position + offset
        if index < len(info.params):
            yield index, arg
    by_name = {param: i for i, param in enumerate(info.params)}
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in by_name:
            yield by_name[keyword.arg], keyword.value


def _direct_source(expr: ast.AST) -> ast.AST | None:
    """The first raw-data source expression syntactically inside ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr in SOURCE_ATTRS:
            return node
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value in SOURCE_KEYS
        ):
            return node
        if isinstance(node, ast.Call) and _call_name(node) in SOURCE_CALLS:
            return node
    return None


def _unparse(node: ast.AST, limit: int = 60) -> str:
    text = ast.unparse(node)
    return text if len(text) <= limit else text[: limit - 1] + "…"


@dataclass
class _SinkHit:
    """One taint arrival found by the sink scan."""

    node: ast.Call
    kind: str  # "network" | "storage" | "serialize" | "forward"
    label: str  # e.g. "network.send()" / "pickle.dumps()" / callee display
    payload: ast.AST
    chain: tuple[Step, ...]  # continuation inside a forwarded-to callee


class InterproceduralTaintChecker(Checker):
    """Whole-program taint propagation through the call graph."""

    name = "interproc"
    rules = (
        Rule(
            id="privacy.interproc-leak",
            severity=Severity.ERROR,
            summary="raw training data reaches a privacy sink through a call chain",
            hint="sanitize at the boundary: mask, share, or encrypt the value "
            "before it is returned to (or forwarded by) the sending function; "
            "the finding's trace lists every hop of the leak",
        ),
        Rule(
            id="privacy.return-raw",
            severity=Severity.ERROR,
            summary="function returns raw training data that a caller leaks",
            hint="return a sanctioned aggregate/masked value instead, or keep "
            "the raw accessor private to its node (callers currently route "
            "the return value into a privacy sink)",
        ),
    )

    def __init__(self) -> None:
        self.graph: CallGraph = CallGraph()
        self.summaries: dict[FunctionInfo, Summary] = {}
        self._resolution: dict[int, list[FunctionInfo]] = {}

    # -- call resolution (memoized per run) -----------------------------

    def _resolve(self, call: ast.Call, caller: FunctionInfo) -> list[FunctionInfo]:
        # A call node lies in exactly one indexed function, its caller.
        candidates = self._resolution.get(id(call))
        if candidates is None:
            candidates = self.graph.resolve(call, caller)
            self._resolution[id(call)] = candidates
        return candidates

    def call_summaries(
        self, call: ast.Call, caller: FunctionInfo
    ) -> list[tuple[FunctionInfo, Summary]]:
        return [(cand, self.summaries[cand]) for cand in self._resolve(call, caller)]

    # -- checker entry point --------------------------------------------

    def check(self, project: Project) -> Iterator[Finding]:
        self.graph = CallGraph.build(project)
        self._resolution = {}
        self.solve()

        modules_by_path = {m.relpath: m for m in project.modules}
        raw_return_leaves: dict[tuple[str, int], tuple[str, str, int]] = {}
        for info in self.graph.functions:
            yield from self._report_function(info, modules_by_path, raw_return_leaves)

        for (path, line), (display, sink_path, sink_line) in sorted(
            raw_return_leaves.items()
        ):
            module = modules_by_path.get(path)
            if module is None:
                continue
            yield self.finding(
                "privacy.return-raw",
                module,
                line,
                f"{display}() returns raw training data that reaches a privacy "
                f"sink (leak reported at {sink_path}:{sink_line})",
            )

    # -- summaries ------------------------------------------------------

    def solve(self) -> None:
        """Drive every function's summary to its fixpoint.

        A worklist over the reverse call graph: every function starts
        queued, and a function is recomputed only when the summary of
        something it calls changed.  Each recomputation is joined into
        the previous summary (:meth:`Summary.joined`), so a summary only
        ever gains facts, and a function's convergence key can change
        at most ``1 + 2 * MAX_SUMMARIZED_PARAMS`` times: once when it
        starts returning raw data, and once per parameter when that
        parameter starts reaching the return value or a sink.  Only such
        a change requeues callers, so the loop ends after finitely many
        recomputations, with no round cap.
        """
        functions = self.graph.functions
        self.summaries = {info: Summary() for info in functions}
        callers: dict[FunctionInfo, list[FunctionInfo]] = {info: [] for info in functions}
        for info in functions:
            for node in info.statements:
                if isinstance(node, ast.Call):
                    for callee in self._resolve(node, info):
                        callers[callee].append(info)

        queue = deque(functions)
        queued = set(functions)
        while queue:
            info = queue.popleft()
            queued.discard(info)
            previous = self.summaries[info]
            updated = self._compute_summary(info).joined(previous)
            self.summaries[info] = updated
            if updated.state_key() == previous.state_key():
                continue
            for caller in callers[info]:
                if caller not in queued:
                    queued.add(caller)
                    queue.append(caller)

    def _compute_summary(self, info: FunctionInfo) -> Summary:
        base = _SummaryTaint(self, info)
        base.run_fixpoint()
        returns = [
            node
            for node in info.statements
            if isinstance(node, ast.Return) and node.value is not None
        ]
        returns.sort(key=lambda node: node.lineno)

        returns_tainted = any(base.expr_tainted(ret.value) for ret in returns)
        return_origin: tuple[Step, ...] = ()
        if returns_tainted:
            return_origin = self._return_origin(info, base, returns)

        base_hits = {hit.node for hit in self._sink_hits(info, base)}

        param_returns: set[int] = set()
        param_sinks: dict[int, tuple[Step, ...]] = {}
        for index, param in enumerate(info.params[:MAX_SUMMARIZED_PARAMS]):
            if index == 0 and param in ("self", "cls"):
                continue
            # Seeding adds taint, so the seeded fixpoint starts from the
            # base one instead of recomputing it.
            seeded = _SummaryTaint(self, info, seeds=frozenset({param, *base.tainted}))
            seeded.run_fixpoint()
            if not returns_tainted and any(
                seeded.expr_tainted(ret.value) for ret in returns
            ):
                param_returns.add(index)
            for hit in self._sink_hits(info, seeded):
                if hit.node in base_hits or index in param_sinks:
                    continue
                head = Step(
                    info.relpath,
                    hit.node.lineno,
                    f"{info.display}() forwards parameter {param!r} into {hit.label}",
                )
                param_sinks[index] = (head, *hit.chain)
        return Summary(
            returns_tainted=returns_tainted,
            return_origin=return_origin,
            param_returns=frozenset(param_returns),
            param_sinks=param_sinks,
        )

    def _return_origin(
        self, info: FunctionInfo, state: _SummaryTaint, returns: list[ast.Return]
    ) -> tuple[Step, ...]:
        for ret in returns:
            assert ret.value is not None
            if not state.expr_tainted(ret.value):
                continue
            source = _direct_source(ret.value)
            if source is not None:
                return (
                    Step(
                        info.relpath,
                        ret.lineno,
                        f"{info.display}() returns raw {_unparse(source)}",
                        raw_return=info.display,
                    ),
                )
            for node in ast.walk(ret.value):
                if not isinstance(node, ast.Call):
                    continue
                for cand, summary in self.call_summaries(node, info):
                    if summary.returns_tainted:
                        return (
                            Step(
                                info.relpath,
                                ret.lineno,
                                f"{info.display}() returns {cand.display}()",
                            ),
                            *summary.return_origin,
                        )
            steps = self._explain(info, state, ret.value, set(), MAX_EXPLAIN_DEPTH)
            return (
                Step(
                    info.relpath,
                    ret.lineno,
                    f"{info.display}() returns a tainted value",
                ),
                *steps,
            )
        return ()

    # -- sink scanning --------------------------------------------------

    def _sink_hits(
        self, info: FunctionInfo, state: _SummaryTaint
    ) -> Iterator[_SinkHit]:
        for node, kind, name, payload in sink_calls(info.statements):
            if kind:
                if payload is not None and state.expr_tainted(payload):
                    label = {
                        "network": f"network.{name}()",
                        "storage": "hdfs.put()",
                        "serialize": f"{name}()",
                    }[kind]
                    yield _SinkHit(node, kind, label, payload, ())
                continue
            if name in SANITIZER_CALLS:
                # Sanctioned protocol entry points are the privacy
                # boundary; what they do internally is analyzed at
                # their own definition, not at every call site.
                continue
            for cand, summary in self.call_summaries(node, info):
                if not summary.param_sinks:
                    continue
                for idx, arg in _map_args(cand, node):
                    if idx in summary.param_sinks and state.expr_tainted(arg):
                        yield _SinkHit(
                            node,
                            "forward",
                            f"{cand.display}()",
                            arg,
                            summary.param_sinks[idx],
                        )
                        break

    # -- reporting ------------------------------------------------------

    def _report_function(
        self,
        info: FunctionInfo,
        modules_by_path: dict[str, ModuleSource],
        raw_return_leaves: dict[tuple[str, int], tuple[str, str, int]],
    ) -> Iterator[Finding]:
        inter = _SummaryTaint(self, info)
        inter.run_fixpoint()
        intra = _ScopeTaint(info.statements)
        intra.run_fixpoint()

        intra_lines = {
            node.lineno
            for node, _, _, payload in sink_calls(info.statements)
            if payload is not None and intra.expr_tainted(payload)
        }
        seen: set[tuple[int, str]] = set()
        for hit in self._sink_hits(info, inter):
            if hit.node.lineno in intra_lines:
                continue  # the intraprocedural checker owns this site
            key = (hit.node.lineno, hit.label)
            if key in seen:
                continue
            seen.add(key)
            noun = "argument" if hit.kind == "forward" else "value"
            head = Step(
                info.relpath,
                hit.node.lineno,
                f"{info.display}() passes a tainted {noun} to {hit.label}",
            )
            origin = self._explain(info, inter, hit.payload, set(), MAX_EXPLAIN_DEPTH)
            steps = (head, *hit.chain, *origin)
            for step in steps:
                if step.raw_return is not None:
                    raw_return_leaves.setdefault(
                        (step.path, step.line),
                        (step.raw_return, info.relpath, hit.node.lineno),
                    )
            message = (
                f"raw training data reaches {hit.label} through a "
                f"{len(steps) - 1}-hop call chain (see trace)"
            )
            module = modules_by_path[info.relpath]
            finding = self.finding(
                "privacy.interproc-leak", module, hit.node.lineno, message
            )
            yield replace(finding, trace=tuple(step.render() for step in steps))

    # -- taint-origin explanation ---------------------------------------

    def _explain(
        self,
        info: FunctionInfo,
        state: _SummaryTaint,
        expr: ast.AST,
        visited: set[str],
        depth: int,
    ) -> tuple[Step, ...]:
        """Best-effort chain from ``expr`` back to the raw source."""
        if depth <= 0:
            return ()
        source = _direct_source(expr)
        if source is not None:
            return (
                Step(
                    info.relpath,
                    getattr(source, "lineno", getattr(expr, "lineno", 1)),
                    f"raw source {_unparse(source)}",
                ),
            )
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) in SANITIZER_CALLS:
                continue
            for cand, summary in self.call_summaries(node, info):
                if summary.returns_tainted:
                    return (
                        Step(
                            info.relpath,
                            node.lineno,
                            f"call to {cand.display}()",
                        ),
                        *summary.return_origin,
                    )
                for idx, arg in _map_args(cand, node):
                    if idx in summary.param_returns and state.expr_tainted(arg):
                        return (
                            Step(
                                info.relpath,
                                node.lineno,
                                f"call to {cand.display}() with tainted argument",
                            ),
                            *self._explain(info, state, arg, visited, depth - 1),
                        )
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in state.tainted
                and node.id not in visited
            ):
                binding = self._binding_of(info, state, node.id)
                if binding is None:
                    continue
                assign_line, value = binding
                return (
                    Step(
                        info.relpath,
                        assign_line,
                        f"{node.id} = {_unparse(value)}",
                    ),
                    *self._explain(
                        info, state, value, visited | {node.id}, depth - 1
                    ),
                )
        return ()

    def _binding_of(
        self, info: FunctionInfo, state: _SummaryTaint, name: str
    ) -> tuple[int, ast.AST] | None:
        """Earliest statement binding ``name`` to a tainted value."""
        candidates: list[tuple[int, ast.AST]] = []
        for node in info.statements:
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.NamedExpr):
                targets, value = [node.target], node.value
            if value is None or not state.expr_tainted(value):
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        candidates.append((node.lineno, value))
        return min(candidates, key=lambda item: item[0]) if candidates else None
