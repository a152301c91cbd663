"""Privacy taint-flow checker.

The paper's structural guarantee is that raw local data ``X_m, y_m``
never leaves a learner's node — only masked sums, shares, ciphertexts,
or sanctioned aggregates ever cross the simulated network.  This checker
enforces that *statically* with a conservative, intraprocedural taint
analysis:

* **sources** — expressions that denote raw training data: ``.X`` /
  ``.y`` attributes (Dataset / partition payloads), ``["X"]`` / ``["y"]``
  subscripts, ``.payload`` of HDFS blocks/messages, and calls to the
  raw-data loaders (``load_csv``, ``read_block``, ``Dataset(...)``);
* **propagation** — assignments, tuple unpacking, loop targets,
  arithmetic, container literals/comprehensions, mutation calls
  (``x.append(tainted)`` taints ``x``), and calls (a call with a
  tainted argument or receiver returns tainted data) — iterated to a
  fixpoint per scope;
* **sanitizers** — the sanctioned privacy mechanisms stop taint:
  fixed-point masking (``encode`` / modular ``add``/``subtract``),
  secret sharing (``shamir_share``), Paillier
  (``encrypt*``), and the secure aggregation protocols themselves
  (``sum_vectors``, ``aggregate``), whose outputs are sums/aggregates
  by construction;
* **sinks** — ``Network.send`` / ``Network.broadcast`` payloads,
  ``SimulatedHdfs.put`` without ``private=True``, and direct
  serialization (``pickle.dumps`` & co.) of tainted values.

The analysis is deliberately conservative (it flags flows it cannot
prove safe); audited false positives are silenced with a pragma next to
the code or an allowlist entry with a written reason — making the
privacy argument auditable file-by-file.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ModuleChecker
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import _SCOPE_NODES, ModuleSource

__all__ = ["PrivacyTaintChecker"]

#: Attributes whose access denotes raw training data.
SOURCE_ATTRS = frozenset({"X", "y", "payload"})

#: Subscript string keys denoting raw training data (HDFS partition dicts).
SOURCE_KEYS = frozenset({"X", "y"})

#: Call targets returning raw training data.
SOURCE_CALLS = frozenset({"load_csv", "read_block", "Dataset"})

#: Attribute accesses that *declassify*: metadata, never the data itself.
DECLASSIFIED_ATTRS = frozenset(
    {"shape", "ndim", "size", "dtype", "n_samples", "n_features", "name",
     "size_bytes", "block_id", "class_balance"}
)

#: Calls that transform private data into a sanctioned-to-transmit form:
#: fixed-point masking, secret sharing, Paillier encryption, and the
#: secure aggregation protocols (whose outputs are sums by construction).
SANITIZER_CALLS = frozenset(
    {"encode", "encode_array", "add", "subtract", "sum_arrays",
     "random_vector", "random_vector_array", "zeros_array",
     "shamir_share",
     "encrypt", "encrypt_raw", "encrypt_vector",
     "sum_vectors", "aggregate"}
)

#: Method names that mutate their receiver in place.
MUTATOR_CALLS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "push"}
)

#: Calls that *declassify*: they return metadata/control values (sizes,
#: type tests), never the data itself — the call-level analogue of
#: :data:`DECLASSIFIED_ATTRS`.
DECLASSIFIER_CALLS = frozenset({"len", "range", "isinstance", "issubclass"})

#: Serialization entry points treated as sinks (``module.function``).
SERIALIZERS = frozenset(
    {"pickle.dumps", "pickle.dump", "json.dumps", "json.dump",
     "marshal.dumps", "np.save", "np.savez", "numpy.save", "numpy.savez"}
)

#: Statements whose effect can taint a name: all the fixpoint visits.
_EFFECT_NODES = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr, ast.For,
    ast.AsyncFor, ast.With, ast.AsyncWith, ast.Expr,
)


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(call: ast.Call) -> str:
    """Trailing identifier of the call target (``x.y.send`` -> ``send``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _ScopeTaint:
    """Fixpoint taint state for one scope (module, class body, function).

    ``statements`` is the scope's :meth:`ModuleSource.statements` list,
    shared by every fixpoint and sink scan over the scope.
    """

    def __init__(self, statements: list[ast.AST]) -> None:
        self.statements = statements
        self.tainted: set[str] = set()

    # -- expression taint ----------------------------------------------

    def expr_tainted(self, node: ast.AST, extra: frozenset[str] = frozenset()) -> bool:
        """Whether evaluating ``node`` can yield raw training data."""
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in SANITIZER_CALLS:
                return False  # sanctioned transform: output is safe
            if name in DECLASSIFIER_CALLS:
                return False  # metadata, never the data itself
            if name in SOURCE_CALLS:
                return True
            # A call is tainted when its receiver or any argument is.
            parts: list[ast.AST] = list(node.args) + [kw.value for kw in node.keywords]
            if isinstance(node.func, ast.Attribute):
                parts.append(node.func.value)
            return any(self.expr_tainted(part, extra) for part in parts)
        if isinstance(node, ast.Attribute):
            if node.attr in DECLASSIFIED_ATTRS:
                return False
            dotted = _dotted_name(node)
            if dotted is not None and (dotted in self.tainted or dotted in extra):
                return True
            if node.attr in SOURCE_ATTRS:
                return True
            return self.expr_tainted(node.value, extra)
        if isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Constant) and node.slice.value in SOURCE_KEYS:
                return True
            return self.expr_tainted(node.value, extra) or self.expr_tainted(
                node.slice, extra
            )
        if isinstance(node, ast.Name):
            return node.id in self.tainted or node.id in extra
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension_tainted(node, extra)
        if isinstance(node, ast.Lambda):
            return False
        if isinstance(node, ast.AST):
            return any(
                self.expr_tainted(child, extra) for child in ast.iter_child_nodes(node)
            )
        return False

    def _comprehension_tainted(self, node: ast.AST, extra: frozenset[str]) -> bool:
        bound: set[str] = set(extra)
        for comp in node.generators:  # type: ignore[attr-defined]
            if self.expr_tainted(comp.iter, frozenset(bound)):
                for target in ast.walk(comp.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
        overlay = frozenset(bound)
        if isinstance(node, ast.DictComp):
            return self.expr_tainted(node.key, overlay) or self.expr_tainted(
                node.value, overlay
            )
        return self.expr_tainted(node.elt, overlay)  # type: ignore[attr-defined]

    # -- statement effects ---------------------------------------------

    def _taint_target(self, target: ast.AST) -> bool:
        """Mark an assignment target tainted; True if the state changed."""
        changed = False
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                changed |= self._taint_target(element)
            return changed
        if isinstance(target, ast.Starred):
            return self._taint_target(target.value)
        if isinstance(target, ast.Subscript):
            # d[k] = tainted taints the container itself.
            return self._taint_target(target.value)
        name = _dotted_name(target)
        if name is not None and name not in self.tainted:
            self.tainted.add(name)
            return True
        return changed

    def run_fixpoint(self, max_rounds: int = 12) -> None:
        """Iterate assignment/mutation effects until the state is stable."""
        effects = [node for node in self.statements if isinstance(node, _EFFECT_NODES)]
        for _ in range(max_rounds):
            changed = False
            for node in effects:
                if isinstance(node, ast.Assign):
                    if self.expr_tainted(node.value):
                        for target in node.targets:
                            changed |= self._taint_target(target)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    if node.value is not None and self.expr_tainted(node.value):
                        changed |= self._taint_target(node.target)
                elif isinstance(node, ast.NamedExpr):
                    if self.expr_tainted(node.value):
                        changed |= self._taint_target(node.target)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if self.expr_tainted(node.iter):
                        changed |= self._taint_target(node.target)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if item.optional_vars is not None and self.expr_tainted(
                            item.context_expr
                        ):
                            changed |= self._taint_target(item.optional_vars)
                elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                    # x.append(tainted) and friends taint the receiver.
                    call = node.value
                    if (
                        isinstance(call.func, ast.Attribute)
                        and call.func.attr in MUTATOR_CALLS
                        and any(self.expr_tainted(arg) for arg in call.args)
                    ):
                        changed |= self._taint_target(call.func.value)
            if not changed:
                return


def _payload_argument(call: ast.Call, position: int, keyword: str) -> ast.AST | None:
    """The payload expression of a sink call, by position or keyword."""
    if len(call.args) > position:
        return call.args[position]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _keyword_is_true(call: ast.Call, keyword: str) -> bool:
    for kw in call.keywords:
        if kw.arg == keyword and isinstance(kw.value, ast.Constant):
            return kw.value.value is True
    return False


def sink_calls(
    statements: list[ast.AST],
) -> Iterator[tuple[ast.Call, str, str, ast.AST | None]]:
    """Every call in ``statements`` as ``(call, kind, name, payload)``.

    ``kind`` is ``"network"`` for ``send``/``broadcast``, ``"storage"``
    for ``put``, ``"serialize"`` for :data:`SERIALIZERS` and ``""`` for
    any other call.  ``name`` is the call's trailing name, dotted for
    serializers.  ``payload`` is the argument a sink would leak; it is
    ``None`` for other calls, for a sink called without one, and for a
    ``put(..., private=True)``.
    """
    for node in statements:
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in ("send", "broadcast"):
            yield node, "network", name, _payload_argument(node, 2, "payload")
        elif name == "put":
            parts = None
            if not _keyword_is_true(node, "private"):
                parts = _payload_argument(node, 1, "parts")
            yield node, "storage", name, parts
        else:
            dotted = _dotted_name(node.func) or ""
            if dotted in SERIALIZERS:
                yield node, "serialize", dotted, node.args[0] if node.args else None
            else:
                yield node, "", name, None


class PrivacyTaintChecker(ModuleChecker):
    """Flags raw training data flowing into network/storage/serialization."""

    name = "privacy"
    rules = (
        Rule(
            id="privacy.raw-data-to-network",
            severity=Severity.ERROR,
            summary="raw training data flows into a Network.send/broadcast payload",
            hint="route the value through a sanctioned mechanism (secure-sum "
            "masking, threshold shares, Paillier encryption, or an audited "
            "aggregate) before it touches the wire",
        ),
        Rule(
            id="privacy.raw-data-in-storage",
            severity=Severity.ERROR,
            summary="raw training data stored in HDFS without private=True",
            hint="pass private=True so the namenode pins the blocks to their "
            "owner with replication 1",
        ),
        Rule(
            id="privacy.raw-data-serialized",
            severity=Severity.ERROR,
            summary="raw training data serialized outside the simulated fabric",
            hint="serialize only aggregated or sanctioned-masked values; raw "
            "partitions must stay on their node",
        ),
    )

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            node for node in ast.walk(module.tree) if isinstance(node, _SCOPE_NODES)
        )
        for scope in scopes:
            statements = module.statements(scope)
            state = _ScopeTaint(statements)
            state.run_fixpoint()
            for call, kind, name, payload in sink_calls(statements):
                if payload is None or not state.expr_tainted(payload):
                    continue
                rule, message = {
                    "network": (
                        "privacy.raw-data-to-network",
                        f"payload of .{name}() is derived from raw training data",
                    ),
                    "storage": (
                        "privacy.raw-data-in-storage",
                        "raw training data written to HDFS without private=True",
                    ),
                    "serialize": (
                        "privacy.raw-data-serialized",
                        f"raw training data passed to {name}()",
                    ),
                }[kind]
                yield self.finding(rule, module, call.lineno, message)
