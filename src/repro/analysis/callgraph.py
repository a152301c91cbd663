"""Whole-program function index and conservative call resolution.

The intraprocedural privacy checker (:mod:`repro.analysis.checkers.privacy`)
stops at function boundaries: a helper that returns ``self.X`` and a
caller that ships the result to the network are each individually
invisible.  This module provides the *call graph* side of closing that
blind spot: it indexes every module-level function and class method in a
:class:`~repro.analysis.base.Project` and resolves call expressions to
candidate definitions so the interprocedural engine
(:mod:`repro.analysis.interproc`) can propagate taint through them.

Resolution is name-based and deliberately conservative:

* ``foo(...)`` resolves to every *module-level* function named ``foo``
  anywhere in the project (imports are not tracked; a name match is
  enough — over-approximating keeps the analysis sound for leaks);
* ``self.foo(...)`` resolves within the enclosing class and its
  project-defined bases (nearest definition wins);
* ``self.attr.foo(...)`` where some method of the enclosing class
  assigns ``self.attr = KnownClass(...)`` resolves inside ``KnownClass``
  only (method dispatch on known classes — this is what keeps one
  generic method name like ``step`` from cross-contaminating every
  class that defines it);
* ``obj.foo(...)`` resolves to every method named ``foo`` on any indexed
  class plus every free function named ``foo`` — *unless* the name is so
  common that the candidate set exceeds :data:`MAX_DISPATCH_CANDIDATES`
  (unbounded fan-out would turn one noisy summary into project-wide
  false positives, so such calls fall back to the intraprocedural
  argument rule).

``@overload`` stubs are not indexed: only the implementation runs, so
only it has a summary.

Known sink methods (``send`` / ``broadcast`` / ``put``) and container
mutators are never resolved: sinks are handled at the call site by the
sink scan, and resolving e.g. ``list.append`` to an unrelated project
method would be meaningless.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.base import Project
from repro.analysis.checkers.privacy import MUTATOR_CALLS, _call_name, _dotted_name
from repro.analysis.source import ModuleSource

__all__ = ["CallGraph", "FunctionInfo", "MAX_DISPATCH_CANDIDATES"]

#: Attribute calls with more candidates than this stay unresolved.
MAX_DISPATCH_CANDIDATES = 6

#: Call names the resolver refuses to resolve (sinks + container mutators).
UNRESOLVED_NAMES = frozenset({"send", "broadcast", "put", "receive"}) | MUTATOR_CALLS

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(eq=False)
class FunctionInfo:
    """One indexed function or method definition.

    Instances compare and hash by identity, so per-function state can be
    keyed on the definition itself: a property getter and its setter
    share a ``qualname`` but are two definitions.

    Attributes
    ----------
    qualname:
        Stable identifier, ``<relpath>::<Class>.<name>`` or
        ``<relpath>::<name>``.
    name:
        Bare function name (the resolution key).
    cls:
        Enclosing class name, or ``None`` for module-level functions.
    module:
        The module the definition lives in.
    node:
        The ``def`` AST node.
    params:
        Positional parameter names in order (including ``self``).
    """

    qualname: str
    name: str
    cls: str | None
    module: ModuleSource
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str] = field(default_factory=list)

    @property
    def display(self) -> str:
        """Short human name: ``Class.method`` or ``func``."""
        return f"{self.cls}.{self.name}" if self.cls else self.name

    @property
    def relpath(self) -> str:
        return self.module.relpath

    @property
    def statements(self) -> list[ast.AST]:
        """The body's nodes outside nested scopes (see
        :meth:`ModuleSource.statements`)."""
        return self.module.statements(self.node)


def _positional_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in [*args.posonlyargs, *args.args]]


class CallGraph:
    """Function index + call resolution over one project."""

    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self._by_name: dict[str, list[FunctionInfo]] = {}
        self._methods: dict[tuple[str, str], FunctionInfo] = {}
        self._bases: dict[str, list[str]] = {}
        #: (class, attribute) -> class name of the value consistently
        #: assigned to ``self.<attribute>``; ambiguous attrs are dropped.
        self._attr_types: dict[tuple[str, str], str | None] = {}

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        """Index every module-level function and class method."""
        graph = cls()
        class_nodes: list[tuple[ast.ClassDef, ModuleSource]] = []
        for module in project.modules:
            if module.tree is None:
                continue
            for node in module.tree.body:
                if isinstance(node, _FUNC_NODES):
                    graph._add(module, node, cls_name=None)
                elif isinstance(node, ast.ClassDef):
                    class_nodes.append((node, module))
                    graph._bases.setdefault(
                        node.name,
                        [
                            base.id
                            for base in node.bases
                            if isinstance(base, ast.Name)
                        ],
                    )
                    for item in node.body:
                        if isinstance(item, _FUNC_NODES):
                            graph._add(module, item, cls_name=node.name)
        for node, _ in class_nodes:
            graph._index_attr_types(node)
        return graph

    def _index_attr_types(self, cls_node: ast.ClassDef) -> None:
        """Record ``self.attr = KnownClass(...)`` assignments for dispatch."""
        for item in cls_node.body:
            if not isinstance(item, _FUNC_NODES):
                continue
            for node in ast.walk(item):
                if not isinstance(node, ast.Assign) or not isinstance(
                    node.value, ast.Call
                ):
                    continue
                func = node.value.func
                if not (isinstance(func, ast.Name) and func.id in self._bases):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        key = (cls_node.name, target.attr)
                        previous = self._attr_types.get(key, func.id)
                        self._attr_types[key] = (
                            func.id if previous == func.id else None
                        )

    def _add(
        self,
        module: ModuleSource,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
    ) -> None:
        decorators = {_dotted_name(dec) for dec in node.decorator_list}
        if decorators & {"overload", "typing.overload"}:
            return  # a stub; only the implementation runs
        prefix = f"{cls_name}." if cls_name else ""
        info = FunctionInfo(
            qualname=f"{module.relpath}::{prefix}{node.name}",
            name=node.name,
            cls=cls_name,
            module=module,
            node=node,
            params=_positional_params(node),
        )
        self.functions.append(info)
        self._by_name.setdefault(node.name, []).append(info)
        if cls_name is not None:
            self._methods.setdefault((cls_name, node.name), info)

    # -- resolution -----------------------------------------------------

    def _method_in_hierarchy(self, cls_name: str, name: str) -> FunctionInfo | None:
        """Nearest definition of ``name`` in ``cls_name``'s project MRO."""
        seen: set[str] = set()
        queue = [cls_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self._methods.get((current, name))
            if info is not None:
                return info
            queue.extend(self._bases.get(current, []))
        return None

    def resolve(
        self, call: ast.Call, caller: FunctionInfo | None = None
    ) -> list[FunctionInfo]:
        """Candidate definitions for ``call``, possibly empty.

        Deterministic: candidates come back sorted by ``qualname``.
        """
        name = _call_name(call)
        if not name or name in UNRESOLVED_NAMES or name.startswith("__"):
            return []
        func = call.func
        if isinstance(func, ast.Name):
            candidates = [f for f in self._by_name.get(name, []) if f.cls is None]
            return sorted(candidates, key=lambda f: f.qualname)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and caller is not None
                and caller.cls is not None
            ):
                info = self._method_in_hierarchy(caller.cls, name)
                return [info] if info is not None else []
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and caller is not None
                and caller.cls is not None
            ):
                # self.attr.method(): dispatch on the attribute's known
                # class when every assignment agrees on one.
                attr_cls = self._attr_types.get((caller.cls, receiver.attr))
                if attr_cls is not None:
                    info = self._method_in_hierarchy(attr_cls, name)
                    return [info] if info is not None else []
            candidates = sorted(
                self._by_name.get(name, []), key=lambda f: f.qualname
            )
            if len(candidates) > MAX_DISPATCH_CANDIDATES:
                return []
            return candidates
        return []
