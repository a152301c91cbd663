"""Protocol-invariant checker for the secure-summation mask algebra.

The privacy proof of the paper's Protocol 1 (Section V) rests on three
structural invariants of the implementation, none of which a unit test
on the *sum* can catch — a sign flip still produces a number, just not a
private one:

* **mask balance** — every pairwise mask must enter the aggregate once
  with ``+`` (at its generator) and once with ``-`` (at its receiver);
  an unbalanced mask either fails to cancel (corrupting the sum) or,
  worse, cancels locally and ships an unmasked share;
* **pad provenance** — PRG pad streams (``self._pair_rngs``) may only be
  created in the dedicated seed-exchange phase, derived from a seed that
  actually crossed the network (``kind="mask-seed"``): a pad seeded from
  local state is a pad the partner does not share, so it never cancels;
* **participant floor** — a "secure" summation over fewer than two
  participants hands the Reducer the single participant's input verbatim,
  so protocol classes that emit share traffic must reject ``< 2``
  participants at construction (the coalition-resistance shape check:
  no aggregation sink is reachable with fewer than two masked
  contributions).

The checker verifies these shapes statically over crypto-scope modules
(the same scope as :mod:`~repro.analysis.checkers.crypto`).  It is
deliberately syntactic: the real protocols
(:mod:`repro.crypto.secure_sum`, :mod:`repro.crypto.threshold_sum`)
pass clean, and the regression it guards against is an edit that changes
the algebra's *shape* — dropping a subtraction, reusing a local seed —
not a deep semantic property.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ModuleChecker
from repro.analysis.checkers.crypto import MASK_GENERATORS, is_crypto_scope
from repro.analysis.checkers.privacy import _call_name, _scope_statements
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import ModuleSource

__all__ = ["ProtocolInvariantChecker"]

#: The attribute holding pairwise PRG pad streams.
PAIR_RNG_ATTR = "_pair_rngs"

#: The only method allowed to create pairwise pad streams.
SEED_EXCHANGE_METHOD = "_exchange_pairwise_seeds"

#: Message kind carrying exchanged pad seeds.
SEED_KIND = "mask-seed"

#: The codec's multi-operand ``sum(plus) - sum(minus)`` netting op.
BATCHED_SUM = "sum_arrays"

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _call_kind(call: ast.Call) -> str | None:
    """Value of a literal ``kind=...`` keyword, if present."""
    for keyword in call.keywords:
        if keyword.arg == "kind" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            if isinstance(value, str):
                return value
    return None


def _is_mask_receive(call: ast.Call) -> bool:
    # receive() yields the payload directly; receive_message() yields a
    # Message envelope whose .payload is the mask (the audited paths use
    # the envelope form to learn the sender).
    return _call_name(call) in ("receive", "receive_message") and (
        _call_kind(call) == "mask"
    )


def _operand_name(node: ast.AST) -> str | None:
    """The mask-bearing name an arithmetic operand refers to.

    Either the bound name itself (``mask``) or the payload of a bound
    ``Message`` envelope (``message.payload``).
    """
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "payload"
        and isinstance(node.value, ast.Name)
    ):
        return node.value.id
    return None


def _container_name(node: ast.AST) -> str | None:
    """The list a pad container expression names (``c`` or ``c[key]``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _batched_operands(
    node: ast.AST, bindings: dict[str, int], appended: dict[str, list[str]]
) -> list[str]:
    """Mask names an operand list of a batched sum carries.

    The operand is a container the round appended masks to
    (``sent[p]``), or a literal list/tuple of masks and starred
    containers (``[share, *pads]``).
    """
    if isinstance(node, (ast.List, ast.Tuple)):
        names: list[str] = []
        for element in node.elts:
            if isinstance(element, ast.Starred):
                names += _batched_operands(element.value, bindings, appended)
            elif (name := _operand_name(element)) is not None and name in bindings:
                names.append(name)
        return names
    container = _container_name(node)
    return list(appended.get(container, ())) if container else []


def _assigned_names(node: ast.Assign) -> list[str]:
    return [t.id for t in node.targets if isinstance(t, ast.Name)]


def _mentions(node: ast.AST, names: set[str]) -> bool:
    """Whether any ``Name`` in ``names`` is loaded anywhere under ``node``."""
    return any(
        isinstance(sub, ast.Name) and sub.id in names
        for sub in ast.walk(node)
    )


class ProtocolInvariantChecker(ModuleChecker):
    """Statically verifies the secure-summation protocol invariants."""

    name = "protocol"
    rules = (
        Rule(
            id="protocol.unbalanced-mask",
            severity=Severity.ERROR,
            summary="pairwise mask not applied once with + and once with -",
            hint="every mask must be added by its generator and subtracted "
            "by its receiver so the pads cancel telescopically at the "
            "Reducer; an unbalanced mask leaks or corrupts",
        ),
        Rule(
            id="protocol.pair-seed-provenance",
            severity=Severity.ERROR,
            summary="pairwise pad stream not derived from an exchanged seed",
            hint=f"create pad streams only in {SEED_EXCHANGE_METHOD}(), from "
            f'a seed sent and received with kind="{SEED_KIND}" — a locally '
            "seeded pad is one the partner does not share, so it never "
            "cancels",
        ),
        Rule(
            id="protocol.missing-participant-guard",
            severity=Severity.WARNING,
            summary="share-emitting protocol class accepts < 2 participants",
            hint="raise in __init__ when fewer than 2 participants are "
            "given; a single-participant 'secure' sum hands the Reducer "
            "that participant's input verbatim",
        ),
    )

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        if not is_crypto_scope(module):
            return
        assert module.tree is not None
        tree = module.tree
        for node in ast.walk(tree):
            if isinstance(node, _FUNC_NODES):
                yield from self._check_mask_balance(module, node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_pair_seed_provenance(module, node)
                yield from self._check_participant_guard(module, node)

    # -- mask balance ---------------------------------------------------

    def _check_mask_balance(
        self, module: ModuleSource, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        """The mask-bound names must balance their + and - applications.

        Applies only to protocol rounds — functions that both bind masks
        (``random_vector(...)`` results or ``receive(kind="mask")``) and
        send traffic; helper functions that only generate or only apply
        are judged at their call sites' enclosing round.

        Masks enter the ledger through pairwise ``add``/``subtract``
        calls, ``+``/``-`` expressions, or a batched
        ``sum_arrays(plus, minus)``: every mask appended to a container
        passed as ``plus`` counts ``+`` and as ``minus`` counts ``-``.
        The ledger is aggregated across the round's mask bindings: the
        generated mask carries the ``+`` and the received one (possibly
        under a ``Message`` envelope name) carries the ``-``, so a round
        balances when total adds equal total subtracts.  A sign flip or
        a dropped subtraction still surfaces — the names that fail to
        balance individually are the ones reported.
        """
        bindings: dict[str, int] = {}  # name -> first binding line
        sends = False
        for stmt in _scope_statements(func):
            if isinstance(stmt, ast.Call) and _call_name(stmt) == "send":
                sends = True
            if not isinstance(stmt, ast.Assign) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            call = stmt.value
            if _call_name(call) in MASK_GENERATORS or _is_mask_receive(call):
                for name in _assigned_names(stmt):
                    bindings.setdefault(name, stmt.lineno)
                    bindings[name] = min(bindings[name], stmt.lineno)
        if not bindings or not sends:
            return

        appended: dict[str, list[str]] = {}  # container -> masks appended
        for stmt in _scope_statements(func):
            if (
                isinstance(stmt, ast.Call)
                and _call_name(stmt) == "append"
                and isinstance(stmt.func, ast.Attribute)
                and len(stmt.args) == 1
                and (name := _operand_name(stmt.args[0])) is not None
                and name in bindings
                and (container := _container_name(stmt.func.value)) is not None
            ):
                appended.setdefault(container, []).append(name)

        adds: dict[str, int] = {name: 0 for name in bindings}
        subtracts: dict[str, int] = {name: 0 for name in bindings}
        for stmt in _scope_statements(func):
            if isinstance(stmt, ast.Call):
                op = _call_name(stmt)
                if op in ("add", "subtract"):
                    counter = adds if op == "add" else subtracts
                    for arg in stmt.args:
                        name = _operand_name(arg)
                        if name in bindings:
                            counter[name] += 1
                elif op == BATCHED_SUM:
                    operands = dict(enumerate(stmt.args))
                    for keyword in stmt.keywords:
                        if keyword.arg in ("plus", "minus"):
                            operands[0 if keyword.arg == "plus" else 1] = keyword.value
                    for position, operand in operands.items():
                        counter = adds if position == 0 else subtracts
                        for name in _batched_operands(operand, bindings, appended):
                            counter[name] += 1
            elif isinstance(stmt, ast.BinOp) and isinstance(
                stmt.op, (ast.Add, ast.Sub)
            ):
                for side, operand in (("left", stmt.left), ("right", stmt.right)):
                    name = _operand_name(operand)
                    if name not in bindings:
                        continue
                    # In ``a - mask`` the mask enters negatively; every
                    # other position is a positive application.
                    negative = isinstance(stmt.op, ast.Sub) and side == "right"
                    counter = subtracts if negative else adds
                    counter[name] += 1

        if sum(adds.values()) == sum(subtracts.values()):
            return
        for name in sorted(bindings):
            if adds[name] != subtracts[name]:
                yield self.finding(
                    "protocol.unbalanced-mask",
                    module,
                    bindings[name],
                    f"mask {name!r} is applied with + {adds[name]} time(s) "
                    f"but with - {subtracts[name]} time(s) in "
                    f"{func.name}() — the pads cannot cancel",
                )

    # -- pad provenance -------------------------------------------------

    def _check_pair_seed_provenance(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, _FUNC_NODES):
                continue
            writes = [
                stmt
                for stmt in _scope_statements(method)
                if isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Attribute)
                    and t.value.attr == PAIR_RNG_ATTR
                    for t in stmt.targets
                )
            ]
            if not writes:
                continue
            if method.name != SEED_EXCHANGE_METHOD:
                for stmt in writes:
                    yield self.finding(
                        "protocol.pair-seed-provenance",
                        module,
                        stmt.lineno,
                        f"{cls.name}.{method.name}() creates a pairwise pad "
                        f"stream outside {SEED_EXCHANGE_METHOD}()",
                    )
                continue
            received = self._seed_receive_names(method)
            sends_seed = any(
                isinstance(stmt, ast.Call)
                and _call_name(stmt) == "send"
                and _call_kind(stmt) == SEED_KIND
                for stmt in _scope_statements(method)
            )
            for stmt in writes:
                if not sends_seed or not _mentions(stmt.value, received):
                    yield self.finding(
                        "protocol.pair-seed-provenance",
                        module,
                        stmt.lineno,
                        f"{cls.name}.{method.name}() seeds a pairwise pad "
                        "stream from local state that was never exchanged "
                        f'(kind="{SEED_KIND}")',
                    )

    @staticmethod
    def _seed_receive_names(
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        """Names bound from ``receive(..., kind="mask-seed")`` calls."""
        names: set[str] = set()
        for stmt in _scope_statements(method):
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and _call_name(stmt.value) == "receive"
                and _call_kind(stmt.value) == SEED_KIND
            ):
                names.update(_assigned_names(stmt))
        return names

    # -- participant floor ----------------------------------------------

    def _check_participant_guard(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        if not self._emits_shares(cls):
            return
        init = next(
            (
                item
                for item in cls.body
                if isinstance(item, _FUNC_NODES) and item.name == "__init__"
            ),
            None,
        )
        if init is not None and self._has_floor_guard(init):
            return
        yield self.finding(
            "protocol.missing-participant-guard",
            module,
            cls.lineno,
            f"{cls.name} emits share traffic but never rejects fewer than "
            "2 participants at construction",
        )

    @staticmethod
    def _emits_shares(cls: ast.ClassDef) -> bool:
        """Whether any method sends a ``kind="...share..."`` payload."""
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Call)
                and _call_name(node) == "send"
                and "share" in (_call_kind(node) or "")
            ):
                return True
        return False

    @staticmethod
    def _has_floor_guard(init: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """An ``if ... < n: raise`` with an integer floor of at least 2."""
        for stmt in _scope_statements(init):
            if not isinstance(stmt, ast.If):
                continue
            test = stmt.test
            if not (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Lt, ast.LtE))
            ):
                continue
            comparator = test.comparators[0]
            floor_ok = (
                isinstance(comparator, ast.Constant)
                and isinstance(comparator.value, int)
                and (
                    comparator.value >= 2
                    if isinstance(test.ops[0], ast.Lt)
                    else comparator.value >= 1
                )
            )
            raises = any(isinstance(n, ast.Raise) for n in ast.walk(stmt))
            if floor_ok and raises:
                return True
        return False
