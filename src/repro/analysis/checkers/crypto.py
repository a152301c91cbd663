"""Crypto-misuse checker.

The protocols under ``repro/crypto`` (and the DP baseline) are only as
good as their randomness and their arithmetic: a mask drawn from the
stdlib ``random`` module is not a one-time pad, a pairwise pad reused
across rounds breaks the masking argument, and float arithmetic on
fixed-point residues or Paillier ciphertexts silently corrupts the
algebra the privacy proof lives in.  This checker flags those misuse
patterns in crypto-scope files (any path containing a ``crypto``
segment, plus ``dp.py``, the DP baseline).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ModuleChecker
from repro.analysis.checkers.privacy import _call_name, _dotted_name
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import ModuleSource, _scope_statements

__all__ = ["CryptoMisuseChecker", "is_crypto_scope"]

#: Calls whose results live in the modular/ciphertext domain.
CIPHER_PRODUCERS = frozenset(
    {"encode", "encode_array", "random_vector", "random_vector_array",
     "zeros_array", "sum_arrays", "shamir_share",
     "encrypt", "encrypt_raw", "encrypt_vector"}
)

#: Modular-domain operations that *keep* values in the cipher domain.
CIPHER_PRESERVING = frozenset({"add", "subtract"})

#: Mask/pad generators (for the reuse-across-rounds rule).
MASK_GENERATORS = frozenset({"random_vector", "random_vector_array"})

_RNG_CONSTRUCTORS = frozenset({"default_rng", "RandomState", "Generator"})


def is_crypto_scope(module: ModuleSource) -> bool:
    """Whether crypto-misuse rules apply to ``module``."""
    return module.in_part("crypto") or module.relpath.endswith("/dp.py")


def _is_float_context(node: ast.AST) -> bool:
    """Whether ``node`` is a float-producing operation or coercion."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in ("float", "float64", "float32"):
            return True
        if name in ("asarray", "array"):
            for kw in node.keywords:
                if kw.arg == "dtype":
                    dotted = _dotted_name(kw.value) or ""
                    if isinstance(kw.value, ast.Name) and kw.value.id == "float":
                        return True
                    if dotted.endswith("float64") or dotted.endswith("float32"):
                        return True
    return False


class CryptoMisuseChecker(ModuleChecker):
    """Flags unsafe randomness and arithmetic in the crypto modules."""

    name = "crypto"
    rules = (
        Rule(
            id="crypto.stdlib-random",
            severity=Severity.ERROR,
            summary="stdlib random module used in crypto code",
            hint="masks and shares must come from a numpy Generator routed "
            "through repro.utils.rng (seedable, splittable, testable)",
        ),
        Rule(
            id="crypto.direct-rng-construction",
            severity=Severity.ERROR,
            summary="numpy Generator constructed directly in crypto code",
            hint="use repro.utils.rng.as_rng / spawn_rngs so every stream is "
            "derived from the experiment seed",
        ),
        Rule(
            id="crypto.float-on-ciphertext",
            severity=Severity.ERROR,
            summary="float arithmetic applied to a modular/ciphertext value",
            hint="residues and ciphertexts are exact integers; decode() first, "
            "or stay in modular arithmetic",
        ),
        Rule(
            id="crypto.mask-reuse",
            severity=Severity.ERROR,
            summary="mask generated once but consumed inside a loop (pad reuse)",
            hint="draw a fresh mask inside the round loop; a reused pad is not "
            "a one-time pad",
        ),
    )

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        if not is_crypto_scope(module):
            return
        assert module.tree is not None
        tree = module.tree
        yield from self._check_stdlib_random(module, tree)
        yield from self._check_rng_construction(module, tree)
        yield from self._check_float_on_cipher(module, tree)
        yield from self._check_mask_reuse(module, tree)

    # -- randomness -----------------------------------------------------

    def _check_stdlib_random(
        self, module: ModuleSource, tree: ast.Module
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            "crypto.stdlib-random",
                            module,
                            node.lineno,
                            "the stdlib random module must not be imported in "
                            "crypto code",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        "crypto.stdlib-random",
                        module,
                        node.lineno,
                        "the stdlib random module must not be imported in crypto code",
                    )

    def _check_rng_construction(
        self, module: ModuleSource, tree: ast.Module
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in _RNG_CONSTRUCTORS:
                continue
            dotted = _dotted_name(node.func) or name
            yield self.finding(
                "crypto.direct-rng-construction",
                module,
                node.lineno,
                f"{dotted}() constructed directly; seed provenance is lost",
            )

    # -- arithmetic -----------------------------------------------------

    def _check_float_on_cipher(
        self, module: ModuleSource, tree: ast.Module
    ) -> Iterator[Finding]:
        for scope in self._scopes(tree):
            cipher_names = self._cipher_names(scope)
            if not cipher_names:
                continue
            for node in _scope_statements(scope):
                if not _is_float_context(node):
                    continue
                operands: list[ast.AST]
                if isinstance(node, ast.BinOp):
                    operands = [node.left, node.right]
                else:
                    operands = list(node.args)  # type: ignore[union-attr]
                for operand in operands:
                    if isinstance(operand, ast.Name) and operand.id in cipher_names:
                        yield self.finding(
                            "crypto.float-on-ciphertext",
                            module,
                            node.lineno,
                            f"float arithmetic on modular value {operand.id!r}",
                        )

    def _cipher_names(self, scope: ast.AST) -> set[str]:
        """Names bound (directly) to cipher-domain values in ``scope``."""
        names: set[str] = set()
        for _ in range(4):  # small fixpoint: cipher ops preserve the domain
            changed = False
            for node in _scope_statements(scope):
                if not isinstance(node, ast.Assign) or not isinstance(
                    node.value, ast.Call
                ):
                    continue
                call_name = _call_name(node.value)
                produces = call_name in CIPHER_PRODUCERS or (
                    call_name in CIPHER_PRESERVING
                    and any(
                        isinstance(arg, ast.Name) and arg.id in names
                        for arg in node.value.args
                    )
                )
                if not produces:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        changed = True
            if not changed:
                break
        return names

    # -- pad reuse ------------------------------------------------------

    def _check_mask_reuse(
        self, module: ModuleSource, tree: ast.Module
    ) -> Iterator[Finding]:
        for scope in self._scopes(tree):
            # Where is each mask-valued name (re)bound?
            bindings: dict[str, list[ast.AST]] = {}
            for node in _scope_statements(scope):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if _call_name(node.value) in MASK_GENERATORS:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                bindings.setdefault(target.id, []).append(node)
            if not bindings:
                continue
            loops = [
                node
                for node in _scope_statements(scope)
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
            ]
            for name in sorted(bindings):
                for loop in loops:
                    if self._rebinds(loop, name):
                        continue
                    for node in ast.walk(loop):
                        if (
                            isinstance(node, ast.Name)
                            and node.id == name
                            and isinstance(node.ctx, ast.Load)
                        ):
                            yield self.finding(
                                "crypto.mask-reuse",
                                module,
                                node.lineno,
                                f"mask {name!r} is generated outside this loop "
                                "but consumed inside it — the pad repeats "
                                "across rounds",
                            )
                            break

    @staticmethod
    def _rebinds(loop: ast.AST, name: str) -> bool:
        """Whether ``name`` is (re)assigned anywhere inside ``loop``'s body."""
        for node in ast.walk(loop):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        return False

    @staticmethod
    def _scopes(tree: ast.Module) -> list[ast.AST]:
        scopes: list[ast.AST] = [tree]
        scopes.extend(
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        return scopes
