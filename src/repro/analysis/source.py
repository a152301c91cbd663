"""Parsed source files and ``# repro-lint:`` pragma extraction.

A :class:`ModuleSource` bundles everything a checker needs about one
file: its repo-relative path, raw text, split lines, parsed AST, and the
per-line suppression pragmas.  Pragma syntax::

    x = risky()  # repro-lint: disable=privacy.raw-data-to-network
    # repro-lint: disable=crypto.stdlib-random -- justification text
    y = also_risky()

A pragma suppresses matching findings on its own line; a pragma on a
*comment-only* line additionally suppresses findings on the next line.
``disable=all`` suppresses every rule.  Multiple rules are
comma-separated.  Text after ``--`` is a free-form justification
(required by convention, not enforced — the allowlist is the place for
audited, reasoned exceptions).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["ModuleSource", "parse_pragmas", "report_path"]

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_.\-]+(?:\s*,\s*[A-Za-z0-9_.\-]+)*)"
)


def report_path(path: Path, root: Path) -> str:
    """``path`` as findings report it: POSIX and relative to ``root``, or
    as given when it lies outside the root (an explicit argument)."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_pragmas(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids disabled on that line.

    The special id ``"all"`` disables every rule.  A pragma on a line
    whose only content is the comment also applies to the line after it
    (so a justification comment can sit above the flagged statement).
    """
    pragmas: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        pragmas.setdefault(lineno, set()).update(rules)
        if line.lstrip().startswith("#"):  # comment-only: cover the next line
            pragmas.setdefault(lineno + 1, set()).update(rules)
    return {lineno: frozenset(rules) for lineno, rules in pragmas.items()}


def _scope_statements(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested scopes or lambdas."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES + (ast.Lambda,)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class ModuleSource:
    """One parsed Python file, as seen by checkers.

    Attributes
    ----------
    path:
        Absolute filesystem path.
    relpath:
        POSIX path relative to the lint root (what findings report).
    text:
        Raw file contents.
    lines:
        ``text.splitlines()`` (1-based access via :meth:`line`).
    tree:
        Parsed ``ast.Module``, or ``None`` when the file has a syntax
        error (the engine reports ``lint.syntax-error`` instead of
        running checkers on it).
    pragmas:
        Per-line disabled rule ids (see :func:`parse_pragmas`).
    """

    path: Path
    relpath: str
    text: str
    lines: list[str] = field(default_factory=list)
    tree: ast.Module | None = None
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)
    _statements: dict[int, list[ast.AST]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleSource":
        """Read and parse ``path``; syntax errors leave ``tree`` as None."""
        text = path.read_text(encoding="utf-8")
        relpath = report_path(path, root)
        lines = text.splitlines()
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            tree = None
        return cls(
            path=path,
            relpath=relpath,
            text=text,
            lines=lines,
            tree=tree,
            pragmas=parse_pragmas(lines),
        )

    def statements(self, scope: ast.AST) -> list[ast.AST]:
        """The nodes of ``scope`` (a node of :attr:`tree`) outside nested
        scopes and lambdas, walked once and shared by every checker."""
        statements = self._statements.get(id(scope))
        if statements is None:
            statements = self._statements[id(scope)] = list(_scope_statements(scope))
        return statements

    def line(self, lineno: int) -> str:
        """The 1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """Whether a pragma disables ``rule_id`` at ``lineno``."""
        disabled = self.pragmas.get(lineno)
        if not disabled:
            return False
        return "all" in disabled or rule_id in disabled

    def in_part(self, *segments: str) -> bool:
        """Whether any path segment of ``relpath`` equals one of ``segments``."""
        parts = set(self.relpath.split("/"))
        return any(segment in parts for segment in segments)
