"""Parsed source modules: what every tea-lint checker consumes.

A :class:`ModuleSource` bundles a file's text, its parsed AST, the
derived dotted module name, an enclosing-scope (qualname) index, and
the inline-suppression table. Checkers never re-read or re-parse
anything; tests lint in-memory sources by constructing one directly
with a *virtual* path (so path-scoped checkers such as TL002/TL003 can
be exercised on fixture snippets).

Inline directives (in comments, parsed with :mod:`tokenize` so string
literals cannot false-positive)::

    # tealint: disable=TL002            silence rules on this line
    # tealint: disable=TL002,TL003 -- reason text after a double dash
    # tealint: disable-file=TL004       silence rules in the whole file

A directive on a comment-only line attaches to the next code line
(consecutive comment lines chain, so a directive may sit atop an
explanatory comment block). A ``disable`` reaching a ``def``/``class``
header -- directly, via its decorators, or via a comment block above
it -- silences the rule for the entire body of that definition.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from functools import cached_property
from pathlib import PurePosixPath

_DIRECTIVE_RE = re.compile(
    r"#\s*tealint:\s*(?P<kind>disable-file|disable)"
    r"\s*(?:=\s*(?P<rules>[A-Za-z0-9_,\s]+?))?\s*(?:--.*)?$"
)


class ModuleSource:
    """One Python source file, parsed and indexed for the checkers."""

    def __init__(self, path: str, text: str) -> None:
        #: Repo-relative (or virtual) path, normalised to forward
        #: slashes -- the path findings and baselines carry.
        self.path = str(PurePosixPath(*PurePosixPath(path).parts))
        self.text = text
        self.tree = ast.parse(text, filename=self.path)
        self.lines = text.splitlines()

    # ------------------------------------------------------------------
    # Identity.
    # ------------------------------------------------------------------
    @cached_property
    def module_name(self) -> str:
        """Dotted module name derived from the path.

        ``src/repro/uarch/core.py`` -> ``repro.uarch.core``. Paths not
        under a ``repro`` package root produce a best-effort name from
        the stem (path-scoped checkers then simply do not apply).
        """
        parts = list(PurePosixPath(self.path).parts)
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts.pop()
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        return ".".join(parts)

    def in_package(self, *prefixes: str) -> bool:
        """True when the module lives under any dotted *prefix*."""
        name = self.module_name
        return any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in prefixes
        )

    # ------------------------------------------------------------------
    # Scope (qualname) index.
    # ------------------------------------------------------------------
    @cached_property
    def _scopes(self) -> list[tuple[int, int, str]]:
        """(start, end, qualname) per def/class, innermost last."""
        scopes: list[tuple[int, int, str]] = []

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (
                        ast.FunctionDef,
                        ast.AsyncFunctionDef,
                        ast.ClassDef,
                    ),
                ):
                    qual = (
                        f"{prefix}.{child.name}" if prefix else child.name
                    )
                    scopes.append(
                        (child.lineno, child.end_lineno or child.lineno,
                         qual)
                    )
                    walk(child, qual)
                else:
                    walk(child, prefix)

        walk(self.tree, "")
        return scopes

    def symbol_at(self, line: int) -> str:
        """Qualname of the innermost scope containing *line*."""
        best = "<module>"
        best_span = None
        for start, end, qual in self._scopes:
            if start <= line <= end:
                span = end - start
                if best_span is None or span <= best_span:
                    best, best_span = qual, span
        return best

    # ------------------------------------------------------------------
    # Inline directives.
    # ------------------------------------------------------------------
    @cached_property
    def _directives(self) -> tuple[set[str], dict[int, set[str]]]:
        """(file-level disables, per-line disables)."""
        file_disables: set[str] = set()
        line_disables: dict[int, set[str]] = {}
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, IndentationError):
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE_RE.search(tok.string)
            if not match:
                continue
            rules = {
                rule.strip().upper()
                for rule in (match.group("rules") or "").split(",")
                if rule.strip()
            }
            if not rules:
                continue
            if match.group("kind") == "disable-file":
                file_disables |= rules
            else:
                line_disables.setdefault(tok.start[0], set()).update(
                    rules
                )
        self._propagate(line_disables)
        return file_disables, line_disables

    def _propagate(self, table: dict[int, set[str]]) -> None:
        """Attach comment-only directive lines to the next code line."""
        for lineno in sorted(table):
            text = (
                self.lines[lineno - 1]
                if lineno - 1 < len(self.lines)
                else ""
            )
            if not text.lstrip().startswith("#"):
                continue  # trailing comment: already on its code line
            target = lineno + 1
            while (
                target - 1 < len(self.lines)
                and self.lines[target - 1].lstrip().startswith("#")
            ):
                target += 1
            if (
                target - 1 < len(self.lines)
                and self.lines[target - 1].strip()
            ):
                table.setdefault(target, set()).update(table[lineno])

    @cached_property
    def _scoped_disables(self) -> list[tuple[int, int, set[str]]]:
        """Body ranges of defs/classes whose header carries a disable."""
        _, line_disables = self._directives
        ranges: list[tuple[int, int, set[str]]] = []
        if not line_disables:
            return ranges
        for node in ast.walk(self.tree):
            if not isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            header_lines = {node.lineno} | {
                deco.lineno for deco in node.decorator_list
            }
            rules: set[str] = set()
            for header in header_lines:
                rules |= line_disables.get(header, set())
            if rules:
                start = min(header_lines)
                ranges.append(
                    (start, node.end_lineno or node.lineno, rules)
                )
        return ranges

    def suppressed(self, rule: str, line: int) -> bool:
        """True when an inline directive silences *rule* at *line*."""
        file_disables, line_disables = self._directives
        if "ALL" in file_disables or rule in file_disables:
            return True
        at_line = line_disables.get(line)
        if at_line and ("ALL" in at_line or rule in at_line):
            return True
        for start, end, rules in self._scoped_disables:
            if start <= line <= end and (
                "ALL" in rules or rule in rules
            ):
                return True
        return False
