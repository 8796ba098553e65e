"""The reprolint engine: rule base classes and the one-pass project lint.

Design: a :class:`Rule` is a small object with a stable ``code``
(``RLxxx``) and a ``check`` method that receives a parsed module plus
its path and yields :class:`Finding` objects; a :class:`GraphRule`
receives the :class:`~repro.analysis.symbols.ProjectIndex` of every
linted file instead.  :func:`lint_project` reads and parses each file
once and hands every rule, file and graph alike, the same tree.

Rules are deliberately *domain-aware* rather than general-purpose: each
encodes an invariant of this reproduction (same-seed determinism, the
1e-9 engine-equivalence contract, coherent caches), so the engine keeps
the plumbing minimal and auditable instead of growing a generic plugin
ecosystem.  The tier-1 suite runs it over the whole tree
(``tests/test_analysis_graph.py``), which is how the rules gate a push.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .symbols import ProjectIndex

__all__ = [
    "Finding",
    "GraphRule",
    "Rule",
    "lint_project",
    "lint_source",
]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    column: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message``, one line per finding."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"


class Rule:
    """Base class for reprolint per-file rules.

    Subclasses set ``code`` and implement :meth:`check`.  ``finding`` is
    a convenience that stamps the rule's code onto a location taken from
    an AST node.
    """

    code: str = "RL000"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, path: str, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


class GraphRule:
    """Base class for whole-program (graph) rules.

    Unlike :class:`Rule`, a graph rule runs once per lint invocation over
    the :class:`~repro.analysis.symbols.ProjectIndex` of every linted
    file, so it can see cross-module facts: layering violations and
    stale caches.  Findings still anchor to one ``(path, line)``.
    """

    code: str = "RL100"

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, line: int, column: int, message: str
    ) -> Finding:
        return Finding(
            path=path, line=line, column=column, code=self.code, message=message
        )


def _sorted(findings: Iterable[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.column, f.code))


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text with the default per-file rules."""
    from .rules import DEFAULT_RULES  # rules.py imports this module

    tree = ast.parse(source, filename=path)
    return _sorted(
        finding for rule in DEFAULT_RULES for finding in rule.check(tree, path)
    )


def lint_project(paths: Iterable[str | Path]) -> list[Finding]:
    """Every default rule over every ``*.py`` file under *paths*.

    Each file is read and parsed once; the per-file rules see each tree,
    and the graph rules see a
    :class:`~repro.analysis.symbols.ProjectIndex` built from exactly
    those trees, so file findings and cross-module findings come back
    in one list, sorted by location.
    """
    from .rules import DEFAULT_GRAPH_RULES, DEFAULT_RULES

    files: list[Path] = []
    for path in (Path(p) for p in paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    findings: list[Finding] = []
    trees: list[tuple[Path, ast.Module]] = []
    for file_path in files:
        tree = ast.parse(file_path.read_text(encoding="utf-8"), filename=str(file_path))
        findings.extend(
            finding
            for rule in DEFAULT_RULES
            for finding in rule.check(tree, str(file_path))
        )
        trees.append((file_path, tree))
    project = ProjectIndex.from_trees(trees)
    findings.extend(
        finding for rule in DEFAULT_GRAPH_RULES for finding in rule.check_project(project)
    )
    return _sorted(findings)
