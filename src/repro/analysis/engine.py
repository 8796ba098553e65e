"""The reprolint engine: rules, suppressions, file walking, reports.

Design: a :class:`Rule` is a small object with a stable ``code``
(``RLxxx``), a one-line ``summary``, and a ``check`` method that receives
a parsed module plus a :class:`RuleContext` and yields :class:`Finding`
objects.  The engine owns everything rule-independent:

* discovering ``*.py`` files under the given paths,
* reading, tokenizing and parsing each file once, and handing every
  rule — file and graph alike — the same tree,
* honouring ``# reprolint: disable=RL001[,RL002]`` / ``disable-all``
  suppression comments on the offending line,
* rendering findings as human-readable text or a JSON document.

Rules are deliberately *domain-aware* rather than general-purpose: each
encodes an invariant of this reproduction (same-seed determinism, the
1e-9 engine-equivalence contract, coherent caches), so the engine keeps
the plumbing minimal and auditable instead of growing a generic plugin
ecosystem.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .symbols import ProjectIndex

__all__ = [
    "Finding",
    "GraphRule",
    "LintEngine",
    "Rule",
    "RuleContext",
    "format_findings",
    "format_findings_json",
    "lint_paths",
    "lint_project",
    "lint_source",
]

#: ``# reprolint: disable=RL001,RL002`` or ``# reprolint: disable-all``.
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+)|(?P<all>-all))",
)

#: Shape of one finding in ``--format json`` output (kept in sync with
#: :func:`format_findings_json`; tests assert against this).
JSON_SCHEMA_KEYS = ("path", "line", "column", "code", "message", "summary")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    column: int
    code: str
    message: str
    summary: str = ""

    def render(self) -> str:
        """``path:line:col: CODE message`` — the human output line."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"


@dataclass(frozen=True, slots=True)
class RuleContext:
    """Everything a rule may consult besides the AST itself."""

    path: str


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``code`` and ``summary`` and implement :meth:`check`.
    ``finding`` is a convenience that stamps the rule's code/summary onto
    a location taken from an AST node.
    """

    code: str = "RL000"
    summary: str = ""

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, context: RuleContext, message: str) -> Finding:
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            summary=self.summary,
        )


class GraphRule:
    """Base class for whole-program (graph) rules.

    Unlike :class:`Rule`, a graph rule runs once per lint invocation over
    the :class:`~repro.analysis.symbols.ProjectIndex` of every linted
    file, so it can see cross-module facts: layering violations and
    stale caches.  Findings still anchor to one
    ``(path, line)`` and honour the same ``# reprolint: disable=RLxxx``
    suppressions.
    """

    code: str = "RL100"
    summary: str = ""

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, line: int, column: int, message: str
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            column=column,
            code=self.code,
            message=message,
            summary=self.summary,
        )


def _suppressed_codes(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number → suppressed codes (``None`` = all codes).

    Comments are found with :mod:`tokenize` so string literals containing
    the magic text don't suppress anything.  A suppression applies to the
    physical line it sits on, which is also where multi-line statements
    report their findings (``node.lineno`` is the first line).
    """
    suppressions: dict[int, frozenset[str] | None] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            line = token.start[0]
            if match.group("all") is not None:
                suppressions[line] = None
                continue
            codes = frozenset(
                code.strip()
                for code in (match.group("codes") or "").split(",")
                if code.strip()
            )
            existing = suppressions.get(line, frozenset())
            if existing is None:
                continue  # disable-all already wins on this line
            suppressions[line] = existing | codes
    except tokenize.TokenError:
        # Unparseable token stream: fall through with whatever was found;
        # the caller will surface the SyntaxError from ast.parse instead.
        pass
    return suppressions


def _is_suppressed(
    finding: Finding, suppressions: dict[int, frozenset[str] | None]
) -> bool:
    codes = suppressions.get(finding.line, frozenset())
    if codes is None:
        return True
    return finding.code in codes


class LintEngine:
    """Runs a set of rules over sources, files, and directory trees."""

    def __init__(
        self,
        rules: Sequence[Rule],
        select: Iterable[str] | None = None,
        graph_rules: Sequence[GraphRule] = (),
    ) -> None:
        selected = None if select is None else frozenset(select)
        self.rules: tuple[Rule, ...] = tuple(
            rule
            for rule in rules
            if selected is None or rule.code in selected
        )
        self.graph_rules: tuple[GraphRule, ...] = tuple(
            rule
            for rule in graph_rules
            if selected is None or rule.code in selected
        )

    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one module's source text; honours suppression comments."""
        tree = ast.parse(source, filename=path)
        return self._lint_tree(tree, path, _suppressed_codes(source))

    def _lint_tree(
        self,
        tree: ast.Module,
        path: str,
        suppressions: dict[int, frozenset[str] | None],
    ) -> list[Finding]:
        context = RuleContext(path=path)
        findings = [
            finding
            for rule in self.rules
            for finding in rule.check(tree, context)
            if not _is_suppressed(finding, suppressions)
        ]
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
        return findings

    def lint_file(self, path: str | Path) -> list[Finding]:
        file_path = Path(path)
        return self.lint_source(
            file_path.read_text(encoding="utf-8"), str(file_path)
        )

    @staticmethod
    def discover(paths: Iterable[str | Path]) -> list[Path]:
        """Every ``*.py`` file under *paths* (files or directories)."""
        files: list[Path] = []
        for path in paths:
            target = Path(path)
            if target.is_dir():
                files.extend(sorted(target.rglob("*.py")))
            else:
                files.append(target)
        return files

    def lint_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Run the per-file rules over every ``*.py`` file under *paths*."""
        findings: list[Finding] = []
        for file_path in self.discover(paths):
            findings.extend(self.lint_file(file_path))
        return findings

    def lint_project(self, paths: Iterable[str | Path]) -> list[Finding]:
        """One-pass whole-project lint: per-file rules plus graph rules.

        The graph rules see a :class:`~repro.analysis.symbols.ProjectIndex`
        built from exactly the files the per-file rules visited, so
        ``repro lint src tests`` yields file findings and cross-module
        findings in a single report.  Graph findings honour the same
        per-line suppression comments as file findings.
        """
        findings: list[Finding] = []
        trees: list[tuple[Path, ast.Module]] = []
        suppressions_by_path: dict[str, dict[int, frozenset[str] | None]] = {}
        for file_path in self.discover(paths):
            path = str(file_path)
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=path)
            suppressions = suppressions_by_path[path] = _suppressed_codes(source)
            findings.extend(self._lint_tree(tree, path, suppressions))
            trees.append((file_path, tree))
        if self.graph_rules:
            from .symbols import ProjectIndex

            project = ProjectIndex.from_trees(trees)
            for rule in self.graph_rules:
                for finding in rule.check_project(project):
                    suppressions = suppressions_by_path.get(finding.path, {})
                    if not _is_suppressed(finding, suppressions):
                        findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
        return findings


def _default_engine(select: Iterable[str] | None = None) -> LintEngine:
    from .rules import DEFAULT_GRAPH_RULES, DEFAULT_RULES

    return LintEngine(DEFAULT_RULES, select=select, graph_rules=DEFAULT_GRAPH_RULES)


def lint_source(
    source: str, path: str = "<string>", select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint source text with the default rule set."""
    return _default_engine(select).lint_source(source, path)


def lint_paths(
    paths: Iterable[str | Path], select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint files/directories with the default per-file rule set."""
    return _default_engine(select).lint_paths(paths)


def lint_project(
    paths: Iterable[str | Path], select: Iterable[str] | None = None
) -> list[Finding]:
    """Whole-project lint: per-file rules plus the graph rules."""
    return _default_engine(select).lint_project(paths)


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a tally."""
    lines = [finding.render() for finding in findings]
    if findings:
        by_code: dict[str, int] = {}
        for finding in findings:
            by_code[finding.code] = by_code.get(finding.code, 0) + 1
        tally = ", ".join(
            f"{code}×{count}" for code, count in sorted(by_code.items())
        )
        lines.append(f"reprolint: {len(findings)} finding(s) ({tally})")
    else:
        lines.append("reprolint: clean")
    return "\n".join(lines)


def format_findings_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document: ``{"findings": [...], "count": N}``."""
    payload = {
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "column": f.column,
                "code": f.code,
                "message": f.message,
                "summary": f.summary,
            }
            for f in findings
        ],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
