"""Command-line front end for reprolint.

Invoked as ``repro lint`` (via :mod:`repro.cli`, which declares its
subcommand with :func:`add_arguments`) or directly as
``python -m repro.analysis``::

    python -m repro.analysis src/repro            # human output
    python -m repro.analysis src --format json    # machine output
    python -m repro.analysis src --select RL001,RL100
    python -m repro.analysis --list-rules .

Every invocation runs the per-file rules and the whole-program rules in
one pass.

Exit status: 0 when clean, 1 when findings remain, 2 on usage errors
(missing paths, unknown rule codes).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from .engine import LintEngine, format_findings, format_findings_json
from .rules import DEFAULT_GRAPH_RULES, DEFAULT_RULES, all_rule_codes

__all__ = ["add_arguments", "main", "run_lint"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the lint arguments on *parser* (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="+",
        help="files or directories to lint (``*.py`` under directories)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for rule in (*DEFAULT_RULES, *DEFAULT_GRAPH_RULES):
            print(f"{rule.code}  {rule.summary}")
        return 0

    select: frozenset[str] | None = None
    if args.select is not None:
        select = frozenset(
            code.strip() for code in args.select.split(",") if code.strip()
        )
        unknown = select - frozenset(all_rule_codes())
        if unknown:
            print(
                f"error: unknown rule code(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    engine = LintEngine(
        DEFAULT_RULES, select=select, graph_rules=DEFAULT_GRAPH_RULES
    )
    findings = engine.lint_project(args.paths)
    if args.format == "json":
        print(format_findings_json(findings))
    else:
        print(format_findings(findings))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: domain-aware static analysis for the reproduction "
            "(seeded randomness, engine-equivalence tolerance, "
            "deterministic ordering, layering contract, cache coherence)"
        ),
    )
    add_arguments(parser)
    return run_lint(parser.parse_args(argv))
