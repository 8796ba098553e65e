#!/usr/bin/env python
"""Compare a regenerated EXPERIMENTS.md with the committed one.

Every prose line, table title, header and note must match exactly, and
every table row cell by cell.  The one exception is the host-dependent
columns each experiment declares in
:data:`repro.evaluation.registry.EXPERIMENTS` (EX8's latencies, EX19's
engine timings and disagreement): their cells may differ.  Tables are
split into cells by their dash rule, so a timing cell that changes width
and re-pads its row still compares equal.

Usage:  python scripts/check_experiments_md.py COMMITTED REGENERATED

Exit status 0 when the documents agree, 1 otherwise (with a diff).
"""

from __future__ import annotations

import difflib
import re
import sys
from pathlib import Path

from repro.evaluation.registry import EXPERIMENTS

SECTION = re.compile(r"^## EX(\d+) ")
FENCE = "```"
IGNORED = "<host>"


def _cells(line: str, widths: list[int]) -> list[str]:
    cells, start = [], 0
    for width in widths:
        cells.append(line[start : start + width].strip())
        start += width + 2
    return cells


def _table_lines(block: list[str], host_columns: tuple[str, ...]) -> list[str]:
    """A rendered :class:`~repro.evaluation.protocol.Table`, one line per row.

    Title, rule and notes stay verbatim; header and body rows become
    ``|``-joined cells with the host-dependent ones masked.
    """
    title, rule, header, dashes, *body = block
    widths = [len(group) for group in dashes.split("  ")]
    headers = _cells(header, widths)
    masked = {i for i, name in enumerate(headers) if name in host_columns}
    lines = [title, rule, " | ".join(headers)]
    for line in body:
        if line.startswith("note: "):
            lines.append(line)
            continue
        cells = _cells(line, widths)
        lines.append(
            " | ".join(IGNORED if i in masked else c for i, c in enumerate(cells))
        )
    return lines


def comparable_lines(text: str) -> list[str]:
    """*text* with every table re-rendered by :func:`_table_lines`."""
    lines = text.splitlines()
    out: list[str] = []
    host_columns: tuple[str, ...] = ()
    i = 0
    while i < len(lines):
        line = lines[i]
        section = SECTION.match(line)
        if section:
            experiment = EXPERIMENTS.get(f"EX{int(section.group(1)):02d}")
            host_columns = experiment.host_columns if experiment else ()
        out.append(line)
        i += 1
        if line == FENCE:
            end = lines.index(FENCE, i)
            out.extend(_table_lines(lines[i:end], host_columns))
            out.append(FENCE)
            i = end + 1
    return out


def compare(committed: str, regenerated: str) -> list[str]:
    """Unified-diff lines between the two documents; empty when they agree."""
    return list(
        difflib.unified_diff(
            comparable_lines(committed),
            comparable_lines(regenerated),
            "committed",
            "regenerated",
            lineterm="",
        )
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_experiments_md.py COMMITTED REGENERATED", file=sys.stderr)
        return 2
    committed, regenerated = (Path(arg).read_text(encoding="utf-8") for arg in argv)
    diff = compare(committed, regenerated)
    if diff:
        print("\n".join(diff))
        print(f"{argv[1]} differs from {argv[0]} outside the host columns")
        return 1
    print(f"{argv[1]} matches {argv[0]} (host columns ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
