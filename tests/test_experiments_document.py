"""EXPERIMENTS.md against its check: the committed document and doctored copies.

``scripts/check_experiments_md.py`` is how CI holds the committed
document to a fresh run of ``scripts/generate_experiments_md.py``.  These
tests feed it copies of the committed file with single cells, notes or
sections changed, re-rendered the way a fresh run would render them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.evaluation.protocol import Table
from repro.evaluation.registry import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENT = REPO_ROOT / "EXPERIMENTS.md"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_script("check_experiments_md")


@pytest.fixture(scope="module")
def committed() -> str:
    return DOCUMENT.read_text(encoding="utf-8")


def _table_span(lines: list[str], heading: str) -> tuple[int, int]:
    """Line range of the table block under the section titled *heading*."""
    start = next(i for i, line in enumerate(lines) if line.startswith(f"## {heading} "))
    first = lines.index("```", start) + 1
    return first, lines.index("```", first)


def _parse(block: list[str]) -> Table:
    title, _, header, dashes, *body = block
    widths = [len(group) for group in dashes.split("  ")]
    table = Table(title=title, headers=check._cells(header, widths))
    for line in body:
        if line.startswith("note: "):
            table.add_note(line[len("note: "):])
        else:
            table.add_row(*check._cells(line, widths))
    return table


def doctor(text: str, heading: str, column: str, row: int, value: str) -> str:
    """*text* with one cell of *heading*'s table set to *value*, re-rendered."""
    lines = text.splitlines()
    first, end = _table_span(lines, heading)
    table = _parse(lines[first:end])
    table.rows[row][table.headers.index(column)] = value
    lines[first:end] = table.render().splitlines()
    return "\n".join(lines) + "\n"


class TestCommittedDocument:
    def test_matches_itself(self, committed):
        assert check.compare(committed, committed) == []

    def test_sections_follow_the_registry(self, committed):
        ids = [
            f"EX{int(match.group(1)):02d}"
            for match in map(check.SECTION.match, committed.splitlines())
            if match
        ]
        assert ids == list(EXPERIMENTS)

    def test_host_columns_name_headers_of_their_tables(self, committed):
        lines = committed.splitlines()
        for experiment_id, experiment in EXPERIMENTS.items():
            if not experiment.host_columns:
                continue
            first, end = _table_span(lines, f"EX{int(experiment_id[2:])}")
            headers = _parse(lines[first:end]).headers
            assert set(experiment.host_columns) <= set(headers), experiment_id

    def test_ex01_table_is_the_experiment_output(self, committed):
        lines = committed.splitlines()
        first, end = _table_span(lines, "EX1")
        assert "\n".join(lines[first:end]) == EXPERIMENTS["EX01"].table().render()

    def test_doctor_round_trips_an_unchanged_cell(self, committed):
        lines = committed.splitlines()
        first, end = _table_span(lines, "EX7")
        cell = _parse(lines[first:end]).rows[0][2]
        assert doctor(committed, "EX7", "pure CF (trust-blind)", 0, cell) == committed


class TestHostColumnsIgnored:
    @pytest.mark.parametrize(
        ("heading", "column", "value"),
        [
            ("EX8", "hybrid ms", "12345.6"),
            ("EX8", "global CF ms", "0.1"),
            ("EX8", "ratio CF/hybrid", "inf"),
            ("EX19", "python ms", "99999.99"),
            ("EX19", "numpy ms", "0.01"),
            ("EX19", "speedup", "1.0x"),
            ("EX19", "max|delta|", "9.9e-10"),
        ],
    )
    def test_changed_timing_cell_passes(self, committed, heading, column, value):
        doctored = doctor(committed, heading, column, 0, value)
        assert doctored != committed
        assert check.compare(committed, doctored) == []

    def test_main_exits_zero(self, committed, tmp_path, capsys):
        regenerated = tmp_path / "regenerated.md"
        regenerated.write_text(doctor(committed, "EX8", "hybrid ms", 1, "999.9"))
        assert check.main([str(DOCUMENT), str(regenerated)]) == 0


class TestOtherChangesFail:
    def test_changed_contamination_cell(self, committed):
        doctored = doctor(committed, "EX7", "pure CF (trust-blind)", 0, "0.100")
        assert check.compare(committed, doctored)

    def test_changed_non_host_cell_of_a_timed_table(self, committed):
        doctored = doctor(committed, "EX8", "agents", 0, "250")
        assert check.compare(committed, doctored)

    def test_changed_note_line(self, committed):
        lines = committed.splitlines()
        first, end = _table_span(lines, "EX7")
        note = next(i for i in range(first, end) if lines[i].startswith("note: "))
        lines[note] += " (edited)"
        assert check.compare(committed, "\n".join(lines) + "\n")

    def test_changed_prose_line(self, committed):
        doctored = committed.replace("**Verdict: reproduced.**", "**Verdict: refuted.**", 1)
        assert doctored != committed
        assert check.compare(committed, doctored)

    def test_dropped_section(self, committed):
        start = committed.index("## EX12 ")
        end = committed.index("## EX13 ")
        assert check.compare(committed, committed[:start] + committed[end:])

    def test_main_exits_one(self, committed, tmp_path, capsys):
        regenerated = tmp_path / "regenerated.md"
        regenerated.write_text(doctor(committed, "EX7", "sybils", 2, "75"))
        assert check.main([str(DOCUMENT), str(regenerated)]) == 1
        assert "outside the host columns" in capsys.readouterr().out
