"""Tests for :mod:`repro.analysis` — the reprolint static-analysis pass.

Each per-file rule gets a positive fixture (a snippet that must trigger
it), a negative fixture (idiomatic code that must stay clean), and a
suppression fixture (the same violation silenced by
``# reprolint: disable=RLxxx``).  The JSON output schema and the CLI
contract are pinned, and a self-check asserts each of the reproduction's
own trees lints clean under every per-file rule.  The whole-program
self-check, every rule over ``src tests benchmarks examples`` with no
baseline (the gate CI enforces), is in ``test_analysis_graph.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintEngine,
    all_rule_codes,
    format_findings,
    format_findings_json,
    lint_paths,
    lint_source,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import JSON_SCHEMA_KEYS
from repro.analysis.rules import DEFAULT_GRAPH_RULES, DEFAULT_RULES

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes_of(findings: list[Finding]) -> list[str]:
    return [finding.code for finding in findings]


#: Every rule the catalogue keeps, in registration order.
KEPT_RULES = ("RL001", "RL002", "RL005", "RL100", "RL200")

#: A file-rule violation: RL005 on the ``for`` line.
SET_LOOP = "for x in set(items):\n    emit(x)\n"


class TestRuleCatalogue:
    def test_at_least_five_rules(self):
        assert len((*DEFAULT_RULES, *DEFAULT_GRAPH_RULES)) >= 5

    def test_codes_are_unique_and_stable(self):
        assert all_rule_codes() == KEPT_RULES

    def test_every_rule_has_a_summary(self):
        assert all(rule.summary for rule in (*DEFAULT_RULES, *DEFAULT_GRAPH_RULES))


class TestRL001UnseededRandom:
    def test_module_level_random_triggers(self):
        findings = lint_source("import random\nx = random.random()\n")
        assert "RL001" in codes_of(findings)

    def test_module_level_shuffle_triggers(self):
        findings = lint_source("import random\nrandom.shuffle(items)\n")
        assert "RL001" in codes_of(findings)

    def test_np_random_triggers(self):
        findings = lint_source("import numpy as np\nx = np.random.rand(3)\n")
        assert "RL001" in codes_of(findings)

    def test_unseeded_generator_construction_triggers(self):
        findings = lint_source("import random\nrng = random.Random()\n")
        assert "RL001" in codes_of(findings)
        findings = lint_source("import numpy as np\nrng = np.random.default_rng()\n")
        assert "RL001" in codes_of(findings)

    def test_seeded_generator_is_clean(self):
        assert lint_source("import random\nrng = random.Random(42)\n") == []
        assert lint_source(
            "import numpy as np\nrng = np.random.default_rng(7)\n"
        ) == []

    def test_instance_methods_are_clean(self):
        source = "rng = get_rng()\nvalue = rng.random()\nrng.shuffle(items)\n"
        assert lint_source(source) == []

    def test_suppression_silences(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=RL001\n"
        )
        assert lint_source(source) == []


class TestRL002FloatEqualityOnScores:
    def test_score_name_vs_float_literal_triggers(self):
        findings = lint_source("ok = similarity == 1.0\n")
        assert codes_of(findings) == ["RL002"]

    def test_not_equal_triggers(self):
        findings = lint_source("bad = trust_value != 0.0\n")
        assert codes_of(findings) == ["RL002"]

    def test_score_function_call_triggers(self):
        findings = lint_source("flag = pearson(a, b) == 0.0\n")
        assert codes_of(findings) == ["RL002"]

    def test_ordering_comparison_is_clean(self):
        assert lint_source("flag = similarity > 0.5\n") == []

    def test_integer_comparison_is_clean(self):
        assert lint_source("flag = rank == 3\n") == []

    def test_non_score_names_are_clean(self):
        assert lint_source("flag = width == 2.0\n") == []

    def test_suppression_silences(self):
        source = "ok = score == 1.0  # reprolint: disable=RL002\n"
        assert lint_source(source) == []


class TestRL005UnsortedSetIteration:
    def test_for_over_set_call_triggers(self):
        source = "for x in set(items):\n    emit(x)\n"
        assert "RL005" in codes_of(lint_source(source))

    def test_list_over_keys_union_triggers(self):
        source = "keys = list(left.keys() | right.keys())\n"
        assert "RL005" in codes_of(lint_source(source))

    def test_comprehension_over_set_literal_triggers(self):
        source = "rows = [f(x) for x in {'a', 'b', 'c'}]\n"
        assert "RL005" in codes_of(lint_source(source))

    def test_join_over_set_triggers(self):
        source = "text = ', '.join({'b', 'a'})\n"
        assert "RL005" in codes_of(lint_source(source))

    def test_sorted_wrapper_is_clean(self):
        assert lint_source("for x in sorted(set(items)):\n    emit(x)\n") == []
        assert lint_source("keys = sorted(left.keys() | right.keys())\n") == []

    def test_order_insensitive_aggregation_is_clean(self):
        assert lint_source("n = len(set(items))\n") == []
        assert lint_source("total = sum(v for v in values)\n") == []

    def test_plain_dict_iteration_is_clean(self):
        # Insertion order is deterministic; only *set* order is hash-seeded.
        assert lint_source("for k in mapping:\n    emit(k)\n") == []

    def test_suppression_silences(self):
        source = (
            "for x in set(items):  # reprolint: disable=RL005\n    emit(x)\n"
        )
        assert lint_source(source) == []


class TestSuppressions:
    def test_disable_all_silences_every_code(self):
        source = (
            "for x in set(random.sample(items, 2)):"
            "  # reprolint: disable-all\n    emit(x)\n"
        )
        assert lint_source(source) == []

    def test_multi_code_suppression(self):
        source = (
            "for x in set(items):  # reprolint: disable=RL005,RL001\n"
            "    emit(random.random())\n"
        )
        findings = lint_source(source)
        # RL005 on the for line is silenced; RL001 sits on its own line.
        assert codes_of(findings) == ["RL001"]

    def test_suppression_in_string_literal_is_inert(self):
        source = 'text = "# reprolint: disable=RL005"\n' + SET_LOOP
        assert "RL005" in codes_of(lint_source(source))

    def test_suppression_only_applies_to_its_line(self):
        source = "# reprolint: disable=RL005\n" + SET_LOOP
        assert "RL005" in codes_of(lint_source(source))


class TestEngineAndOutput:
    def test_select_filters_rules(self):
        source = "for x in set(items):\n    emit(random.random())\n"
        findings = lint_source(source, select={"RL005"})
        assert codes_of(findings) == ["RL005"]

    def test_findings_sorted_by_location(self):
        source = "import random\na = random.random()\n" + SET_LOOP
        findings = lint_source(source)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_json_output_schema(self):
        findings = lint_source("x = random.random()\n", path="snippet.py")
        payload = json.loads(format_findings_json(findings))
        assert set(payload) == {"findings", "count"}
        assert payload["count"] == len(payload["findings"]) == 1
        entry = payload["findings"][0]
        assert set(entry) == set(JSON_SCHEMA_KEYS)
        assert entry["path"] == "snippet.py"
        assert entry["code"] == "RL001"
        assert entry["line"] == 1
        assert isinstance(entry["column"], int)
        assert entry["message"]
        assert entry["summary"]

    def test_human_output_mentions_counts(self):
        findings = lint_source("x = random.random()\n", path="snippet.py")
        text = format_findings(findings)
        assert "snippet.py:1:" in text
        assert "1 finding(s)" in text
        assert format_findings([]) == "reprolint: clean"

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text(SET_LOOP, encoding="utf-8")
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n", encoding="utf-8")
        findings = lint_paths([tmp_path])
        assert codes_of(findings) == ["RL005"]
        assert findings[0].path.endswith("bad.py")

    def test_engine_with_explicit_rules(self):
        engine = LintEngine(DEFAULT_RULES, select={"RL002"})
        assert [r.code for r in engine.rules] == ["RL002"]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(SET_LOOP, encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 1
        assert "RL005" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(SET_LOOP, encoding="utf-8")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_unknown_rule_code_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--select", "RL999"]) == 2
        assert "RL999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules", "unused"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert tuple(line.split()[0] for line in lines) == KEPT_RULES

    def test_repro_cli_wires_lint(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert repro_main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out
        (tmp_path / "bad.py").write_text(
            "import random\n" + SET_LOOP + "x = random.random()\n", encoding="utf-8"
        )
        argv = ["lint", str(tmp_path), "--select", "RL005", "--format", "json"]
        assert repro_main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["RL005"]


class TestSelfCheck:
    """The reproduction's own tree must satisfy its own invariants."""

    @pytest.mark.parametrize("tree", ["src/repro", "tests", "benchmarks"])
    def test_tree_lints_clean(self, tree):
        findings = lint_paths([REPO_ROOT / tree])
        assert findings == [], "\n" + format_findings(findings)
