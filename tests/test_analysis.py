"""Tests for :mod:`repro.analysis` — the reprolint static-analysis pass.

Each rule gets a positive fixture (a snippet that must trigger it), a
negative fixture (idiomatic code that must stay clean), and a
suppression fixture (the same violation silenced by
``# reprolint: disable=RLxxx``).  The JSON output schema and the CLI
contract are pinned, and a self-check asserts the reproduction's own
source tree lints clean — the same gate CI enforces.
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
from repro.analysis.rules import DEFAULT_RULES

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes_of(findings: list[Finding]) -> list[str]:
    return [finding.code for finding in findings]


class TestRuleCatalogue:
    def test_at_least_six_rules(self):
        assert len(DEFAULT_RULES) >= 6

    def test_codes_are_unique_and_stable(self):
        codes = all_rule_codes()
        assert len(codes) == len(set(codes))
        assert set(codes) >= {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        }

    def test_every_rule_has_a_summary(self):
        assert all(rule.summary for rule in DEFAULT_RULES)


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


class TestRL003SilentOverbroadExcept:
    def test_bare_except_pass_triggers(self):
        source = "try:\n    fetch()\nexcept:\n    pass\n"
        assert "RL003" in codes_of(lint_source(source))

    def test_except_exception_pass_triggers(self):
        source = "try:\n    fetch()\nexcept Exception:\n    result = None\n"
        assert "RL003" in codes_of(lint_source(source))

    def test_reraise_is_clean(self):
        source = "try:\n    fetch()\nexcept Exception:\n    raise\n"
        assert lint_source(source) == []

    def test_recording_to_report_is_clean(self):
        source = (
            "try:\n    fetch()\nexcept Exception as error:\n"
            "    report.parse_failures.append(str(error))\n"
        )
        assert lint_source(source) == []

    def test_narrow_except_is_clean(self):
        source = "try:\n    fetch()\nexcept ValueError:\n    pass\n"
        assert lint_source(source) == []

    def test_suppression_silences(self):
        source = (
            "try:\n    fetch()\n"
            "except Exception:  # reprolint: disable=RL003\n    pass\n"
        )
        assert lint_source(source) == []


class TestRL004MutableDefaultArg:
    def test_list_default_triggers(self):
        assert "RL004" in codes_of(lint_source("def f(items=[]):\n    pass\n"))

    def test_dict_call_default_triggers(self):
        assert "RL004" in codes_of(lint_source("def f(x=dict()):\n    pass\n"))

    def test_kwonly_set_default_triggers(self):
        assert "RL004" in codes_of(
            lint_source("def f(*, seen=set()):\n    pass\n")
        )

    def test_none_default_is_clean(self):
        assert lint_source("def f(items=None):\n    pass\n") == []

    def test_frozen_default_is_clean(self):
        assert lint_source("def f(items=()):\n    pass\n") == []

    def test_suppression_silences(self):
        source = "def f(items=[]):  # reprolint: disable=RL004\n    pass\n"
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


class TestRL006ScoreLiteralRange:
    def test_out_of_range_trust_literal_triggers(self):
        source = "s = TrustStatement('a', 'b', 1.5)\n"
        assert "RL006" in codes_of(lint_source(source))

    def test_out_of_range_value_keyword_triggers(self):
        source = "r = Rating(agent='a', product='b', value=-2.0)\n"
        assert "RL006" in codes_of(lint_source(source))

    def test_out_of_range_validate_score_triggers(self):
        assert "RL006" in codes_of(lint_source("validate_score(7)\n"))

    def test_in_range_literals_are_clean(self):
        assert lint_source("s = TrustStatement('a', 'b', -1.0)\n") == []
        assert lint_source("r = Rating(agent='a', product='b', value=1.0)\n") == []

    def test_unrelated_calls_are_clean(self):
        assert lint_source("resize(width=1920)\n") == []

    def test_suppression_silences(self):
        source = (
            "s = TrustStatement('a', 'b', 1.5)  # reprolint: disable=RL006\n"
        )
        assert lint_source(source) == []


class TestRL007WallClockDuration:
    def test_time_time_triggers(self):
        source = "start = time.time()\n"
        assert "RL007" in codes_of(lint_source(source))

    def test_elapsed_pattern_triggers_on_each_read(self):
        source = "start = time.time()\nelapsed = time.time() - start\n"
        assert codes_of(lint_source(source)) == ["RL007", "RL007"]

    def test_monotonic_clocks_are_clean(self):
        assert lint_source("t = time.perf_counter()\n") == []
        assert lint_source("t = time.monotonic()\n") == []

    def test_stopwatch_is_clean(self):
        source = (
            "watch = Stopwatch()\n"
            "with watch:\n"
            "    work()\n"
            "print(watch.elapsed_ms)\n"
        )
        assert lint_source(source) == []

    def test_unrelated_time_attribute_is_clean(self):
        assert lint_source("stamp = self.time.time\n") == []

    def test_suppression_silences(self):
        source = "start = time.time()  # reprolint: disable=RL007\n"
        assert lint_source(source) == []


class TestRL008SharedDatasetMutation:
    def test_entry_point_add_call_triggers(self):
        source = "def run_ex99(dataset):\n    dataset.add_agent(x)\n"
        assert "RL008" in codes_of(lint_source(source))

    @pytest.mark.parametrize("method", ["remove_agent", "remove_rating", "remove_trust"])
    def test_entry_point_remove_call_triggers(self, method):
        source = f"def inject_churn(dataset):\n    dataset.{method}(uri, key)\n"
        findings = lint_source(source)
        assert codes_of(findings) == ["RL008"]
        assert "Dataset.copy()" in findings[0].message

    def test_inject_field_update_triggers(self):
        source = (
            "def inject_bad(train_dataset):\n"
            "    train_dataset.agents.update(extra)\n"
        )
        assert "RL008" in codes_of(lint_source(source))

    def test_field_subscript_assignment_triggers(self):
        source = "def run_ex99(dataset):\n    dataset.trust[key] = edge\n"
        assert "RL008" in codes_of(lint_source(source))

    def test_field_delete_triggers(self):
        source = "def run_ex99(dataset):\n    del dataset.ratings[key]\n"
        assert "RL008" in codes_of(lint_source(source))

    def test_annotated_param_triggers(self):
        source = "def run_ex99(ds: Dataset):\n    ds.add_product(p)\n"
        assert "RL008" in codes_of(lint_source(source))

    def test_rebound_copy_is_clean(self):
        source = (
            "def run_ex99(dataset):\n"
            "    dataset = dataset.copy()\n"
            "    dataset.add_agent(x)\n"
        )
        assert lint_source(source) == []

    def test_helper_functions_are_exempt(self):
        source = "def _mint(dataset):\n    dataset.add_agent(x)\n"
        assert lint_source(source) == []

    def test_read_only_access_is_clean(self):
        source = "def run_ex99(dataset):\n    return len(dataset.agents)\n"
        assert lint_source(source) == []

    def test_suppression_silences(self):
        source = (
            "def run_ex99(dataset):\n"
            "    dataset.add_agent(x)  # reprolint: disable=RL008\n"
        )
        assert lint_source(source) == []


class TestRL010BenchSchemaBypass:
    def test_direct_write_text_triggers(self):
        source = 'Path("BENCH_scale.json").write_text(json.dumps(doc))\n'
        findings = lint_source(source, path="benchmarks/bench_new.py")
        assert "RL010" in codes_of(findings)
        assert "write_bench" in findings[0].message

    def test_module_level_output_binding_triggers(self):
        source = (
            'OUTPUT = pathlib.Path(__file__).parent / "BENCH_thing.json"\n'
            "def save(records):\n"
            "    OUTPUT.write_text(json.dumps(records))\n"
        )
        findings = lint_source(source, path="benchmarks/bench_new.py")
        assert "RL010" in codes_of(findings)
        assert "BENCH_thing.json" in findings[0].message

    def test_json_dump_and_open_for_write_trigger(self):
        source = (
            'with open("BENCH_x.json", "w") as fh:\n'
            "    json.dump(doc, fh)\n"
        )
        codes = codes_of(lint_source(source, path="benchmarks/bench_new.py"))
        assert codes.count("RL010") == 1  # the open; dump's subtree has no constant

    def test_reading_a_bench_file_is_clean(self):
        source = (
            'doc = json.loads(Path("BENCH_scale.json").read_text())\n'
            'with open("BENCH_scale.json") as fh:\n'
            "    other = json.load(fh)\n"
        )
        assert lint_source(source, path="scripts/check_thing.py") == []

    def test_non_bench_writers_are_clean(self):
        source = 'Path("results.json").write_text(json.dumps(doc))\n'
        assert lint_source(source, path="benchmarks/bench_new.py") == []

    def test_write_bench_helper_is_clean(self):
        source = 'write_bench(document, "BENCH_scale.json")\n'
        assert lint_source(source, path="src/repro/cli.py") == []

    def test_suppression_silences(self):
        source = (
            'OUTPUT = Path("BENCH_old.json")\n'
            "OUTPUT.write_text(data)  # reprolint: disable=RL010\n"
        )
        assert lint_source(source, path="benchmarks/bench_old.py") == []


class TestSuppressions:
    def test_disable_all_silences_every_code(self):
        source = (
            "def f(items=[], score=random.random()):"
            "  # reprolint: disable-all\n    pass\n"
        )
        assert lint_source(source) == []

    def test_multi_code_suppression(self):
        source = (
            "def f(items=[]):  # reprolint: disable=RL004,RL001\n"
            "    return random.random()\n"
        )
        findings = lint_source(source)
        # RL004 on the def line is silenced; RL001 sits on its own line.
        assert codes_of(findings) == ["RL001"]

    def test_suppression_in_string_literal_is_inert(self):
        source = 'text = "# reprolint: disable=RL004"\ndef f(x=[]):\n    pass\n'
        assert "RL004" in codes_of(lint_source(source))

    def test_suppression_only_applies_to_its_line(self):
        source = (
            "# reprolint: disable=RL004\n"
            "def f(items=[]):\n    pass\n"
        )
        assert "RL004" in codes_of(lint_source(source))


class TestEngineAndOutput:
    def test_select_filters_rules(self):
        source = "def f(items=[]):\n    return random.random()\n"
        findings = lint_source(source, select={"RL004"})
        assert codes_of(findings) == ["RL004"]

    def test_findings_sorted_by_location(self):
        source = (
            "import random\n"
            "a = random.random()\n"
            "def f(items=[]):\n    pass\n"
        )
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
        (tmp_path / "pkg" / "bad.py").write_text(
            "def f(x=[]):\n    pass\n", encoding="utf-8"
        )
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n", encoding="utf-8")
        findings = lint_paths([tmp_path])
        assert codes_of(findings) == ["RL004"]
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
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    pass\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 1
        assert "RL004" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    pass\n", encoding="utf-8")
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
        out = capsys.readouterr().out
        for code in all_rule_codes():
            assert code in out

    def test_repro_cli_wires_lint(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert repro_main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out


class TestSelfCheck:
    """The reproduction's own tree must satisfy its own invariants."""

    @pytest.mark.parametrize("tree", ["src/repro", "tests", "benchmarks"])
    def test_tree_lints_clean(self, tree):
        target = REPO_ROOT / tree
        if not target.exists():
            pytest.skip(f"{tree} not present")
        findings = lint_paths([target])
        assert findings == [], "\n" + format_findings(findings)
