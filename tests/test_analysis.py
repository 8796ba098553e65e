"""Tests for :mod:`repro.analysis` — the reprolint static-analysis pass.

Each per-file rule gets a positive fixture (a snippet that must trigger
it) and a negative fixture (idiomatic code that must stay clean).
``TestRecord`` replays, from git history, the defect ``docs/ANALYSIS.md``
credits each rule with catching, so a rule that stops catching its own
record fails here.  The whole-program self-check, every rule over
``src tests benchmarks examples`` with no baseline (the gate every push
runs), is in ``test_analysis_graph.py``.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

from repro.analysis import Finding, lint_project, lint_source
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
        codes = tuple(rule.code for rule in (*DEFAULT_RULES, *DEFAULT_GRAPH_RULES))
        assert codes == KEPT_RULES


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


class TestEngineAndOutput:
    def test_findings_sorted_by_location(self):
        source = "import random\na = random.random()\n" + SET_LOOP
        findings = lint_source(source)
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestRecord:
    """Each rule still catches the defect it is credited with.

    The sources are the pre-fix code, taken from git history: ``f1_score``
    and ``_domain_keys`` before commit ``d8c2ed5``, and
    ``PureCFRecommender.invalidate_cache`` before commit ``76e43e2``.
    """

    def test_rl002_f1_score_zero_sum_check(self):
        source = textwrap.dedent(
            """\
            def f1_score(precision: float, recall: float) -> float:
                if precision + recall == 0.0:
                    return 0.0
                return 2.0 * precision * recall / (precision + recall)
            """
        )
        findings = lint_source(source)
        assert [(f.code, f.line) for f in findings] == [("RL002", 2)]

    def test_rl005_domain_keys_union_and_intersection(self):
        source = textwrap.dedent(
            """\
            def _domain_keys(
                left: Mapping[str, float], right: Mapping[str, float], domain: Domain
            ) -> list[str]:
                if domain == "union":
                    return list(left.keys() | right.keys())
                if domain == "intersection":
                    return list(left.keys() & right.keys())
                raise ValueError(f"unknown domain {domain!r}")
            """
        )
        findings = lint_source(source)
        assert [(f.code, f.line) for f in findings] == [("RL005", 5), ("RL005", 7)]

    def test_rl200_purecf_invalidate_cache_without_the_store(self, tmp_path):
        # Replayed on a copy of the real tree, so the real cache registry
        # binds to the real classes and no other rule may fire.
        src = shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
        recommender = src / "repro" / "core" / "recommender.py"
        text = recommender.read_text(encoding="utf-8")
        fix = (
            "        if self.profiles is not None:\n"
            "            self.profiles.invalidate()\n"
        )
        assert text.count(fix) == 1
        reverted = text.replace(fix, "")
        recommender.write_text(reverted, encoding="utf-8")
        line = reverted.splitlines().index("    def invalidate_cache(self) -> None:") + 1

        findings = lint_project([src])

        assert [(f.code, Path(f.path).name, f.line) for f in findings] == [
            ("RL200", "recommender.py", line)
        ]
        assert (
            "invalidates only part of the profile-caches pairing: "
            "ProfileStore.{_cache, _matrix} stay stale"
        ) in findings[0].message
