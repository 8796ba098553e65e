"""Tests for the symbol table and the layering contract (RL100).

Fixtures build throwaway mini-packages on disk (the symbol table derives
module names from the ``__init__.py`` chain, so a ``tmp/repro/web/...``
tree produces real ``repro.web.*`` module names) and run either a single
graph rule over the resulting :class:`ProjectIndex` or every rule
through :func:`~repro.analysis.engine.lint_project`.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.contracts import ArchitectureContractRule, layer_of
from repro.analysis.engine import lint_project
from repro.analysis.symbols import ProjectIndex, module_name_for_path

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_project(root: Path, files: dict[str, str]) -> list[Path]:
    """Write a mini-package tree and return the created file paths."""
    paths = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return paths


def build_index(root: Path, files: dict[str, str]) -> ProjectIndex:
    return ProjectIndex.build(write_project(root, files))


def codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestSymbols:
    def test_module_names_follow_init_chain(self, tmp_path):
        paths = write_project(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/web/__init__.py": "",
                "repro/web/crawler.py": "",
                "loose_script.py": "",
            },
        )
        names = [module_name_for_path(p) for p in paths]
        assert names == ["repro", "repro.web", "repro.web.crawler", "loose_script"]

    def test_import_scopes_classified(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/a.py": """
                    from typing import TYPE_CHECKING

                    from repro import core

                    if TYPE_CHECKING:
                        import json

                    def lazy():
                        import os
                        return os
                """,
            },
        )
        scopes = {r.target: r.scope for r in index.modules["repro.a"].imports}
        assert scopes["repro.core"] == "module"
        assert scopes["json"] == "type-checking"
        assert scopes["os"] == "lazy"

    def test_from_package_import_submodule_canonicalized(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/models.py": "",
                "repro/b.py": "from repro.core import models\n",
            },
        )
        targets = [r.target for r in index.modules["repro.b"].imports]
        assert targets == ["repro.core.models"]


class TestLayerOf:
    @pytest.mark.parametrize(
        ("module", "layer"),
        [
            ("repro.web.crawler", "web"),
            ("repro.core", "core"),
            ("repro.cli", "cli"),
            ("repro", ""),
            ("tests.test_foo", None),
            ("json", None),
        ],
    )
    def test_layers(self, module, layer):
        assert layer_of(module) == layer


class TestArchitectureContract:
    def _findings(self, tmp_path, files):
        index = build_index(tmp_path, files)
        return list(ArchitectureContractRule().check_project(index))

    def test_core_importing_trust_violates(self, tmp_path):
        findings = self._findings(
            tmp_path,
            {
                "repro/__init__.py": "from .core import bad\n",
                "repro/core/__init__.py": "",
                "repro/core/bad.py": "from repro.trust import metric\n",
                "repro/trust/__init__.py": "",
                "repro/trust/metric.py": "",
            },
        )
        assert codes(findings) == ["RL100"]
        assert "layer 'core'" in findings[0].message
        assert findings[0].path.endswith("bad.py")

    def test_allowed_edges_stay_clean(self, tmp_path):
        findings = self._findings(
            tmp_path,
            {
                "repro/__init__.py": "from .web import crawler\n",
                "repro/core/__init__.py": "",
                "repro/core/models.py": "",
                "repro/semweb/__init__.py": "from repro.core import models\n",
                "repro/trust/__init__.py": "from repro.core import models\n",
                "repro/web/__init__.py": "",
                "repro/web/crawler.py": (
                    "from repro.core import models\nfrom repro import semweb\n"
                ),
                "repro/evaluation/__init__.py": (
                    "from repro import core, semweb, trust, web\n"
                ),
            },
        )
        assert findings == []

    def test_lazy_import_across_forbidden_edge_still_flagged(self, tmp_path):
        findings = self._findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/trust/__init__.py": "",
                "repro/trust/metric.py": """
                    def compute():
                        from repro.web import crawler
                        return crawler
                """,
                "repro/web/__init__.py": "",
                "repro/web/crawler.py": "",
            },
        )
        assert codes(findings) == ["RL100"]
        assert "lazily" in findings[0].message

    def test_documented_lazy_core_to_perf_allowed(self, tmp_path):
        findings = self._findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/similarity.py": """
                    def engine():
                        from repro.perf import kernels
                        return kernels
                """,
                "repro/perf/__init__.py": "",
                "repro/perf/kernels.py": "",
            },
        )
        assert findings == []

    def test_module_scope_core_to_perf_flagged(self, tmp_path):
        findings = self._findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/similarity.py": "from repro.perf import kernels\n",
                "repro/perf/__init__.py": "",
                "repro/perf/kernels.py": "",
            },
        )
        assert codes(findings) == ["RL100"]

    def test_declared_core_to_trust_edges_stay_clean(self, tmp_path):
        # The §3.2 pipeline's three declared module edges, at module scope.
        findings = self._findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/neighborhood.py": (
                    "from ..trust.appleseed import Appleseed\n"
                    "from ..trust.graph import TrustGraph\n"
                ),
                "repro/core/recommender.py": "from ..trust.graph import TrustGraph\n",
                "repro/trust/__init__.py": "",
                "repro/trust/appleseed.py": "",
                "repro/trust/graph.py": "",
            },
        )
        assert findings == []

    def test_type_checking_import_always_allowed(self, tmp_path):
        findings = self._findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/models.py": """
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from repro.web import crawler
                """,
                "repro/web/__init__.py": "",
                "repro/web/crawler.py": "",
            },
        )
        assert findings == []


class TestEngineIntegration:
    def test_one_pass_reports_file_and_graph_findings(self, tmp_path):
        files = write_project(
            tmp_path,
            {
                "repro/__init__.py": "from .core import bad\n",
                "repro/core/__init__.py": "",
                "repro/core/bad.py": (
                    "from repro.trust import metric\n\n"
                    "LEVELS = list({metric.LOW, metric.HIGH})\n"
                ),
                "repro/trust/__init__.py": "",
                "repro/trust/metric.py": "",
            },
        )
        found = codes(lint_project([tmp_path]))
        assert "RL100" in found  # graph rule
        assert "RL005" in found  # file rule, same invocation


class TestSelfCheck:
    """The repo must hold itself to every rule, with no baseline."""

    def test_repo_is_clean_under_graph_rules(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        findings = lint_project(["src", "tests", "benchmarks", "examples", "scripts"])
        assert findings == [], "findings:\n" + "\n".join(f.render() for f in findings)
