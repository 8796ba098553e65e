"""Meta-tests of the public API surface.

These keep the package importable as documented: every name exported in
an ``__all__`` must exist, the README quickstart must run, the version
string must match the package metadata convention, and DESIGN.md's module
map must name every module there is and no module there is not.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.core",
    "repro.trust",
    "repro.semweb",
    "repro.web",
    "repro.datasets",
    "repro.evaluation",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} must declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_sorted(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", []))
    assert exported == sorted(exported), f"{name}.__all__ should be sorted"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_readme_quickstart_runs():
    """The exact code block from README.md must work."""
    from repro import SemanticWebRecommender, quickstart_community

    dataset, taxonomy = quickstart_community(seed=7)
    rec = SemanticWebRecommender.from_dataset(dataset, taxonomy)
    agent = sorted(dataset.agents)[0]
    items = rec.recommend(agent, limit=5)
    assert len(items) == 5
    assert all(item.score > 0 for item in items)


def test_quickstart_community_parameters():
    from repro import quickstart_community

    dataset, taxonomy = quickstart_community(seed=3, agents=30, products=50)
    assert len(dataset.agents) == 30
    assert len(dataset.products) == 50
    assert len(taxonomy) > 1


def test_experiment_functions_are_registered_in_cli():
    """Every run_ex* function must be reachable via `repro experiment`."""
    from repro.evaluation import (
        experiments,
        experiments_chaos,
        experiments_ext,
        experiments_perf,
        scenarios,
    )
    from repro.evaluation.registry import EXPERIMENTS

    defined = {
        getattr(module, name)
        for module in (experiments, experiments_chaos, experiments_ext, experiments_perf, scenarios)
        for name in module.__all__
        if name.startswith("run_ex")
    }
    registered = {experiment.run for experiment in EXPERIMENTS.values()}
    assert defined == registered
    assert len(EXPERIMENTS) == len(registered)


def test_every_experiment_has_a_document_section():
    """The EXPERIMENTS.md generator holds one section per registry id, no more."""
    from repro.evaluation.registry import EXPERIMENTS

    script = REPO_ROOT / "scripts" / "generate_experiments_md.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_md", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert set(generator.SECTIONS) == set(EXPERIMENTS)


def _design_module_map() -> set[str]:
    """The module paths DESIGN.md §3 names, relative to ``src/repro``:
    the files of its tree and the first cell of its additional-modules
    table."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## 3.", 1)[1].split("\n## 4.", 1)[0]
    tree, table = section.split("```")[1:3]
    named: set[str] = set()
    packages: list[str] = []
    for line in tree.splitlines():
        if not line.startswith("  "):
            continue  # the fence's info string and the ``src/repro/`` root
        depth = (len(line) - len(line.lstrip())) // 2 - 1
        name = line.split()[0]
        del packages[depth:]
        if name.endswith("/"):
            packages.append(name)
        else:
            named.add("".join(packages) + name)
    for line in table.splitlines():
        cell = line.split("|")[1].split() if line.startswith("| ") else []
        if cell and cell[0].endswith(".py"):
            named.add(cell[0])
    return named


def test_design_module_map_names_every_module():
    source = REPO_ROOT / "src" / "repro"
    files = {path.relative_to(source).as_posix() for path in source.rglob("*.py")}
    modules = {path for path in files if not path.endswith("__init__.py")}
    named = _design_module_map()
    assert sorted(modules - named) == [], "modules missing from DESIGN.md §3"
    assert sorted(named - files) == [], "DESIGN.md §3 names modules that do not exist"
