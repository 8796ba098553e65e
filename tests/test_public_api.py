"""Meta-tests of the public API surface.

These keep the package importable as documented: every name exported in
an ``__all__`` must exist, the README quickstart must run, and the
version string must match the package metadata convention.
"""

from __future__ import annotations

import importlib
import importlib.util

import pytest

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
    from pathlib import Path

    from repro.evaluation.registry import EXPERIMENTS

    script = Path(__file__).resolve().parent.parent / "scripts" / "generate_experiments_md.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_md", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert set(generator.SECTIONS) == set(EXPERIMENTS)
