"""Tests for the effect-inference pass and the cache-coherence rule RL200.

Fixture packages are throwaway mini-trees on disk (module names follow
the ``__init__.py`` chain, so a ``tmp/repro/core/...`` tree produces
real ``repro.core.*`` names — which is exactly what lets the default
cache registry bind to fixture classes).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.effects import (
    DEFAULT_CACHE_REGISTRY,
    CacheCoherenceRule,
    CacheSpec,
    analyze_effects,
)
from repro.analysis.symbols import ProjectIndex

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_project(root: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return paths


def build_index(root: Path, files: dict[str, str]) -> ProjectIndex:
    return ProjectIndex.build(write_project(root, files))


def effects_of(index: ProjectIndex, qualname: str) -> frozenset[str]:
    return analyze_effects(index).effects()[qualname]


# ---------------------------------------------------------------------------
# Direct effect extraction.
# ---------------------------------------------------------------------------


class TestDirectEffects:
    def test_self_attribute_write(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": """
                    class Store:
                        def __init__(self):
                            self._cache = {}

                        def fill(self, key, value):
                            self._cache[key] = value

                        def drop(self):
                            self._cache.clear()

                        def rebind(self):
                            self._cache = {}
                """,
                # A registered cache owner: filling its memo is not an
                # effect, dropping entries or the matrix is.
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/recommender.py": """
                    def build(key):
                        return {key: 1.0}

                    class ProfileStore:
                        def __init__(self):
                            self._cache = {}
                            self._matrix = None

                        def fill(self, k):
                            self._cache[k] = build(k)

                        def drop(self, k):
                            self._cache.pop(k)

                        def reset(self):
                            self._matrix = None
                """,
            },
        )
        store = "repro.core.recommender.ProfileStore"
        assert effects_of(index, f"{store}.fill") == frozenset()
        assert effects_of(index, f"{store}.drop") == {f"mutates:{store}._cache"}
        assert effects_of(index, f"{store}.reset") == {f"mutates:{store}._matrix"}
        assert effects_of(index, "pkg.m.Store.fill") == {
            "mutates:pkg.m.Store._cache"
        }
        assert effects_of(index, "pkg.m.Store.drop") == {
            "mutates:pkg.m.Store._cache"
        }
        assert effects_of(index, "pkg.m.Store.rebind") == {
            "mutates:pkg.m.Store._cache"
        }

    def test_nested_subscript_mutator(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/g.py": """
                    class Graph:
                        def __init__(self):
                            self._succ = {}

                        def remove(self, a, b):
                            self._succ[a].pop(b, None)

                        def deep_set(self, a, b, w):
                            self._succ[a][b] = w
                """,
            },
        )
        assert effects_of(index, "pkg.g.Graph.remove") == {
            "mutates:pkg.g.Graph._succ"
        }
        assert effects_of(index, "pkg.g.Graph.deep_set") == {
            "mutates:pkg.g.Graph._succ"
        }

    def test_typed_parameter_mutation(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": """
                    class Dataset:
                        def __init__(self):
                            self.ratings = {}

                    def ingest(dataset: Dataset, key, value):
                        dataset.ratings[key] = value

                    def ingest_optional(dataset: "Dataset | None", key):
                        if dataset is not None:
                            dataset.ratings[key] = 1
                """,
            },
        )
        atom = "mutates:pkg.m.Dataset.ratings"
        assert effects_of(index, "pkg.m.ingest") == {atom}
        # union / string annotations unwrap to the class
        assert effects_of(index, "pkg.m.ingest_optional") == {atom}

    def test_local_object_mutation_is_not_an_effect(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": """
                    class Box:
                        def __init__(self):
                            self.items = {}

                    def build():
                        box = Box()
                        box.items["k"] = 1
                        return box
                """,
            },
        )
        assert effects_of(index, "pkg.m.build") == frozenset()

    def test_global_effects(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    REGISTRY = {}
                    COUNT = 0

                    def register(key, value):
                        REGISTRY[key] = value

                    def bump():
                        global COUNT
                        COUNT += 1

                    def shadowed():
                        REGISTRY = {}
                        REGISTRY["k"] = 1
                """,
            },
        )
        assert effects_of(index, "m.register") == {"mutates:global"}
        assert effects_of(index, "m.bump") == {"mutates:global"}
        # a locally rebound name is not the module global
        assert effects_of(index, "m.shadowed") == frozenset()

    def test_external_effects(self, tmp_path):
        # Calls into code outside the project carry no effect atom; only
        # writes to caller-visible state do.
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    import random
                    import time

                    LOG = []

                    def draws():
                        return random.random()

                    def clocky():
                        return time.perf_counter()

                    def reads():
                        return open("f").read()

                    def logs(entry):
                        LOG.append(entry)

                    def sorts(items):
                        items.sort()
                        return items
                """,
            },
        )
        for pure in ("m.draws", "m.clocky", "m.reads", "m.sorts"):
            assert effects_of(index, pure) == frozenset()
        assert effects_of(index, "m.logs") == {"mutates:global"}


# ---------------------------------------------------------------------------
# Propagation.
# ---------------------------------------------------------------------------


class TestPropagation:
    def test_effects_flow_through_calls(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    SEEN = set()

                    def _remember(item):
                        SEEN.add(item)

                    def outer(item):
                        return _remember(item)

                    def outermost(item):
                        return outer(item)
                """,
            },
        )
        assert effects_of(index, "m.outer") == {"mutates:global"}
        assert effects_of(index, "m.outermost") == {"mutates:global"}

    def test_partial_workers(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    import functools

                    RESULTS = {}

                    def worker(x):
                        RESULTS[x] = len(x)

                    def via_partial(runner):
                        return runner(functools.partial(worker, "f"))
                """,
            },
        )
        assert effects_of(index, "m.via_partial") == {"mutates:global"}

    def test_constructor_does_not_import_init_effects(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    class Store:
                        def __init__(self):
                            self._cache = {}

                    def fresh():
                        return Store()
                """,
            },
        )
        assert effects_of(index, "m.fresh") == frozenset()

    def test_local_receiver_masks_only_self_mutation(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    LOG = []

                    class Builder:
                        def __init__(self):
                            self.parts = []

                        def add(self, part):
                            self.parts.append(part)
                            LOG.append(part)

                    def assemble():
                        builder = Builder()
                        builder.add("x")
                        return builder

                    def mutate_shared(builder: Builder):
                        builder.add("y")
                """,
            },
        )
        # assemble builds fresh state: the self-mutation is invisible to
        # its callers, the write to the module global is not.
        assert effects_of(index, "m.assemble") == {"mutates:global"}
        # the same method on a *parameter* mutates caller-visible state
        assert effects_of(index, "m.mutate_shared") == {
            "mutates:global",
            "mutates:m.Builder.parts",
        }

    def test_mutual_recursion_converges(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    VISITS = []

                    def even(n):
                        if n == 0:
                            return True
                        VISITS.append(n)
                        return odd(n - 1)

                    def odd(n):
                        if n == 0:
                            return False
                        return even(n - 1)
                """,
            },
        )
        assert effects_of(index, "m.even") == {"mutates:global"}
        assert effects_of(index, "m.odd") == {"mutates:global"}

    def test_nested_function_bodies_count(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    CALLS = []

                    def outer(items):
                        def key(item):
                            CALLS.append(item)
                            return item
                        return sorted(items, key=key)
                """,
            },
        )
        assert effects_of(index, "m.outer") == {"mutates:global"}


# ---------------------------------------------------------------------------
# RL200 — cache coherence.
# ---------------------------------------------------------------------------

_RL200_BASE = {
    "repro/__init__.py": "",
    "repro/core/__init__.py": "",
    "repro/core/models.py": """
        class Dataset:
            def __init__(self):
                self._ratings = {}
                self._ratings_by_agent = {}
                self._raters_by_product = {}

            def add_rating(self, key, value):
                self._ratings[key] = value
                self._ratings_by_agent[key] = value
                self._raters_by_product[key] = value
    """,
    "repro/core/recommender.py": """
        class ProfileStore:
            def __init__(self):
                self._cache = {}
                self._matrix = None

            def invalidate(self):
                self._cache.clear()
                self._matrix = None
    """,
}


class TestCacheCoherenceRule:
    def run(self, tmp_path, files):
        index = build_index(tmp_path, {**_RL200_BASE, **files})
        return list(CacheCoherenceRule().check_project(index))

    def test_backing_mutation_without_invalidate_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/service.py": """
                    from .models import Dataset
                    from .recommender import ProfileStore

                    class Service:
                        def __init__(self, dataset: Dataset, store: ProfileStore):
                            self.dataset = dataset
                            self.store = store

                        def ingest(self, key, value):
                            self.dataset.add_rating(key, value)
                """,
            },
        )
        assert [f.code for f in findings] == ["RL200"]
        assert "ingest" in findings[0].message
        assert "_cache" in findings[0].message

    def test_coherent_ingest_is_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/service.py": """
                    from .models import Dataset
                    from .recommender import ProfileStore

                    class Service:
                        def __init__(self, dataset: Dataset, store: ProfileStore):
                            self.dataset = dataset
                            self.store = store

                        def ingest(self, key, value):
                            self.dataset.add_rating(key, value)
                            self.store.invalidate()
                """,
            },
        )
        assert findings == []

    def test_partial_invalidator_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/service.py": """
                    from .recommender import ProfileStore

                    class Service:
                        def __init__(self, store: ProfileStore):
                            self.store = store

                        def invalidate_cache(self):
                            self.store._matrix = None
                """,
            },
        )
        assert [f.code for f in findings] == ["RL200"]
        assert "part of the profile-caches" in findings[0].message

    def test_dataset_index_left_stale_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/models.py": """
                    class Dataset:
                        def __init__(self):
                            self._ratings = {}
                            self._ratings_by_agent = {}
                            self._raters_by_product = {}

                        def remove_rating(self, key):
                            return self._ratings.pop(key)
                """,
            },
        )
        assert [f.code for f in findings] == ["RL200"]
        assert "remove_rating" in findings[0].message
        assert "[dataset-rating-index]" in findings[0].message

    def test_mutation_without_visible_owner_is_clean(self, tmp_path):
        # Dataset.add_rating itself has no cache owner in scope.
        findings = self.run(tmp_path, {})
        assert findings == []

    def test_custom_registry(self, tmp_path):
        spec = CacheSpec(
            name="toy",
            backing=("pkg.m.Source.data",),
            caches=(("pkg.m.View", ("_snapshot",)),),
            invalidate_hint="View.refresh()",
        )
        index = build_index(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": """
                    class Source:
                        def __init__(self):
                            self.data = {}

                    class View:
                        def __init__(self, source: Source):
                            self.source = source
                            self._snapshot = {}

                        def poke(self, key):
                            self.source.data[key] = 1
                """,
            },
        )
        findings = list(CacheCoherenceRule(registry=(spec,)).check_project(index))
        assert [f.code for f in findings] == ["RL200"]
        assert "poke" in findings[0].message


# ---------------------------------------------------------------------------
# The real repository.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_index() -> ProjectIndex:
    return ProjectIndex.build(sorted((REPO_ROOT / "src").rglob("*.py")))


class TestRepoEffects:
    def test_invalidators_cover_the_profile_pairing(self, repo_index):
        effects = analyze_effects(repo_index).effects()
        spec = next(
            s for s in DEFAULT_CACHE_REGISTRY if s.name == "profile-caches"
        )
        invalidate = effects[
            "repro.core.recommender.PureCFRecommender.invalidate_cache"
        ]
        # the seed bug: taxonomy-mode caches in the shared store survived
        assert spec.cache_atoms("repro.core.recommender.ProfileStore") <= invalidate
        assert (
            spec.cache_atoms("repro.core.recommender.PureCFRecommender")
            <= invalidate
        )

    def test_trust_graph_mutators_maintain_pos_succ(self, repo_index):
        effects = analyze_effects(repo_index).effects()
        for mutator in ("add_edge", "remove_edge", "add_node"):
            atoms = effects[f"repro.trust.graph.TrustGraph.{mutator}"]
            assert "mutates:repro.trust.graph.TrustGraph._pos_succ" in atoms
            assert "mutates:repro.trust.graph.TrustGraph._packed" in atoms

    def test_appleseed_compute_does_not_mutate_the_graph(self, repo_index):
        effects = analyze_effects(repo_index).effects()
        atoms = effects["repro.trust.appleseed.Appleseed.compute"]
        assert not any(
            atom.startswith("mutates:repro.trust.graph.TrustGraph.")
            for atom in atoms
        )

    def test_query_paths_are_pure(self, repo_index):
        # Cache fills are plain stores of a built value, which the
        # memo-fill rule reads as non-effects, so a query mutates nothing
        # a caller can see.
        effects = analyze_effects(repo_index).effects()
        for qualname in (
            "repro.core.recommender.SemanticWebRecommender.recommend",
            "repro.core.similarity.top_similar",
            "repro.trust.appleseed.Appleseed.compute",
        ):
            assert effects[qualname] == frozenset()
