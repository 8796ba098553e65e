"""Tests for the effect-inference pass and rules RL200–RL203.

Fixture packages are throwaway mini-trees on disk (module names follow
the ``__init__.py`` chain, so a ``tmp/repro/core/...`` tree produces
real ``repro.core.*`` names — which is exactly what lets the default
cache registry and entry-point tables bind to fixture classes).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.effects import (
    DEFAULT_CACHE_REGISTRY,
    EFFECT_TABLE_SCHEMA,
    CacheCoherenceRule,
    CacheSpec,
    LayerPurityRule,
    PurityContractRule,
    SeededRandomnessRule,
    analyze_effects,
    effect_table,
    format_effect_table,
)
from repro.analysis.engine import lint_project
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
            },
        )
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
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    import os
                    import random
                    import time
                    from concurrent.futures import ProcessPoolExecutor

                    def draws():
                        return random.random()

                    def seeded():
                        return random.Random(42)

                    def unseeded():
                        return random.Random()

                    def clocky():
                        return time.perf_counter()

                    def reads():
                        return open("f").read()

                    def harmless():
                        return os.cpu_count()

                    def forks():
                        return ProcessPoolExecutor(2)
                """,
            },
        )
        assert effects_of(index, "m.draws") == {"rng"}
        assert effects_of(index, "m.seeded") == frozenset()
        assert effects_of(index, "m.unseeded") == {"rng"}
        assert effects_of(index, "m.clocky") == {"clock"}
        assert effects_of(index, "m.reads") == {"io"}
        assert effects_of(index, "m.harmless") == frozenset()
        assert effects_of(index, "m.forks") == {"spawns"}


# ---------------------------------------------------------------------------
# Propagation.
# ---------------------------------------------------------------------------


class TestPropagation:
    def test_effects_flow_through_calls(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    import random

                    def _jitter():
                        return random.random()

                    def outer():
                        return _jitter()

                    def outermost():
                        return outer()
                """,
            },
        )
        assert effects_of(index, "m.outer") == {"rng"}
        assert effects_of(index, "m.outermost") == {"rng"}

    def test_partial_and_dispatch_workers(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    import functools

                    def worker(x):
                        return open(x).read()

                    def via_partial(runner):
                        return runner(functools.partial(worker, "f"))

                    def via_map(pool):
                        return pool.map(worker, ["a", "b"])
                """,
            },
        )
        assert "io" in effects_of(index, "m.via_partial")
        via_map = effects_of(index, "m.via_map")
        assert "io" in via_map
        assert "spawns" in via_map

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

    def test_local_receiver_masks_self_mutation_but_not_io(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    class Builder:
                        def __init__(self):
                            self.parts = []

                        def add(self, part):
                            self.parts.append(part)
                            print(part)

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
        # its callers, the io side effect is not.
        assert effects_of(index, "m.assemble") == {"io"}
        # the same method on a *parameter* mutates caller-visible state
        assert effects_of(index, "m.mutate_shared") == {
            "io",
            "mutates:m.Builder.parts",
        }

    def test_mutual_recursion_converges(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    def even(n):
                        if n == 0:
                            return True
                        print(n)
                        return odd(n - 1)

                    def odd(n):
                        if n == 0:
                            return False
                        return even(n - 1)
                """,
            },
        )
        assert effects_of(index, "m.even") == {"io"}
        assert effects_of(index, "m.odd") == {"io"}

    def test_nested_function_bodies_count(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "m.py": """
                    def outer(items):
                        def key(item):
                            return open(item).read()
                        return sorted(items, key=key)
                """,
            },
        )
        assert "io" in effects_of(index, "m.outer")


# ---------------------------------------------------------------------------
# The serialized table.
# ---------------------------------------------------------------------------


class TestEffectTable:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/m.py": """
            import threading
            import time

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def fill(self, key):
                    self._cache[key] = time.perf_counter()

                def locked_fill(self, key, value):
                    with self._lock:
                        self._cache[key] = value

            def pure(x):
                return x + 1
        """,
    }

    def test_golden(self, tmp_path):
        table = effect_table(build_index(tmp_path, self.FILES))
        assert table["schema"] == EFFECT_TABLE_SCHEMA
        assert table["functions"] == {
            # __init__'s own writes are recorded; they simply never
            # propagate into constructors (fresh-object init is not a
            # caller-visible mutation)
            "pkg.m.Store.__init__": {
                "effects": [
                    "mutates:pkg.m.Store._cache",
                    "mutates:pkg.m.Store._lock",
                ],
                "guards": [],
            },
            "pkg.m.Store.fill": {
                "effects": ["clock", "mutates:pkg.m.Store._cache"],
                "guards": [],
            },
            "pkg.m.Store.locked_fill": {
                "effects": ["mutates:pkg.m.Store._cache"],
                "guards": ["guard:pkg.m.Store._lock"],
            },
            "pkg.m.pure": {"effects": [], "guards": []},
        }

    def test_serialization_is_deterministic(self, tmp_path):
        first = format_effect_table(build_index(tmp_path / "a", self.FILES))
        second = format_effect_table(build_index(tmp_path / "b", self.FILES))
        assert first == second
        assert json.loads(first)["schema"] == EFFECT_TABLE_SCHEMA

    def test_cli_effects_file(self, tmp_path):
        write_project(tmp_path / "proj", self.FILES)
        out = tmp_path / "effects.json"
        rc = main([str(tmp_path / "proj"), "--effects", str(out)])
        assert rc == 0
        table = json.loads(out.read_text(encoding="utf-8"))
        assert table["schema"] == EFFECT_TABLE_SCHEMA
        assert "pkg.m.Store.fill" in table["functions"]

    def test_cli_effects_stdout(self, tmp_path, capsys):
        write_project(tmp_path / "proj", self.FILES)
        rc = main([str(tmp_path / "proj"), "--effects", "-"])
        assert rc == 0
        payload = capsys.readouterr().out
        # the lint report follows the table on stdout
        table_text = payload[: payload.rfind("}") + 1]
        assert json.loads(table_text)["schema"] == EFFECT_TABLE_SCHEMA


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

    def test_suppression_comment_honored(self, tmp_path):
        paths = write_project(
            tmp_path,
            {
                **_RL200_BASE,
                "repro/core/service.py": """
                    from .models import Dataset
                    from .recommender import ProfileStore

                    class Service:
                        def __init__(self, dataset: Dataset, store: ProfileStore):
                            self.dataset = dataset
                            self.store = store

                        def ingest(self, key, value):  # reprolint: disable=RL200
                            self.dataset.add_rating(key, value)
                """,
            },
        )
        findings = lint_project(paths, select=["RL200"])
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
# RL201 — purity contract.
# ---------------------------------------------------------------------------


class TestPurityContractRule:
    def run(self, tmp_path, files):
        index = build_index(tmp_path, {**_RL200_BASE, **files})
        return list(PurityContractRule().check_project(index))

    def test_mutating_entry_point_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/similarity.py": """
                    from .models import Dataset

                    def top_similar(dataset: Dataset, agent):
                        dataset.ratings[agent] = 1
                        return []
                """,
            },
        )
        assert [f.code for f in findings] == ["RL201"]
        assert "top_similar" in findings[0].message
        assert "Dataset.ratings" in findings[0].message

    def test_declared_cache_fill_is_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/similarity.py": """
                    from .recommender import ProfileStore

                    def top_similar(store: ProfileStore, agent):
                        store._cache[agent] = ()
                        return []
                """,
            },
        )
        assert findings == []

    def test_non_entry_point_not_covered(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/similarity.py": """
                    from .models import Dataset

                    def helper(dataset: Dataset, agent):
                        dataset.ratings[agent] = 1
                """,
            },
        )
        assert findings == []

    def test_obs_instrumentation_allowlisted(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/obs/__init__.py": "",
                "repro/obs/metrics.py": """
                    class Counter:
                        def __init__(self):
                            self.value = 0

                        def inc(self):
                            self.value += 1

                    COUNTER = Counter()

                    def bump():
                        COUNTER.inc()
                """,
                "repro/core/similarity.py": """
                    from ..obs.metrics import bump

                    def top_similar(profiles, agent):
                        bump()
                        return []
                """,
            },
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL202 — interprocedural seeded randomness.
# ---------------------------------------------------------------------------


class TestSeededRandomnessRule:
    def run(self, tmp_path, files):
        index = build_index(
            tmp_path, {"repro/__init__.py": "", "repro/core/__init__.py": "", **files}
        )
        return list(SeededRandomnessRule().check_project(index))

    def test_hidden_rng_behind_helper_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/similarity.py": """
                    import random

                    def _tie_break():
                        return random.random()

                    def top_similar(profiles, agent):
                        return sorted(profiles, key=lambda _: _tie_break())
                """,
            },
        )
        assert [f.code for f in findings] == ["RL202"]
        # the witness path names the helper that actually draws
        assert "_tie_break" in findings[0].message

    def test_injected_generator_is_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/similarity.py": """
                    def top_similar(profiles, agent, rng):
                        return sorted(profiles, key=lambda _: rng.random())
                """,
            },
        )
        assert findings == []

    def test_experiment_entry_points_covered(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/evaluation/__init__.py": "",
                "repro/evaluation/experiments.py": """
                    import random

                    def run_ex99():
                        return random.random()
                """,
            },
        )
        assert [f.code for f in findings] == ["RL202"]


# ---------------------------------------------------------------------------
# RL203 — layer purity.
# ---------------------------------------------------------------------------


class TestLayerPurityRule:
    def run(self, tmp_path, files):
        index = build_index(
            tmp_path, {"repro/__init__.py": "", "repro/core/__init__.py": "", **files}
        )
        return list(LayerPurityRule().check_project(index))

    def test_clock_in_core_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/engine.py": """
                    import time

                    def timed(func):
                        start = time.perf_counter()
                        func()
                        return time.perf_counter() - start
                """,
            },
        )
        assert [f.code for f in findings] == ["RL203"]
        assert "'clock'" in findings[0].message
        assert "Stopwatch" in findings[0].message

    def test_io_in_core_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/loader.py": """
                    def load(path):
                        return open(path).read()
                """,
            },
        )
        assert [f.code for f in findings] == ["RL203"]

    def test_only_the_introducer_is_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/core/loader.py": """
                    def load(path):
                        return open(path).read()

                    def load_all(paths):
                        return [load(p) for p in paths]
                """,
            },
        )
        assert len(findings) == 1
        assert "load " in findings[0].message or "loader.load " in findings[0].message

    def test_obs_stopwatch_allowlisted(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/obs/__init__.py": "",
                "repro/obs/stopwatch.py": """
                    import time

                    class Stopwatch:
                        def elapsed(self):
                            return time.perf_counter()
                """,
                "repro/core/engine.py": """
                    from ..obs.stopwatch import Stopwatch

                    def timed(stopwatch: Stopwatch):
                        return stopwatch.elapsed()
                """,
            },
        )
        assert [f.code for f in findings] == []

    def test_outside_layers_not_covered(self, tmp_path):
        findings = self.run(
            tmp_path,
            {
                "repro/datasets/__init__.py": "",
                "repro/datasets/loader.py": """
                    def load(path):
                        return open(path).read()
                """,
            },
        )
        assert findings == []


# ---------------------------------------------------------------------------
# The real repository.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_index() -> ProjectIndex:
    return ProjectIndex.build(sorted((REPO_ROOT / "src").rglob("*.py")))


class TestRepoEffects:
    def test_table_is_deterministic(self, repo_index):
        again = ProjectIndex.build(sorted((REPO_ROOT / "src").rglob("*.py")))
        assert format_effect_table(repo_index) == format_effect_table(again)

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

    def test_query_paths_carry_no_rng(self, repo_index):
        effects = analyze_effects(repo_index).effects()
        for qualname in (
            "repro.core.recommender.SemanticWebRecommender.recommend",
            "repro.core.similarity.top_similar",
            "repro.trust.appleseed.Appleseed.compute",
        ):
            assert "rng" not in effects[qualname]
