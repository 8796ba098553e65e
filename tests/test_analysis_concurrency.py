"""Tests for lock-set inference and the check-then-act rule RL301.

Fixture packages are throwaway mini-trees on disk with real ``repro.*``
module names (the ``__init__.py`` chain defines the package path), which
is what lets :data:`DEFAULT_CACHE_REGISTRY` and the ``repro.util.sync``
sanitizer recognition bind to fixture classes.  Each tree carries a stub
``repro/util/sync.py`` so annotations resolve to the sanctioned
primitive qualnames without importing the real package.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.concurrency import CheckThenActRule
from repro.analysis.engine import lint_project
from repro.analysis.rules import all_rule_codes

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_project(root: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return paths


def codes(findings) -> list[str]:
    return [f.code for f in findings]


#: Stub of the sanctioned primitives: enough surface for annotations and
#: method calls to resolve to the ``repro.util.sync.*`` qualnames.
SYNC_STUB = {
    "repro/__init__.py": "",
    "repro/util/__init__.py": "",
    "repro/util/sync.py": """
        class ReentrantGuard:
            def __init__(self, name="guard"):
                self.name = name

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

        class GuardedCache:
            def __init__(self, name="cache", guard=None):
                self.name = name

            def get_or_build(self, key, build):
                return build(key)

            def peek(self, key):
                return None

            def store(self, key, value):
                return None

            def invalidate(self, key=None):
                return None

            def held(self):
                return ReentrantGuard(self.name)

        class AtomicSwap:
            def __init__(self, name="slot", guard=None):
                self.name = name

            def get(self):
                return None

            def get_or_build(self, build):
                return build()

            def swap(self, value):
                return None

            def clear(self):
                return None

            def held(self):
                return ReentrantGuard(self.name)
    """,
}


# ---------------------------------------------------------------------------
# RL301 — check-then-act.
# ---------------------------------------------------------------------------

#: Replica of the seed's lazy-cache shapes: the exact code RL301 was
#: built to catch (aliased ``.get`` probe, ``is None`` lazy field with an
#: interprocedural fill, ``not in`` membership probe).
RL301_SEED_REPLICA = dict(SYNC_STUB) | {
    "repro/core/__init__.py": "",
    "repro/core/recommender.py": """
        class ProfileStore:
            def __init__(self):
                self._cache = {}
                self._matrix = None

            def profile(self, agent):
                cached = self._cache.get(agent)
                if cached is None:
                    cached = len(agent)
                    self._cache[agent] = cached
                return cached

            def matrix(self):
                if self._matrix is None:
                    self._fill()
                return self._matrix

            def _fill(self):
                self._matrix = object()

            def seed(self, agent):
                if agent not in self._cache:
                    self._cache[agent] = 0
    """,
}


class TestCheckThenAct:
    def test_seed_replica_triggers_all_three_shapes(self, tmp_path):
        findings = lint_project(
            write_project(tmp_path, RL301_SEED_REPLICA), select=["RL301"]
        )
        assert codes(findings) == ["RL301", "RL301", "RL301"]
        messages = "\n".join(f.message for f in findings)
        assert "repro.core.recommender.ProfileStore._cache" in messages
        assert "repro.core.recommender.ProfileStore._matrix" in messages
        assert "GuardedCache.get_or_build" in messages

    def test_interprocedural_fill_witness(self, tmp_path):
        findings = lint_project(
            write_project(tmp_path, RL301_SEED_REPLICA), select=["RL301"]
        )
        matrix = [f for f in findings if "._matrix" in f.message]
        assert len(matrix) == 1
        assert (
            "fill via repro.core.recommender.ProfileStore.matrix"
            " -> repro.core.recommender.ProfileStore._fill" in matrix[0].message
        )

    def test_double_checked_locking_is_sanctioned(self, tmp_path):
        files = dict(SYNC_STUB)
        files["repro/core/__init__.py"] = ""
        files["repro/core/recommender.py"] = """
            class ProfileStore:
                def __init__(self):
                    self._lock = object()
                    self._cache = {}

                def profile(self, agent):
                    with self._lock:
                        if agent not in self._cache:
                            self._cache[agent] = len(agent)
                        return self._cache[agent]
        """
        assert lint_project(write_project(tmp_path, files), select=["RL301"]) == []

    def test_converted_fast_path_read_is_clean(self, tmp_path):
        # The post-conversion shape: a lock-free `.get()` probe plus
        # `get_or_build` — `is not None` is not a check-then-act window.
        files = dict(SYNC_STUB)
        files["repro/core/__init__.py"] = ""
        files["repro/core/recommender.py"] = """
            from ..util.sync import AtomicSwap

            class ProfileStore:
                def __init__(self):
                    self._matrix: AtomicSwap = AtomicSwap("m")

                def matrix(self):
                    cached = self._matrix.get()
                    if cached is not None:
                        return cached
                    return self._matrix.get_or_build(object)
        """
        assert lint_project(write_project(tmp_path, files), select=["RL301"]) == []

    def test_suppression(self, tmp_path):
        files = dict(RL301_SEED_REPLICA)
        files["repro/core/recommender.py"] = """
            class ProfileStore:
                def __init__(self):
                    self._matrix = None

                def matrix(self):
                    if self._matrix is None:  # reprolint: disable=RL301
                        self._matrix = object()
                    return self._matrix
        """
        assert lint_project(write_project(tmp_path, files), select=["RL301"]) == []


# ---------------------------------------------------------------------------
# The analysis layer itself.
# ---------------------------------------------------------------------------


class TestLockSetInference:
    """Guard tokens, observed through which check-then-act tests RL301 spares."""

    def test_primitive_token_guards_the_builder(self, tmp_path):
        # get_or_build runs its builder inside the primitive's section, so
        # a fill reached only through it is guarded; a direct call is not.
        files = dict(SYNC_STUB)
        files["repro/core/__init__.py"] = ""
        files["repro/core/recommender.py"] = """
            from ..util.sync import GuardedCache

            class ProfileStore:
                def __init__(self):
                    self._cache: GuardedCache = GuardedCache("c")
                    self._matrix = None

                def guarded(self):
                    if self._matrix is None:
                        self._cache.get_or_build("m", self._fill)
                    return self._matrix

                def unguarded(self):
                    if self._matrix is None:
                        self._fill("m")
                    return self._matrix

                def _fill(self, key):
                    self._matrix = key
        """
        findings = lint_project(write_project(tmp_path, files), select=["RL301"])
        assert codes(findings) == ["RL301"]
        assert "ProfileStore.unguarded -> " in findings[0].message

    def test_held_context_manager_guards_the_block(self, tmp_path):
        files = dict(SYNC_STUB)
        files["repro/core/__init__.py"] = ""
        files["repro/core/recommender.py"] = """
            from ..util.sync import GuardedCache

            class ProfileStore:
                def __init__(self):
                    self._cache: GuardedCache = GuardedCache("c")
                    self._matrix = None

                def compound(self):
                    with self._cache.held():
                        if self._matrix is None:
                            self._matrix = object()
                    return self._matrix
        """
        assert lint_project(write_project(tmp_path, files), select=["RL301"]) == []


class TestPipelineIntegration:
    def test_select_codes_are_registered(self):
        assert "RL301" in all_rule_codes()

    def test_default_rule_instances_carry_the_codes(self):
        assert CheckThenActRule.code == "RL301"


class TestSelfCheck:
    def test_repo_src_is_concurrency_clean(self):
        findings = lint_project([REPO_ROOT / "src"], select=["RL301"])
        assert findings == [], "concurrency findings:\n" + "\n".join(
            f.render() for f in findings
        )
