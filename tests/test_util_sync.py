"""Tests for the sanctioned concurrency primitives (``repro.util.sync``).

Two layers:

* unit tests pin the single-threaded contract — builders run exactly
  when the bare-dict code they replace ran them, pickling drops OS locks
  but keeps data and guard sharing;
* ``@pytest.mark.concurrency`` stress tests drive the real seed bugs:
  N reader threads racing an invalidating writer against
  :class:`ProfileStore` (whose seed ``matrix()`` could return ``None``
  mid-invalidation) and :class:`TrustGraph` (whose seed
  ``positive_successors`` handed out a live dict that edge mutation
  resized under iterating readers).  Results must stay byte-identical
  to a serial run — the writers only re-state identical data.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import ProfileStore
from repro.perf.trustmatrix import TrustMatrix
from repro.trust.engine import pack_graph
from repro.trust.graph import TrustGraph
from repro.util.sync import AtomicSwap, GuardedCache, ReentrantGuard

# ---------------------------------------------------------------------------
# ReentrantGuard
# ---------------------------------------------------------------------------


class TestReentrantGuard:
    def test_context_manager_returns_self(self):
        guard = ReentrantGuard("g")
        with guard as held:
            assert held is guard

    def test_reentrant(self):
        guard = ReentrantGuard()
        with guard:
            with guard:  # must not deadlock
                pass

    def test_repr_names_the_guard(self):
        assert "profile-store" in repr(ReentrantGuard("profile-store"))

    def test_pickle_rehydrates_a_fresh_lock(self):
        guard = ReentrantGuard("g")
        with guard:  # pickling while held must not ship a held lock
            clone = pickle.loads(pickle.dumps(guard))
        assert clone.name == "g"
        with clone:  # fresh, unheld, usable
            pass


# ---------------------------------------------------------------------------
# GuardedCache
# ---------------------------------------------------------------------------


class TestGuardedCache:
    def test_get_or_build_builds_once_per_key(self):
        calls: list[str] = []
        cache: GuardedCache[str, str] = GuardedCache()

        def build(key: str) -> str:
            calls.append(key)
            return key.upper()

        assert cache.get_or_build("a", build) == "A"
        assert cache.get_or_build("a", build) == "A"
        assert cache.get_or_build("b", build) == "B"
        assert calls == ["a", "b"]

    def test_falsy_values_are_cached(self):
        calls: list[str] = []
        cache: GuardedCache[str, dict] = GuardedCache()

        def build(key: str) -> dict:
            calls.append(key)
            return {}

        assert cache.get_or_build("x", build) == {}
        assert cache.get_or_build("x", build) == {}
        assert calls == ["x"]

    def test_invalidate_one_key_opens_a_new_epoch(self):
        cache: GuardedCache[str, int] = GuardedCache()
        cache.store("a", 1)
        cache.store("b", 2)
        cache.invalidate("a")
        assert cache.peek("a") is None
        assert cache.peek("b") == 2
        assert cache.get_or_build("a", lambda _k: 10) == 10

    def test_invalidate_all(self):
        cache: GuardedCache[str, int] = GuardedCache()
        cache.store("a", 1)
        cache.store("b", 2)
        cache.invalidate()
        assert len(cache) == 0
        assert "a" not in cache

    def test_snapshot_is_a_copy(self):
        cache: GuardedCache[str, int] = GuardedCache()
        cache.store("a", 1)
        snap = cache.snapshot()
        snap["b"] = 2
        assert "b" not in cache

    def test_reentrant_sibling_fill_through_shared_guard(self):
        guard = ReentrantGuard("shared")
        outer: GuardedCache[str, int] = GuardedCache("outer", guard=guard)
        inner: GuardedCache[str, int] = GuardedCache("inner", guard=guard)

        def build_outer(key: str) -> int:
            # Builder calls back into the sibling cache while the shared
            # guard is held — the ProfileStore.matrix()-via-profile() shape.
            return inner.get_or_build(key, lambda k: len(k)) + 1

        assert outer.get_or_build("abc", build_outer) == 4
        assert inner.peek("abc") == 3

    def test_pickle_keeps_data_and_guard_sharing(self):
        guard = ReentrantGuard("shared")
        left: GuardedCache[str, int] = GuardedCache("left", guard=guard)
        right: GuardedCache[str, int] = GuardedCache("right", guard=guard)
        left.store("k", 1)
        left2, right2 = pickle.loads(pickle.dumps((left, right)))
        assert left2.peek("k") == 1
        assert left2.held() is right2.held()  # sibling tie survives the trip


# ---------------------------------------------------------------------------
# AtomicSwap
# ---------------------------------------------------------------------------


class TestAtomicSwap:
    def test_starts_empty(self):
        assert AtomicSwap[int]().get() is None

    def test_get_or_build_builds_once(self):
        calls: list[int] = []
        slot: AtomicSwap[int] = AtomicSwap()

        def build() -> int:
            calls.append(1)
            return 7

        assert slot.get_or_build(build) == 7
        assert slot.get_or_build(build) == 7
        assert calls == [1]

    def test_swap_returns_previous(self):
        slot: AtomicSwap[int] = AtomicSwap()
        assert slot.swap(1) is None
        assert slot.swap(2) == 1
        assert slot.get() == 2

    def test_clear_empties_the_slot(self):
        slot: AtomicSwap[int] = AtomicSwap()
        slot.swap(5)
        assert slot.clear() == 5
        assert slot.get() is None

    def test_pickle_keeps_value(self):
        slot: AtomicSwap[int] = AtomicSwap("s")
        slot.swap(3)
        clone = pickle.loads(pickle.dumps(slot))
        assert clone.get() == 3
        assert clone.name == "s"


# ---------------------------------------------------------------------------
# Multi-threaded stress — N readers vs. an invalidating writer.
# ---------------------------------------------------------------------------

READERS = 4
ITERATIONS = 400


@pytest.mark.concurrency
class TestConcurrencyStress:
    def test_guarded_cache_racing_readers_build_once(self):
        calls: list[str] = []
        lock = threading.Lock()
        cache: GuardedCache[str, str] = GuardedCache()

        def build(key: str) -> str:
            with lock:
                calls.append(key)
            return key * 2

        keys = [f"k{i}" for i in range(8)]

        def reader(_: int) -> bool:
            return all(
                cache.get_or_build(key, build) == key * 2
                for _ in range(ITERATIONS)
                for key in keys
            )

        with ThreadPoolExecutor(max_workers=READERS) as pool:
            assert all(pool.map(reader, range(READERS)))
        assert sorted(calls) == sorted(keys)  # exactly one build per key

    def test_profile_store_matrix_with_invalidating_writer(
        self, tiny_dataset, figure1
    ):
        """Seed regression: ``matrix()`` returned ``None`` mid-invalidation.

        The writer only re-states the same ratings (invalidate, no data
        change), so every read must be byte-identical to the serial run.
        """
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        serial = store.matrix()
        expected_ids = list(serial.ids)
        expected_dense = serial.dense.copy()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                store.invalidate()

        def reader(_: int) -> bool:
            for _ in range(ITERATIONS):
                matrix = store.matrix()
                if matrix is None:
                    return False
                if matrix.ids != expected_ids:
                    return False
                if not np.array_equal(matrix.dense, expected_dense):
                    return False
            return True

        with ThreadPoolExecutor(max_workers=READERS + 1) as pool:
            writer_future = pool.submit(writer)
            results = list(pool.map(reader, range(READERS)))
            stop.set()
            writer_future.result()
        assert all(results)

    def test_trust_graph_positive_successors_with_edge_writer(self):
        """Seed regression: readers iterated a live dict the writer resized.

        The writer toggles one edge (retract, re-state the identical
        weight), so every snapshot a reader sees is one of the two valid
        serial states — and iteration must never blow up.
        """
        graph = TrustGraph.from_edges(
            [("a", "b", 0.9), ("a", "c", 0.8), ("b", "c", 0.7)]
        )
        full = {"b": 0.9, "c": 0.8}
        toggled = {"c": 0.8}
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                graph.remove_edge("a", "b")
                graph.add_edge("a", "b", 0.9)

        def reader(_: int) -> bool:
            for _ in range(ITERATIONS):
                snapshot = dict(graph.positive_successors("a"))
                if snapshot not in (full, toggled):
                    return False
                levels = graph.bfs_levels("b")
                if levels != {"b": 0, "c": 1}:
                    return False
            return True

        with ThreadPoolExecutor(max_workers=READERS + 1) as pool:
            writer_future = pool.submit(writer)
            results = list(pool.map(reader, range(READERS)))
            stop.set()
            writer_future.result()
        assert all(results)

    def test_trust_graph_packed_matrix_with_edge_writer(self):
        """Readers share the graph's cached pack while a writer toggles an
        edge; every pack they get holds one of the two serial edge sets,
        and once the writer stops the cached pack is a fresh one."""
        graph = TrustGraph.from_edges(
            [("a", "b", 0.9), ("a", "c", 0.8), ("b", "c", 0.7)]
        )
        full = {("a", "b", 0.9), ("a", "c", 0.8), ("b", "c", 0.7)}
        toggled = full - {("a", "b", 0.9)}
        stop = threading.Event()

        def edges(matrix: TrustMatrix) -> set[tuple[str, str, float]]:
            return {
                (matrix.ids[s], matrix.ids[t], w)
                for s, t, w in zip(
                    matrix.edge_src.tolist(),
                    matrix.indices.tolist(),
                    matrix.weights.tolist(),
                )
            }

        def writer() -> None:
            while not stop.is_set():
                graph.remove_edge("a", "b")
                graph.add_edge("a", "b", 0.9)

        def reader(_: int) -> bool:
            return all(
                edges(pack_graph(graph)) in (full, toggled) for _ in range(ITERATIONS)
            )

        with ThreadPoolExecutor(max_workers=READERS + 1) as pool:
            writer_future = pool.submit(writer)
            results = list(pool.map(reader, range(READERS)))
            stop.set()
            writer_future.result()
        assert all(results)
        packed, fresh = pack_graph(graph), TrustMatrix.from_graph(graph)
        assert packed.ids == fresh.ids
        assert np.array_equal(packed.indptr, fresh.indptr)
        assert np.array_equal(packed.indices, fresh.indices)
        assert np.array_equal(packed.weights, fresh.weights)
