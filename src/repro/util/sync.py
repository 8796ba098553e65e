"""Sanctioned primitives for sharing mutable caches across threads.

The ROADMAP's query-serving daemon keeps :class:`ProfileStore` packed
matrices and trust neighborhoods warm while serving batched concurrent
queries, which means every shared cache must survive N readers racing an
invalidating writer.  Rather than sprinkling ``threading`` calls through
domain code, the repository blesses exactly three primitives — and the
RL301 check-then-act analysis (:mod:`repro.analysis.concurrency`)
treats them as sanitizers:

:class:`GuardedCache`
    a keyed cache whose :meth:`~GuardedCache.get_or_build` is atomic
    (one build per key per invalidation epoch), so the check-then-act
    window of ``if key not in cache: cache[key] = build()`` cannot open;
:class:`AtomicSwap`
    a single slot published by *replacement* — derive a complete new
    value, then swap the reference; readers keep whatever snapshot they
    dereferenced.  This is the contract for packed-matrix lazy fields,
    which are rebuilt and swapped, never mutated in place;
:class:`ReentrantGuard`
    a named re-entrant lock for compound critical sections spanning
    several caches (e.g. dropping a profile dict and its packed matrix
    in one atomic step).

Single-threaded behavior is identical to the bare-dict code these
replace: builders run exactly when the bare code ran them, in the same
order, with the same inputs, so the 1e-9 oracles never move.  Values
must be treated as immutable once published — that is what makes the
lock-free read fast paths exact under CPython's atomic dict/attribute
loads.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Generic, TypeVar

__all__ = ["AtomicSwap", "GuardedCache", "ReentrantGuard"]

K = TypeVar("K")
V = TypeVar("V")

#: Sentinel distinguishing "absent" from a legitimately falsy value.
_MISSING: object = object()


class ReentrantGuard:
    """A named re-entrant lock; ``with guard:`` marks a critical section.

    The RL30x lock-set inference treats an acquired ``ReentrantGuard``
    (or the implicit guard of the cache primitives below) as protecting
    every shared-state access in its body.  Re-entrancy matters: cache
    builders routinely call back into sibling caches sharing one guard
    (``ProfileStore.matrix`` builds through ``ProfileStore.profile``).
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str = "guard") -> None:
        self.name = name
        self._lock = threading.RLock()

    def __enter__(self) -> "ReentrantGuard":
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()

    # OS locks don't cross process boundaries: a pickled guard (objects
    # holding these primitives ride to ProcessPool workers) rehydrates
    # with a fresh, unheld lock.  Pickle's memo keeps guard *sharing*
    # intact, so sibling caches tied to one guard stay tied in the child.
    def __getstate__(self) -> str:
        return self.name

    def __setstate__(self, state: str) -> None:
        self.name = state
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        return f"ReentrantGuard({self.name!r})"


class GuardedCache(Generic[K, V]):
    """A keyed cache with atomic get-or-build and guarded invalidation.

    :meth:`get_or_build` is the only fill path: the builder runs under
    the guard, at most once per key per invalidation epoch.  Reads are
    lock-free on the hot path (CPython dict loads are atomic); the
    double-check under the guard makes the slow path exact.  Readers may
    hold a value across an invalidation — per-call snapshot consistency,
    the same contract the bare dicts had single-threaded.

    Pass a shared :class:`ReentrantGuard` to tie several caches into one
    critical section; :meth:`held` exposes the guard for compound
    operations (``with cache.held(): ...``).
    """

    __slots__ = ("name", "_guard", "_data")

    def __init__(
        self, name: str = "cache", guard: ReentrantGuard | None = None
    ) -> None:
        self.name = name
        self._guard = guard if guard is not None else ReentrantGuard(f"{name}.guard")
        self._data: dict[K, V] = {}

    def get_or_build(self, key: K, build: Callable[[K], V]) -> V:
        """The cached value for *key*, building it under the guard if absent.

        *build* receives the key; it runs while the guard is held, so it
        must not block on io and must not try to acquire an
        unrelated lock.  Re-entrant sibling fills through a shared guard
        are fine.
        """
        value = self._data.get(key, _MISSING)  # lock-free fast path
        if value is not _MISSING:
            return value  # type: ignore[return-value]
        with self._guard:
            try:
                return self._data[key]
            except KeyError:
                built = build(key)
                self._data[key] = built
                return built

    def peek(self, key: K) -> V | None:
        """The cached value for *key* without building (``None`` if absent)."""
        return self._data.get(key)

    def store(self, key: K, value: V) -> None:
        """Unconditionally publish *value* for *key* under the guard."""
        with self._guard:
            self._data[key] = value

    def invalidate(self, key: K | None = None) -> None:
        """Drop one entry (or all entries when *key* is ``None``)."""
        with self._guard:
            if key is None:
                self._data.clear()
            else:
                self._data.pop(key, None)

    def snapshot(self) -> dict[K, V]:
        """A point-in-time copy of the cache contents."""
        with self._guard:
            return dict(self._data)

    def held(self) -> ReentrantGuard:
        """The cache's guard, for compound multi-cache critical sections."""
        return self._guard

    def __getstate__(self) -> tuple[str, ReentrantGuard, dict[K, V]]:
        return (self.name, self._guard, self._data)

    def __setstate__(self, state: tuple[str, ReentrantGuard, dict[K, V]]) -> None:
        self.name, self._guard, self._data = state

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        return f"GuardedCache({self.name!r}, entries={len(self._data)})"


class AtomicSwap(Generic[V]):
    """A single shared slot published by replacement, never mutated.

    The packed-matrix contract: derive a complete new value, then swap
    the reference.  :meth:`get` never blocks (CPython attribute loads
    are atomic); :meth:`get_or_build` is the lazy-field pattern
    (``if self._x is None: self._x = build()``) made atomic.  The held
    value itself must be immutable — rebuild and :meth:`swap`, never
    mutate in place.
    """

    __slots__ = ("name", "_guard", "_value")

    def __init__(
        self, name: str = "slot", guard: ReentrantGuard | None = None
    ) -> None:
        self.name = name
        self._guard = guard if guard is not None else ReentrantGuard(f"{name}.guard")
        self._value: V | None = None

    def get(self) -> V | None:
        """The current value (``None`` when empty); never blocks."""
        return self._value

    def get_or_build(self, build: Callable[[], V]) -> V:
        """The current value, building and publishing it if empty.

        *build* runs under the guard, at most once per invalidation
        epoch; the same io/lock discipline as
        :meth:`GuardedCache.get_or_build` applies.
        """
        value = self._value
        if value is not None:
            return value
        with self._guard:
            current = self._value
            if current is None:
                current = build()
                self._value = current
            return current

    def swap(self, value: V | None) -> V | None:
        """Publish *value*, returning the previous one."""
        with self._guard:
            previous, self._value = self._value, value
            return previous

    def clear(self) -> V | None:
        """Empty the slot (equivalent to ``swap(None)``)."""
        return self.swap(None)

    def held(self) -> ReentrantGuard:
        """The slot's guard, for compound critical sections."""
        return self._guard

    def __getstate__(self) -> tuple[str, ReentrantGuard, "V | None"]:
        return (self.name, self._guard, self._value)

    def __setstate__(self, state: tuple[str, ReentrantGuard, "V | None"]) -> None:
        self.name, self._guard, self._value = state

    def __repr__(self) -> str:
        state = "empty" if self._value is None else "set"
        return f"AtomicSwap({self.name!r}, {state})"
