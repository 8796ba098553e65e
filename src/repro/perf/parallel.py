"""Deterministic multi-core fan-out for experiment sweeps.

The experiment suite (EX05/EX06/EX08 style) is embarrassingly parallel
over principals: each agent's profile build or evaluation is independent
of every other's.  :class:`ParallelExperimentRunner` fans such work out
over a :class:`~concurrent.futures.ProcessPoolExecutor` while keeping
the results *byte-identical* to a serial run:

* results are merged in **submission order**, never completion order, so
  aggregation sees the exact sequence a serial loop would produce;
* per-item seeds are derived from ``(base seed, item index)`` via string
  seeding (stable across processes and ``PYTHONHASHSEED``), so random
  draws do not depend on which worker handles an item;
* the serial fallback runs the same function in the same order, so
  ``mode="serial"`` vs ``mode="process"`` is a pure scheduling choice.

Workers are started with ``spawn`` and receive their tasks by pickling,
so task functions must be module-level callables and task payloads
picklable — true for all of :mod:`repro.core` (plain dataclasses over
dicts).
"""

from __future__ import annotations

import multiprocessing
import os
import random
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

from ..obs import get_metrics, get_tracer

__all__ = ["ParallelExperimentRunner", "derive_seed", "split_evenly"]

Item = TypeVar("Item")
Result = TypeVar("Result")


def derive_seed(seed: int, index: int) -> int:
    """A per-item seed that is stable across processes and worker counts.

    String seeding keeps this independent of ``PYTHONHASHSEED`` (the same
    trick :class:`repro.core.recommender.RandomRecommender` uses).
    """
    return random.Random(f"{seed}:{index}").getrandbits(63)


def split_evenly(items: Sequence[Item], parts: int) -> list[list[Item]]:
    """Split *items* into at most *parts* contiguous, near-equal chunks.

    Contiguity is what keeps chunked parallel runs order-identical to
    serial ones: concatenating the chunk results in chunk order restores
    the original item order regardless of how many workers ran.
    """
    parts = max(1, min(parts, len(items)) if items else 1)
    base, extra = divmod(len(items), parts)
    chunks: list[list[Item]] = []
    start = 0
    for part in range(parts):
        size = base + (1 if part < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return [chunk for chunk in chunks if chunk]


def _call_with_seed(
    func: Callable[[Item, int], Result], pair: tuple[Item, int]
) -> Result:
    item, seed = pair
    return func(item, seed)


@dataclass
class ParallelExperimentRunner:
    """Order-preserving parallel map with a deterministic serial fallback.

    Parameters
    ----------
    max_workers:
        Process count; ``None`` uses ``os.cpu_count()``.
    mode:
        ``"process"`` forces the pool, ``"serial"`` forces in-process
        execution, ``"auto"`` uses the pool only when it can help
        (more than one worker and more than one item).
    chunksize:
        Items shipped to a worker per pickle round-trip.
    """

    max_workers: int | None = None
    mode: str = "auto"
    chunksize: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "serial", "process"):
            raise ValueError(f"unknown runner mode {self.mode!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.chunksize < 1:
            raise ValueError("chunksize must be at least 1")

    def effective_workers(self) -> int:
        """The worker count a ``map`` call would actually use."""
        if self.mode == "serial":
            return 1
        return self.max_workers or os.cpu_count() or 1

    def map(self, func: Callable[[Item], Result], items: Iterable[Item]) -> list[Result]:
        """``[func(item) for item in items]``, possibly on many cores.

        Output order always equals input order; a pool is an internal
        detail that never leaks into results.
        """
        work = list(items)
        workers = self.effective_workers()
        serial = self.mode == "serial" or (
            self.mode != "process" and (workers <= 1 or len(work) <= 1)
        )
        pool_workers = 1 if serial else min(workers, max(1, len(work)))
        # The span and counters are recorded on the parent side only:
        # pool workers run in fresh processes bound to the null tracer,
        # so the fan-out appears as one span, never as corrupted nests.
        with get_tracer().span(
            "parallel.map",
            items=len(work),
            workers=pool_workers,
            mode="serial" if serial else "process",
        ):
            metrics = get_metrics()
            metrics.counter("parallel.maps").inc()
            metrics.counter("parallel.items").inc(len(work))
            metrics.gauge("parallel.workers").set(pool_workers)
            if serial:
                return [func(item) for item in work]
            # spawn, not fork: a worker starts from a fresh interpreter
            # instead of a copy of the parent's locks, threads and tracer.
            with ProcessPoolExecutor(
                max_workers=pool_workers,
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                return list(pool.map(func, work, chunksize=self.chunksize))

    def map_seeded(
        self,
        func: Callable[[Item, int], Result],
        items: Iterable[Item],
        seed: int = 0,
    ) -> list[Result]:
        """Like :meth:`map`, passing each call a derived per-item seed.

        ``func(item, derive_seed(seed, index))`` — the seed depends only
        on the base seed and the item's position, never on scheduling.
        """
        work = list(items)
        pairs = [(item, derive_seed(seed, index)) for index, item in enumerate(work)]
        return self.map(partial(_call_with_seed, func), pairs)

    def map_chunked(
        self,
        func: Callable[[list[Item]], list[Result]],
        items: Sequence[Item],
    ) -> list[Result]:
        """Fan contiguous chunks out to workers and re-concatenate.

        For tasks whose payload (dataset, recommender) dominates the
        pickle cost: one payload copy per chunk instead of per item.
        *func* maps a chunk to a result list of the same length.
        """
        results: list[Result] = []
        for chunk_result in self.map(func, split_evenly(items, self.effective_workers())):
            results.extend(chunk_result)
        return results
