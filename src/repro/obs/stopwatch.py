"""Monotonic duration measurement — the one way the repo times things.

Every hand-rolled ``start = time.perf_counter(); …; elapsed = …`` pair
in the experiment and benchmark code converges here.  A
:class:`Stopwatch` accumulates monotonic elapsed time across one or
more start/stop windows (or ``with`` blocks) and can report while still
running; :func:`measure` wraps the classic repeat-and-take-the-median
protocol used by the perf tables.

``time.time`` is wall clock — it jumps under NTP steps and DST and must
never measure a duration.  This module is the sanctioned alternative.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from types import TracebackType
from typing import Any, TypeVar

__all__ = ["Stopwatch", "TimingStats", "measure"]

Result = TypeVar("Result")


class Stopwatch:
    """Accumulating monotonic stopwatch.

    Usable as a context manager (each ``with`` block adds its window to
    the total) or via explicit :meth:`start` / :meth:`stop`.
    :attr:`elapsed` may be read while running — it includes the live
    window — which is what lets a report be built *inside* the timed
    region it describes.
    """

    __slots__ = ("_accumulated", "_started")

    def __init__(self) -> None:
        self._accumulated = 0.0
        self._started: float | None = None

    def start(self) -> "Stopwatch":
        if self._started is not None:
            raise RuntimeError("stopwatch is already running")
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        """Close the current window; returns total elapsed seconds."""
        if self._started is None:
            raise RuntimeError("stopwatch is not running")
        self._accumulated += time.perf_counter() - self._started
        self._started = None
        return self._accumulated

    def reset(self) -> None:
        self._accumulated = 0.0
        self._started = None

    @property
    def running(self) -> bool:
        return self._started is not None

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds, including a still-open window."""
        live = 0.0
        if self._started is not None:
            live = time.perf_counter() - self._started
        return self._accumulated + live

    @property
    def elapsed_ms(self) -> float:
        """Total elapsed milliseconds, including a still-open window."""
        return self.elapsed * 1000.0

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.stop()

    @classmethod
    def time_call(
        cls, func: Callable[..., Result], *args: Any, **kwargs: Any
    ) -> tuple[Result, float]:
        """``(func(*args, **kwargs), elapsed seconds)`` in one call."""
        watch = cls()
        with watch:
            result = func(*args, **kwargs)
        return result, watch.elapsed


@dataclass(frozen=True, slots=True)
class TimingStats:
    """Per-repeat timings of one measured callable, in seconds."""

    times: tuple[float, ...]

    @property
    def best(self) -> float:
        return min(self.times)

    @property
    def worst(self) -> float:
        return max(self.times)

    @property
    def total(self) -> float:
        return sum(self.times)

    @property
    def median(self) -> float:
        ordered = sorted(self.times)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2.0

    @property
    def median_ms(self) -> float:
        return self.median * 1000.0

    @property
    def best_ms(self) -> float:
        return self.best * 1000.0

    @property
    def worst_ms(self) -> float:
        return self.worst * 1000.0


def measure(func: Callable[[], object], repeats: int = 1) -> TimingStats:
    """Run *func* *repeats* times and collect per-run monotonic timings.

    The shared repeat/median protocol: report ``.median`` (robust to a
    one-off scheduler hiccup) or ``.best`` (closest to the true cost)
    rather than a single noisy run.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    times: list[float] = []
    for _ in range(repeats):
        watch = Stopwatch()
        with watch:
            func()
        times.append(watch.elapsed)
    return TimingStats(times=tuple(times))
