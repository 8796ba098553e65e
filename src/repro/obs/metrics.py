"""Counters and fixed-bucket histograms for the whole stack.

A :class:`MetricsRegistry` is a flat, named collection of two
instrument kinds, the ones the instrumented code records:

* :class:`Counter` — monotonically increasing totals (sweeps run,
  cache hits, breaker trips);
* :class:`Histogram` — fixed cumulative buckets plus sum and count
  (neighborhood sizes, per-query latencies).  Buckets are fixed at
  creation so two runs aggregate identically.

Exporters: :meth:`MetricsRegistry.snapshot` returns a JSON-ready dict
and :meth:`MetricsRegistry.render_summary` a human console table, which
``--metrics`` prints.  Metric *names* use dotted paths
(``appleseed.sweeps``).

Everything here is deterministic: iteration is sorted by name, floats
render via ``repr``-stable formatting, and no wall-clock value is ever
recorded implicitly.
"""

from __future__ import annotations

import math

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram upper bounds: a coarse log scale that serves both
#: size-like (neighborhood members) and duration-like (milliseconds)
#: observations without per-metric tuning.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Histogram:
    """Fixed cumulative buckets plus running sum and count."""

    __slots__ = ("buckets", "counts", "name", "observations", "total")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram {name}: buckets must be strictly increasing")
        self.name = name
        self.buckets = tuple(float(bound) for bound in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # final slot: +Inf
        self.total = 0.0
        self.observations = 0

    def observe(self, value: float) -> None:
        """Record one observation into its (cumulative) bucket."""
        if math.isnan(value):
            raise ValueError(f"histogram {self.name}: NaN observation")
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.observations += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, +Inf last."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            pairs.append((bound, running))
        pairs.append((math.inf, running + self.counts[-1]))
        return pairs

    @property
    def mean(self) -> float:
        return self.total / self.observations if self.observations else 0.0


def _format_value(value: float) -> str:
    """Integer-valued floats render as integers; others via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """A named, flat collection of counters and histograms.

    Instruments are created on first use (``registry.counter(name)``)
    and live for the registry's lifetime.  Asking for an existing name
    with a different instrument kind raises — one name, one kind.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is None:
            if name in self._histograms:
                raise ValueError(f"metric {name!r} already registered as a histogram")
            existing = self._counters[name] = Counter(name)
        return existing

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is None:
            if name in self._counters:
                raise ValueError(f"metric {name!r} already registered as a counter")
            existing = self._histograms[name] = Histogram(name, buckets)
        return existing

    def reset(self) -> None:
        """Drop every instrument (a fresh registry without rebinding)."""
        self._counters.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A JSON-ready snapshot of every instrument, sorted by name."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: {
                    "buckets": list(histogram.buckets),
                    "counts": list(histogram.counts),
                    "sum": histogram.total,
                    "count": histogram.observations,
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def render_summary(self) -> str:
        """A human console summary: one aligned section per kind."""
        sections: list[str] = []
        if self._counters:
            width = max(len(name) for name in self._counters)
            rows = [
                f"  {name.ljust(width)}  {_format_value(counter.value)}"
                for name, counter in sorted(self._counters.items())
            ]
            sections.append("counters:\n" + "\n".join(rows))
        if self._histograms:
            width = max(len(name) for name in self._histograms)
            rows = [
                f"  {name.ljust(width)}  count={histogram.observations}"
                f" sum={_format_value(round(histogram.total, 4))}"
                f" mean={histogram.mean:.3f}"
                for name, histogram in sorted(self._histograms.items())
            ]
            sections.append("histograms:\n" + "\n".join(rows))
        if not sections:
            return "metrics: none recorded"
        return "\n".join(sections)
