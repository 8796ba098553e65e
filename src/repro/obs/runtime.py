"""Process-wide tracer and metrics bindings.

Instrumented code asks :func:`get_tracer` / :func:`get_metrics` for the
current sinks instead of passing them through every signature — the
hot paths (similarity kernels, fetch loops, Appleseed sweeps) sit many
layers below the CLI that decides whether a run is observed.

Defaults: tracing is *off* (:data:`~repro.obs.trace.NULL_TRACER`, whose
spans are shared no-ops), metrics are *on* (a registry of plain
counters costs a dict lookup and an add — cheap enough to always keep
honest totals).  The CLI scopes both with the :func:`tracing` /
:func:`collecting` context managers, which also guarantee restoration
on error.

The bindings are plain module globals: the program runs in one process
on one thread (DESIGN.md §4), so every instrumented call in a scope
reports to the same sinks.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from .metrics import MetricsRegistry
from .trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "collecting",
    "get_metrics",
    "get_tracer",
    "set_metrics",
    "set_tracer",
    "tracing",
]

_tracer: Tracer | NullTracer = NULL_TRACER
_metrics: MetricsRegistry = MetricsRegistry()


def get_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code should open spans on right now."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Bind *tracer* process-wide; returns the previous binding."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def get_metrics() -> MetricsRegistry:
    """The registry instrumented code should record into right now."""
    return _metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Bind *registry* process-wide; returns the previous binding."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Bind a (fresh, by default) tracer for the duration of the block."""
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


@contextmanager
def collecting(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Bind a (fresh, by default) metrics registry for the block.

    Scopes a command's metrics away from whatever the process recorded
    before, so ``repro … --metrics`` summarizes exactly one run.
    """
    active = registry if registry is not None else MetricsRegistry()
    previous = set_metrics(active)
    try:
        yield active
    finally:
        set_metrics(previous)
