"""repro.obs — structured tracing, metrics, and timing for the stack.

The observability layer the ROADMAP's production north-star needs:
Ziegler's §3.2 argument is that trust neighborhoods make decentralized
recommendation *bounded and auditable*, and this package is where the
bounds become visible — how many Appleseed sweeps a query took, which
sites tripped their breaker, what fraction of similarity calls the
matrix cache absorbed.

Three pieces, all dependency-free:

* :mod:`~repro.obs.trace` — :class:`Tracer` / :class:`Span` context
  managers producing nested, seeded-run-reproducible span trees
  (sequential ids, no wall clock in span identity, monotonic durations
  only) with a JSONL exporter and schema validator;
* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` of counters
  and fixed-bucket histograms with a JSON snapshot and a console
  summary;
* :mod:`~repro.obs.stopwatch` — :class:`Stopwatch` / :func:`measure`,
  the single monotonic-timing helper (``time.time`` is wall clock and
  never times a duration).

Layering: ``obs`` sits *below* ``core`` in the RL100 architecture
contract, so every package may import it.  Instrumented code calls
:func:`get_tracer` / :func:`get_metrics`; the default
:class:`NullTracer` makes disabled tracing near-free, and the CLI
rebinds both via :func:`tracing` / :func:`collecting` for ``--trace`` /
``--metrics`` runs.
"""

from .metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry
from .profile import (
    NameDelta,
    SpanNode,
    SpanProfile,
    TraceDiff,
    build_tree,
    critical_path,
    diff_traces,
    profile_trace,
    render_critical_path,
    render_diff,
    render_flame,
    render_top,
)
from .runtime import (
    collecting,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
    tracing,
)
from .stopwatch import Stopwatch, TimingStats, measure
from .summary import summarize_trace
from .trace import (
    MEMORY_ATTR,
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    load_trace,
    strip_durations,
    validate_trace,
    write_records_jsonl,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Histogram",
    "MEMORY_ATTR",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NameDelta",
    "NullSpan",
    "NullTracer",
    "Span",
    "SpanNode",
    "SpanProfile",
    "Stopwatch",
    "TimingStats",
    "TraceDiff",
    "Tracer",
    "build_tree",
    "collecting",
    "critical_path",
    "diff_traces",
    "get_metrics",
    "get_tracer",
    "load_trace",
    "measure",
    "profile_trace",
    "render_critical_path",
    "render_diff",
    "render_flame",
    "render_top",
    "set_metrics",
    "set_tracer",
    "strip_durations",
    "summarize_trace",
    "tracing",
    "validate_trace",
    "write_records_jsonl",
]
