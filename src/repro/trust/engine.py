"""Multi-source Appleseed sweeps.

:func:`rank_many` ranks many sources on one graph, in source order, as
a loop over :meth:`Appleseed.compute
<repro.trust.appleseed.Appleseed.compute>`: each source gets that
method's engine selection, ``appleseed.compute`` span and metrics, and
the packed engine's sources share the graph's one pack
(:meth:`TrustGraph.packed <repro.trust.graph.TrustGraph.packed>`).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..obs import get_metrics, get_tracer
from .appleseed import Appleseed, AppleseedResult
from .graph import TrustGraph

__all__ = ["rank_many"]


def rank_many(
    graph: TrustGraph,
    sources: Sequence[str],
    *,
    metric: Appleseed | None = None,
    injection: float = 200.0,
    engine: str = "auto",
) -> list[AppleseedResult]:
    """Appleseed ranks for many sources, in source order.

    Each source runs ``metric.compute`` on its own engine; without a
    *metric*, ``Appleseed(engine=engine)`` runs.  Unknown sources are
    rejected before any source runs.
    """
    work = list(sources)
    for source in work:
        if source not in graph:
            raise KeyError(f"unknown source agent {source!r}")
    metric = metric or Appleseed(engine=engine)
    with get_tracer().span(
        "trust.rank_many", sources=len(work), nodes=len(graph)
    ) as span:
        results = [metric.compute(graph, source, injection) for source in work]
        span.set("iterations", sum(result.iterations for result in results))
    metrics = get_metrics()
    metrics.counter("trust.rank_many.calls").inc()
    metrics.histogram("trust.rank_many.sources").observe(len(work))
    return results
