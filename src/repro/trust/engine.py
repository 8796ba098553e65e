"""Packed-kernel drivers and multi-source sweeps for the group trust metrics.

Every group metric (:class:`~repro.trust.appleseed.Appleseed`,
:class:`~repro.trust.advogato.Advogato`,
:class:`~repro.trust.pagerank.PersonalizedPageRank`) takes an ``engine``
switch with the two values of :data:`repro.core.similarity.ENGINES`:

* ``"auto"`` (the default) — the packed CSR kernels of
  :mod:`repro.perf.trustmatrix`, run through the drivers below;
* ``"python"`` — the dict implementations in this package, the
  reference the kernels are property-tested against.

Both agree within 1e-9 on continuous ranks and *exactly* on discrete
outputs (Advogato's accepted set, neighborhood membership at threshold
0.0) — choosing an engine is a performance decision, never a semantic
one.

:func:`rank_many` sweeps many sources over one pack of the graph.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.similarity import engine_path
from ..obs import get_metrics, get_tracer
from ..perf.trustmatrix import (
    TrustMatrix,
    appleseed_spread,
    bfs_order_levels,
    distrust_discount,
    horizon_slice,
    level_capacities,
    pagerank_power,
)
from .advogato import Advogato, AdvogatoResult
from .appleseed import Appleseed, AppleseedResult
from .graph import TrustGraph
from .maxflow import FlowNetwork

__all__ = ["pack_graph", "rank_many"]


def pack_graph(graph: TrustGraph) -> TrustMatrix:
    """*graph* as a :class:`~repro.perf.trustmatrix.TrustMatrix`.

    The graph packs on the first call only; only that call emits the
    ``trustmatrix.pack`` span (pack cost attributable apart from the
    sweeps it amortizes over) and counts in ``trust.matrix.packs``.
    From then on each trust write replaces the held pack with a spliced
    copy, under a ``trustmatrix.splice`` span and counted in
    ``trust.matrix.splices``, so a graph is packed whole once in its
    lifetime and this returns the pack of the graph as it stands.
    """
    return graph.packed(_pack)


def _pack(graph: TrustGraph) -> TrustMatrix:
    with get_tracer().span(
        "trustmatrix.pack", nodes=len(graph), edges=graph.edge_count()
    ) as span:
        matrix = TrustMatrix.from_graph(graph)
        span.set("positive_edges", matrix.nnz)
    get_metrics().counter("trust.matrix.packs").inc()
    return matrix


# -- numpy drivers (callers hold the spans) ---------------------------------


def appleseed_on_matrix(
    matrix: TrustMatrix,
    source: str,
    injection: float,
    metric: Appleseed,
) -> AppleseedResult:
    """Run one numpy Appleseed computation over the whole graph's pack.

    With ``metric.max_depth`` set, the sweeps run on *source*'s horizon,
    sliced out of *matrix* by
    :func:`~repro.perf.trustmatrix.horizon_slice` under a
    ``trustmatrix.horizon`` span, so bounded queries share the graph's
    one pack, which trust writes splice rather than drop.  The caller
    holds the ``appleseed.compute`` span; this assembles the result
    exactly as the dict oracle shapes it, zero-rank frontier entries
    included.
    """
    if metric.max_depth is not None:
        with get_tracer().span(
            "trustmatrix.horizon", max_depth=metric.max_depth
        ) as span:
            matrix = horizon_slice(matrix, matrix.index[source], metric.max_depth)
            span.set("nodes", len(matrix))
            span.set("positive_edges", matrix.nnz)
    index = matrix.index[source]
    rank, member, iterations, converged, history = appleseed_spread(
        matrix,
        index,
        injection,
        metric.spreading_factor,
        metric.convergence_threshold,
        metric.max_iterations,
        normalization=metric.normalization,
        backward_propagation=metric.backward_propagation,
    )
    if metric.distrust_mode == "one_step":
        rank = distrust_discount(
            matrix, index, rank, member, metric.spreading_factor
        )
    values = rank.tolist()
    ranks = {
        matrix.ids[i]: values[i]
        for i in member.nonzero()[0].tolist()
        if i != index
    }
    return AppleseedResult(
        source=source,
        ranks=ranks,
        iterations=iterations,
        converged=converged,
        injected=injection,
        history=history,
    )


def advogato_on_matrix(
    matrix: TrustMatrix, seed: str, metric: Advogato
) -> AdvogatoResult:
    """Run one Advogato certification with vectorized levels/capacities.

    BFS discovery order and level capacities come from the CSR kernels;
    the flow network is then built in exactly the dict engine's
    iteration order, so Dinic routes the same units over the same arcs
    and the accepted set is *identical*, not merely close.
    """
    index = matrix.index[seed]
    order, level = bfs_order_levels(matrix, index)
    if metric.explicit_capacities is not None:
        sequence = [max(1, c) for c in metric.explicit_capacities]
        last = sequence[-1]
        while len(sequence) <= int(level[order].max(initial=0)):
            sequence.append(last)
    else:
        sequence = level_capacities(
            matrix, order, level, metric.target_size, metric.MIN_DECAY
        )
    reached = order.tolist()
    capacities = {matrix.ids[i]: sequence[int(level[i])] for i in reached}

    network = FlowNetwork()
    supersink = ("advogato", "supersink")
    sink_arcs: dict[str, int] = {}
    for node, capacity in capacities.items():
        node_in = ("in", node)
        if capacity > 1:
            network.add_edge(node_in, ("out", node), capacity - 1)
        else:
            network.add_node(("out", node))
        sink_arcs[node] = network.add_edge(node_in, supersink, 1)
    in_horizon = level >= 0
    for i in reached:
        targets, _ = matrix.row(i)
        node_out = ("out", matrix.ids[i])
        for j in targets[in_horizon[targets]].tolist():
            network.add_edge(node_out, ("in", matrix.ids[j]), FlowNetwork.INFINITY)

    total_flow = network.max_flow(("in", seed), supersink)
    accepted = frozenset(
        node for node, arc in sink_arcs.items() if network.flow_on(arc) > 0
    )
    return AdvogatoResult(
        seed=seed,
        accepted=accepted,
        capacities=capacities,
        total_flow=total_flow,
    )


def pagerank_on_matrix(
    matrix: TrustMatrix,
    source: str,
    alpha: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[dict[str, float], int, bool]:
    """Run one personalized-PageRank power iteration over the CSR."""
    index = matrix.index[source]
    rank, iterations, converged = pagerank_power(
        matrix, index, alpha, tolerance, max_iterations
    )
    values = rank.tolist()
    ranks = {
        matrix.ids[i]: values[i]
        for i in rank.nonzero()[0].tolist()
        if i != index
    }
    return ranks, iterations, converged


# -- multi-source sweeps -----------------------------------------------------


def rank_many(
    graph: TrustGraph,
    sources: Sequence[str],
    *,
    metric: Appleseed | None = None,
    injection: float = 200.0,
    engine: str = "auto",
) -> list[AppleseedResult]:
    """Appleseed ranks for many sources, in source order.

    With ``engine="auto"`` every source runs on the graph's one pack
    (:func:`pack_graph`), and a metric with a ``max_depth`` horizon
    slices each source's horizon out of it.  With ``"python"`` each
    source runs the dict oracle on the graph, or on its
    ``within_horizon`` sub-graph when the metric has a ``max_depth``.
    Either way the engine selection counts once per call, and each
    source gets the ``appleseed.compute`` span and metrics
    :meth:`Appleseed.compute <repro.trust.appleseed.Appleseed.compute>`
    would give it.
    """
    metric = metric or Appleseed()
    work = list(sources)
    for source in work:
        if source not in graph:
            raise KeyError(f"unknown source agent {source!r}")
    resolved = engine_path(engine, "trust.engine")
    metrics = get_metrics()
    with get_tracer().span(
        "trust.rank_many",
        sources=len(work),
        engine=resolved,
        nodes=len(graph),
    ) as span:
        matrix = pack_graph(graph) if resolved == "numpy" else None
        results: list[AppleseedResult] = []
        for source in work:
            # Same span + metrics contract as Appleseed.compute, so a
            # sweep leaves the evidence a source-by-source loop would.
            with metric._span(source, resolved) as source_span:
                if matrix is not None:
                    result = appleseed_on_matrix(matrix, source, injection, metric)
                else:
                    horizon = graph
                    if metric.max_depth is not None:
                        horizon = graph.within_horizon(source, metric.max_depth)
                    result = metric._compute_python(horizon, source, injection)
                metric._record(source_span, result)
            results.append(result)
        span.set("iterations", sum(result.iterations for result in results))
    metrics.counter("trust.rank_many.calls").inc()
    metrics.histogram("trust.rank_many.sources").observe(len(work))
    return results
