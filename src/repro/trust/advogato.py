"""The Advogato group trust metric (Levien & Aiken) — boolean comparator.

The paper names Advogato "the most important and most well-known local
group trust metric" but adopts Appleseed instead because Advogato "can
only make boolean decisions with respect to trustworthiness" (§3.2).  We
reimplement it faithfully as the comparison baseline for the
attack-resistance experiment (EX4).

Algorithm (following the USENIX '98 paper):

1. Compute BFS hop levels from the seed along positive trust edges.
2. Assign each node a *capacity* by level: the seed receives the target
   group size ``N``; each subsequent level's capacity shrinks by the mean
   out-degree of the previous level (at least :attr:`Advogato.MIN_DECAY`),
   never below 1.
3. Transform the node-capacitated graph into an edge-capacitated flow
   network by node splitting: ``x`` becomes ``x⁻ → x⁺`` with capacity
   ``cap(x) - 1``, plus a unit edge ``x⁻ → supersink``.  Trust edges
   ``x → y`` become uncapacitated arcs ``x⁺ → y⁻``.
4. Compute a maximum integer flow from the seed to the supersink.  A node
   is *accepted* (certified) exactly when its unit edge to the supersink
   carries flow.

The unit supersink edges force every accepted node to consume one unit of
flow, so the number of accepted nodes is bounded by the seed capacity no
matter how many edges attackers add among themselves — the property that
makes the metric attack-resistant: bad nodes can only be reached through
the *cut* of edges from good nodes to bad ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.similarity import check_engine, engine_path
from ..obs import get_metrics, get_tracer
from ..perf.trustmatrix import TrustMatrix, bfs_order_levels, level_capacities
from .graph import TrustGraph
from .maxflow import FlowNetwork

__all__ = ["Advogato", "AdvogatoResult"]


@dataclass(frozen=True, slots=True)
class AdvogatoResult:
    """Outcome of one Advogato certification run.

    ``accepted`` always contains the seed.  ``capacities`` records the
    level-derived node capacities actually used, keyed by node.
    """

    seed: str
    accepted: frozenset[str]
    capacities: dict[str, int]
    total_flow: int


class Advogato:
    """Configured Advogato metric; call :meth:`compute` per seed agent.

    Parameters
    ----------
    target_size:
        ``N`` — the desired order of magnitude of the accepted group;
        becomes the seed's capacity.
    capacities:
        Optional explicit per-level capacity sequence overriding the
        decay heuristic (index 0 = seed level).  Values are clamped to a
        minimum of 1 and the sequence's last value extends to deeper
        levels.
    engine:
        ``"auto"`` (default) computes BFS levels and capacities over the
        graph's packed :class:`~repro.perf.trustmatrix.TrustMatrix` while
        building the max-flow network in the dict engine's order, so the
        accepted set is the same frozenset, not an approximation;
        ``"python"`` computes them with dict loops, the oracle.
    """

    #: Capacity decay per level is at least this factor even in sparse graphs.
    MIN_DECAY = 2.0

    def __init__(
        self,
        target_size: int = 200,
        capacities: list[int] | None = None,
        engine: str = "auto",
    ) -> None:
        if target_size < 1:
            raise ValueError("target_size must be at least 1")
        if capacities is not None and not capacities:
            raise ValueError("explicit capacities must be non-empty")
        self.target_size = target_size
        self.explicit_capacities = list(capacities) if capacities else None
        self.engine = check_engine(engine)

    def compute(self, graph: TrustGraph, seed: str) -> AdvogatoResult:
        """Certify the trust neighborhood of *seed* over *graph*."""
        if seed not in graph:
            raise KeyError(f"unknown seed agent {seed!r}")
        resolved = engine_path(self.engine, "trust.engine")
        with get_tracer().span(
            "advogato.compute",
            seed=seed,
            target_size=self.target_size,
            engine=resolved,
        ) as span:
            if resolved == "numpy":
                result = self._compute_packed(graph.packed(), seed)
            else:
                result = self._compute_python(graph, seed)
        span.set("accepted", len(result.accepted))
        span.set("total_flow", result.total_flow)
        span.set("network_size", len(result.capacities))
        metrics = get_metrics()
        metrics.counter("advogato.computations").inc()
        metrics.counter("advogato.accepted").inc(len(result.accepted))
        metrics.counter("advogato.flow").inc(result.total_flow)
        return result

    def _compute_packed(self, matrix: TrustMatrix, seed: str) -> AdvogatoResult:
        """One certification with vectorized levels and capacities.

        BFS discovery order and level capacities come from the CSR kernels;
        the flow network is then built in exactly the dict engine's
        iteration order, so Dinic routes the same units over the same arcs
        and the accepted set is *identical*, not merely close.
        """
        index = matrix.index[seed]
        order, level = bfs_order_levels(matrix, index)
        if self.explicit_capacities is not None:
            sequence = [max(1, c) for c in self.explicit_capacities]
            last = sequence[-1]
            while len(sequence) <= int(level[order].max(initial=0)):
                sequence.append(last)
        else:
            sequence = level_capacities(
                matrix, order, level, self.target_size, self.MIN_DECAY
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

    def _compute_python(self, graph: TrustGraph, seed: str) -> AdvogatoResult:
        """The node-splitting max-flow certification in dict loops, the oracle."""
        levels = graph.bfs_levels(seed)
        level_capacity = self._level_capacities(graph, levels)
        capacities = {node: level_capacity[level] for node, level in levels.items()}

        network = FlowNetwork()
        supersink = ("advogato", "supersink")
        sink_arcs: dict[str, int] = {}
        for node, capacity in capacities.items():
            node_in = ("in", node)
            node_out = ("out", node)
            if capacity > 1:
                network.add_edge(node_in, node_out, capacity - 1)
            else:
                network.add_node(node_out)
            sink_arcs[node] = network.add_edge(node_in, supersink, 1)
        for node in levels:
            for target in graph.positive_successors(node):
                if target in levels:
                    network.add_edge(
                        ("out", node), ("in", target), FlowNetwork.INFINITY
                    )

        # Flow enters at the seed's *inner* node so the seed itself also
        # consumes its certification unit.
        total_flow = network.max_flow(("in", seed), supersink)
        accepted = frozenset(
            node
            for node, arc in sink_arcs.items()
            if network.flow_on(arc) > 0
        )
        return AdvogatoResult(
            seed=seed,
            accepted=accepted,
            capacities=capacities,
            total_flow=total_flow,
        )

    # -- internals ------------------------------------------------------------

    def _level_capacities(
        self, graph: TrustGraph, levels: dict[str, int]
    ) -> list[int]:
        """Capacity per BFS level, decaying by observed branching factor."""
        max_level = max(levels.values(), default=0)
        if self.explicit_capacities is not None:
            sequence = [max(1, c) for c in self.explicit_capacities]
            last = sequence[-1]
            while len(sequence) <= max_level:
                sequence.append(last)
            return sequence

        by_level: dict[int, list[str]] = {}
        for node, level in levels.items():
            by_level.setdefault(level, []).append(node)

        sequence = [self.target_size]
        for level in range(max_level):
            members = by_level.get(level, [])
            degrees = [
                len(graph.positive_successors(node)) for node in members
            ]
            outgoing = [d for d in degrees if d > 0]
            branching = (
                sum(outgoing) / len(outgoing) if outgoing else self.MIN_DECAY
            )
            decay = max(self.MIN_DECAY, branching)
            sequence.append(max(1, int(sequence[-1] / decay)))
        return sequence
