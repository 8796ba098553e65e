"""Personalized PageRank over the web of trust — the closest relative.

Appleseed's spreading-activation model is frequently compared to
personalized PageRank (both are eigenvector-style walk models; Appleseed
cites the same lineage through spreading activation [13]).  This module
provides PPR as an additional group-metric comparator so experiments can
separate what Appleseed's specific choices (backward edges, energy
accounting, convergence on rank deltas) contribute beyond a generic
teleporting random walk.

Power iteration with teleport vector concentrated on the source agent:

    rank ← (1 - alpha) · e_source + alpha · Wᵀ rank

where ``W`` row-normalizes positive trust weights and dangling mass is
redirected to the source (the standard personalized correction, which
mirrors Appleseed's backward edges).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.similarity import check_engine, engine_path
from ..perf.trustmatrix import TrustMatrix, pagerank_power
from .graph import TrustGraph

__all__ = ["PersonalizedPageRank", "PageRankResult"]


@dataclass(frozen=True, slots=True)
class PageRankResult:
    """Outcome of one personalized PageRank computation."""

    source: str
    ranks: dict[str, float]
    iterations: int
    converged: bool

    def top(self, limit: int | None = None) -> list[tuple[str, float]]:
        """Ranked agents, highest first, ties broken by identifier."""
        ordered = sorted(self.ranks.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered if limit is None else ordered[:limit]


class PersonalizedPageRank:
    """Configured PPR metric; call :meth:`compute` per source agent.

    Parameters
    ----------
    alpha:
        Walk-continuation probability (teleport probability is
        ``1 - alpha``); 0.85 matches both the PageRank literature and
        Appleseed's default spreading factor, making comparisons direct.
    tolerance:
        L1 convergence threshold on the rank vector.
    max_iterations:
        Safety cap; hitting it sets ``converged=False``.
    engine:
        ``"auto"`` (default) runs the power iteration as scatter-adds
        over the graph's packed :class:`~repro.perf.trustmatrix.TrustMatrix`;
        ``"python"`` iterates adjacency lists, the oracle (agreement
        within 1e-9, see :mod:`repro.trust`).
    """

    def __init__(
        self,
        alpha: float = 0.85,
        tolerance: float = 1e-8,
        max_iterations: int = 500,
        engine: str = "auto",
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly in (0, 1)")
        if tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.alpha = alpha
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.engine = check_engine(engine)

    def compute(self, graph: TrustGraph, source: str) -> PageRankResult:
        """Run personalized PageRank from *source* over positive edges.

        Only the component reachable from *source* participates (other
        nodes provably hold rank 0 under a source-concentrated teleport).
        The source's own rank is excluded from the result, matching
        :class:`~repro.trust.appleseed.AppleseedResult` semantics.
        """
        if source not in graph:
            raise KeyError(f"unknown source agent {source!r}")
        if engine_path(self.engine, "trust.engine") == "numpy":
            return self._compute_packed(graph.packed(), source)
        return self._compute_python(graph, source)

    def _compute_packed(self, matrix: TrustMatrix, source: str) -> PageRankResult:
        """The power iteration as scatter-adds over the packed CSR."""
        index = matrix.index[source]
        rank, iterations, converged = pagerank_power(
            matrix, index, self.alpha, self.tolerance, self.max_iterations
        )
        values = rank.tolist()
        ranks = {
            matrix.ids[i]: values[i]
            for i in rank.nonzero()[0].tolist()
            if i != index
        }
        return PageRankResult(
            source=source, ranks=ranks, iterations=iterations, converged=converged
        )

    def _compute_python(self, graph: TrustGraph, source: str) -> PageRankResult:
        """The power iteration over adjacency lists, the oracle."""
        nodes = sorted(graph.reachable_from(source))
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        # Row-normalized positive out-edges, restricted to the component.
        out_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for node in nodes:
            successors = {
                target: weight
                for target, weight in graph.positive_successors(node).items()
                if target in index
            }
            total = sum(successors.values())
            if total > 0:
                out_edges[index[node]] = [
                    (index[target], weight / total)
                    for target, weight in successors.items()
                ]

        source_index = index[source]
        rank = [0.0] * n
        rank[source_index] = 1.0
        iterations = 0
        converged = False
        while iterations < self.max_iterations:
            iterations += 1
            fresh = [0.0] * n
            dangling = 0.0
            for i, mass in enumerate(rank):
                if mass == 0.0:
                    continue
                edges = out_edges[i]
                if not edges:
                    dangling += mass
                    continue
                for j, probability in edges:
                    fresh[j] += self.alpha * mass * probability
            # Teleport + dangling mass both return to the source.
            fresh[source_index] += (1.0 - self.alpha) + self.alpha * dangling
            delta = sum(abs(a - b) for a, b in zip(fresh, rank))
            rank = fresh
            if delta <= self.tolerance:
                converged = True
                break

        ranks = {
            node: rank[index[node]]
            for node in nodes
            if node != source and rank[index[node]] > 0.0
        }
        return PageRankResult(
            source=source, ranks=ranks, iterations=iterations, converged=converged
        )
