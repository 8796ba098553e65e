"""Trust neighborhood formation (§3.2) — the first pillar.

Wraps a local group trust metric (Appleseed by default) and turns its
continuous ranks into the bounded peer set the similarity stage then
filters.  Selection supports both of the paper's framings: a rank
*threshold* ("peers whose trustworthiness lies above some given
threshold", §3.3) and a *top-M* cut that keeps neighborhoods "sufficiently
narrow" for scalability (§2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trust.appleseed import Appleseed, AppleseedResult
from ..trust.graph import TrustGraph
from .similarity import check_engine

__all__ = ["NeighborhoodFormation", "TrustNeighborhood", "normalize_ranks"]


def normalize_ranks(ranks: dict[str, float]) -> dict[str, float]:
    """Scale ranks into ``[0, 1]`` by the maximum (empty input stays empty).

    Appleseed rank magnitudes depend on the injected energy; synthesis
    (§3.4) needs them commensurable with similarity values, hence the
    normalization.
    """
    if not ranks:
        return {}
    peak = max(ranks.values())
    if peak <= 0.0:
        return {agent: 0.0 for agent in ranks}
    return {agent: value / peak for agent, value in ranks.items()}


@dataclass(frozen=True, slots=True)
class TrustNeighborhood:
    """A computed neighborhood: selected peers with raw and normal ranks."""

    source: str
    ranks: dict[str, float]
    normalized: dict[str, float]
    metric_result: AppleseedResult | None = None

    def __contains__(self, agent: str) -> bool:
        return agent in self.ranks

    def __len__(self) -> int:
        return len(self.ranks)

    def members(self) -> set[str]:
        return set(self.ranks)

    def top(self, limit: int | None = None) -> list[tuple[str, float]]:
        ordered = sorted(self.ranks.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered if limit is None else ordered[:limit]


class NeighborhoodFormation:
    """Builds :class:`TrustNeighborhood` objects for source agents.

    Parameters
    ----------
    metric:
        The group trust metric; defaults to Appleseed with published
        parameters.
    injection:
        Energy injected per computation (Appleseed's ``in_0``).
    threshold:
        Minimum raw rank for a peer to enter the neighborhood.
    max_peers:
        Optional top-M cut applied after thresholding.
    engine:
        Trust-propagation engine for the default metric: ``"auto"``
        runs Appleseed's packed kernels, ``"python"`` its dict oracle
        (:data:`~repro.core.similarity.ENGINES`).  Ignored when an
        explicit *metric* is supplied, which carries its own engine.
    """

    def __init__(
        self,
        metric: Appleseed | None = None,
        injection: float = 200.0,
        threshold: float = 0.0,
        max_peers: int | None = None,
        engine: str = "auto",
    ) -> None:
        if injection <= 0.0:
            raise ValueError("injection must be positive")
        if threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        if max_peers is not None and max_peers < 1:
            raise ValueError("max_peers must be at least 1 when given")
        check_engine(engine)
        self.metric = metric or Appleseed(engine=engine)
        self.injection = injection
        self.threshold = threshold
        self.max_peers = max_peers

    def form(self, graph: TrustGraph, source: str) -> TrustNeighborhood:
        """Compute the trust neighborhood of *source* over *graph*."""
        result = self.metric.compute(graph, source, self.injection)
        selected = {
            agent: rank
            for agent, rank in result.ranks.items()
            if rank > self.threshold
        }
        if self.max_peers is not None and len(selected) > self.max_peers:
            kept = sorted(selected.items(), key=lambda kv: (-kv[1], kv[0]))
            selected = dict(kept[: self.max_peers])
        return TrustNeighborhood(
            source=source,
            ranks=selected,
            normalized=normalize_ranks(selected),
            metric_result=result,
        )
