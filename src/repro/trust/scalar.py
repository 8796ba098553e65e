"""Scalar trust metrics — the prior art the paper argues is insufficient.

§3.2 notes that "numerous scalar metrics [10, 11] have been proposed for
computing trust between two given individuals", but that neighborhood
formation needs *group* metrics instead.  We implement a representative
scalar metric so experiments can quantify the difference:

* :func:`multiplicative_path_trust` — Beth/Borcherding/Klein-style
  attenuation: trust along a path is the product of edge weights, and the
  trust in a target is the maximum over all paths.  Computed exactly with
  a Dijkstra-style search (maximizing products of weights in ``(0, 1]`` is
  shortest path under ``-log`` transform; weights equal to 1 are handled
  by the monotone product itself).

It treats each target independently, which is exactly why it is
vulnerable to edge-flooding attacks (EX4): every additional attack edge
creates another high-trust path, and nothing bounds the *group* of
admitted agents.
"""

from __future__ import annotations

import heapq

from .graph import TrustGraph

__all__ = [
    "multiplicative_path_trust",
    "scalar_neighborhood",
]


def multiplicative_path_trust(
    graph: TrustGraph,
    source: str,
    max_depth: int | None = None,
) -> dict[str, float]:
    """Best-path product trust from *source* to every reachable agent.

    Only positive edges participate.  The result maps each reachable
    agent (source excluded) to the maximum over all paths of the product
    of edge weights, optionally restricted to paths of at most
    *max_depth* edges.
    """
    if source not in graph:
        raise KeyError(f"unknown source agent {source!r}")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be at least 1 when given")

    # Max-product search: a lazy Dijkstra over (-trust, node, depth).
    best: dict[str, float] = {}
    heap: list[tuple[float, str, int]] = [(-1.0, source, 0)]
    settled: set[str] = set()
    while heap:
        negative_trust, node, depth = heapq.heappop(heap)
        trust = -negative_trust
        if node in settled:
            continue
        settled.add(node)
        if node != source:
            best[node] = trust
        if max_depth is not None and depth >= max_depth:
            continue
        for target, weight in graph.positive_successors(node).items():
            if target in settled:
                continue
            candidate = trust * weight
            if candidate > best.get(target, 0.0) and candidate > 0.0:
                # best[] doubles as the frontier bound; final values are
                # assigned on settling.
                heapq.heappush(heap, (-candidate, target, depth + 1))
    return best


def scalar_neighborhood(
    scores: dict[str, float], threshold: float
) -> set[str]:
    """Agents whose scalar trust strictly exceeds *threshold*."""
    return {agent for agent, value in scores.items() if value > threshold}
