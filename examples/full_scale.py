#!/usr/bin/env python
"""The §4.1 crawl at full published scale: 9,100 agents, 9,953 books.

Generates the All Consuming-scale community (with a 20,000-topic
Amazon-shaped book taxonomy), then times every stage of the pipeline on
it — the concrete form of the paper's scalability argument (§2): with
trust-bounded neighborhoods, the bounded Appleseed run takes tens of
milliseconds and a repeated recommendation a few, even at the full
community size, where global all-pairs similarity would be prohibitive.
A new trust statement by the same agent, followed by its bounded
Appleseed run again, takes about a millisecond: the write splices the
agent's row into the graph's held trust pack instead of dropping it, so
nothing is repacked.
The first (cold) recommendation is not sub-second: it builds and packs
the profile of every agent in the community, not only of its
neighbourhood, and prints about 1.3–2 s on a 2-core x86 container.

Each stage prints its wall time and the process's peak resident set
size so far.

Run:  python examples/full_scale.py          (~5 s total, ~220 MB peak)
"""

from __future__ import annotations

import resource
import time

from repro.core.models import TrustStatement
from repro.core.neighborhood import NeighborhoodFormation
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import ProfileStore, SemanticWebRecommender
from repro.datasets.allconsuming import generate_allconsuming
from repro.trust.appleseed import Appleseed
from repro.trust.graph import TrustGraph


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(label: str, func):
    start = time.perf_counter()
    result = func()
    elapsed = time.perf_counter() - start
    print(f"  {label:<42} {elapsed:8.3f} s   peak RSS {peak_rss_mb():6.0f} MB")
    return result


def main() -> None:
    print("Full published scale (§4.1: 9,100 users, 9,953 books, 20k topics)")
    print()
    community = timed(
        "generate community", lambda: generate_allconsuming(scale=1.0, seed=42)
    )
    dataset = community.dataset
    print(f"    agents={len(dataset.agents)}  products={len(dataset.products)}  "
          f"trust={len(dataset.trust)}  ratings={len(dataset.ratings)}")
    print(f"    taxonomy: {community.taxonomy.branching_stats()}")
    print()

    graph = timed("build trust graph", lambda: TrustGraph.from_dataset(dataset))
    store = ProfileStore(dataset, TaxonomyProfileBuilder(community.taxonomy))
    agent = sorted(dataset.agents)[0]

    appleseed = Appleseed(max_depth=3)
    result = timed(
        "appleseed (max_depth=3) for one agent",
        lambda: appleseed.compute(graph, agent),
    )
    print(f"    ranked {len(result.ranks)} peers in {result.iterations} iterations")

    target = next(
        other
        for other in sorted(dataset.agents)
        if other != agent and graph.weight(agent, other) is None
    )

    def trust_write():
        dataset.add_trust(TrustStatement(source=agent, target=target, value=0.8))
        graph.add_edge(agent, target, 0.8)
        return appleseed.compute(graph, agent)

    result = timed("trust statement, then appleseed again", trust_write)
    print(f"    ranked {len(result.ranks)} peers in {result.iterations} iterations")

    timed(
        "taxonomy profile for one agent",
        lambda: store.profile(agent),
    )

    recommender = SemanticWebRecommender(
        dataset=dataset,
        graph=graph,
        profiles=store,
        formation=NeighborhoodFormation(metric=appleseed, max_peers=50),
    )
    recs = timed(
        "one full recommendation (cold caches)",
        lambda: recommender.recommend(agent, limit=10),
    )
    recs = timed(
        "one full recommendation (warm caches)",
        lambda: recommender.recommend(agent, limit=10),
    )
    print()
    print(f"top-10 recommendations for {agent}:")
    for item in recs:
        print(f"  {item.product}  score={item.score:.3f}  "
              f"supporters={len(item.supporters)}")


if __name__ == "__main__":
    main()
