"""Synthetic community generation — the stand-in for the crawled data of §4.

The paper's experiments ran on data mined from All Consuming and Advogato:
about 9,100 users with trust relationships and implicit book ratings, plus
Amazon's taxonomy and categorization for 9,953 books.  Those communities
are gone; this generator reproduces the structural properties the
algorithms under test depend on:

* a sparse, directed, weighted trust graph with hub structure
  (preferential attachment) and *interest homophily* — people
  preferentially trust like-minded people, the empirical fact (§3.2,
  ref. [5]) that makes trust useful as a similarity surrogate;
* interest clusters anchored at taxonomy subtrees, with each agent rating
  mostly products classified under its own cluster's subtrees
  (``interest_fidelity`` controls how strongly);
* heavy-tailed rating counts (log-normal), implicit ``+1.0`` ratings by
  default (weblog link mining produces votes, not grades).

Every generated artifact is deterministic given the config seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from ..core.models import Agent, Dataset, Product, Rating, TrustStatement
from ..core.taxonomy import Taxonomy
from .amazon import TaxonomyConfig, book_taxonomy_config, generate_products, generate_taxonomy

__all__ = [
    "CommunityConfig",
    "SyntheticCommunity",
    "generate_community",
    "stream_trust_edges",
]


@dataclass(frozen=True, slots=True)
class CommunityConfig:
    """All knobs of the synthetic community generator."""

    n_agents: int = 500
    n_products: int = 1000
    n_clusters: int = 8
    seed: int = 42
    taxonomy: TaxonomyConfig | None = None

    #: Log-normal rating-count parameters and hard bounds per agent.
    ratings_mu: float = 2.3
    ratings_sigma: float = 0.6
    ratings_min: int = 2
    ratings_max: int = 80

    #: Probability that a rating targets a product of the agent's cluster.
    interest_fidelity: float = 0.8

    #: Explicit graded ratings instead of implicit +1.0 votes.
    explicit_ratings: bool = False

    #: Trust out-degree bounds and homophily (probability a trust edge
    #: stays within the agent's own interest cluster).
    trust_min_out: int = 2
    trust_mean_out: float = 8.0
    trust_homophily: float = 0.75

    #: Fraction of trust edges that are explicit distrust statements.
    distrust_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_agents < 2:
            raise ValueError("n_agents must be at least 2")
        if self.n_products < 1:
            raise ValueError("n_products must be at least 1")
        if not 1 <= self.n_clusters <= self.n_agents:
            raise ValueError("require 1 <= n_clusters <= n_agents")
        if not 0.0 <= self.interest_fidelity <= 1.0:
            raise ValueError("interest_fidelity must lie in [0, 1]")
        if not 0.0 <= self.trust_homophily <= 1.0:
            raise ValueError("trust_homophily must lie in [0, 1]")
        if not 0.0 <= self.distrust_fraction <= 0.5:
            raise ValueError("distrust_fraction must lie in [0, 0.5]")
        if self.trust_min_out < 1:
            raise ValueError("trust_min_out must be at least 1")
        if self.trust_mean_out < self.trust_min_out:
            raise ValueError("trust_mean_out must be >= trust_min_out")
        if not 1 <= self.ratings_min <= self.ratings_max:
            raise ValueError("require 1 <= ratings_min <= ratings_max")


@dataclass
class SyntheticCommunity:
    """A generated community plus the ground truth behind it.

    ``membership`` (agent URI -> cluster index) and ``cluster_topics``
    (cluster index -> anchor topic set) let experiments measure whether
    algorithms recover the planted structure.
    """

    dataset: Dataset
    taxonomy: Taxonomy
    membership: dict[str, int]
    cluster_topics: dict[int, tuple[str, ...]]
    config: CommunityConfig
    cluster_products: dict[int, tuple[str, ...]] = field(default_factory=dict)


def _cluster_anchor_topics(
    taxonomy: Taxonomy, n_clusters: int, rng: random.Random
) -> dict[int, tuple[str, ...]]:
    """Pick disjoint-ish anchor subtrees, one batch per cluster.

    Anchors are drawn from the shallow inner topics (depth 1-2) so each
    cluster owns a coherent region of the taxonomy; with more clusters
    than shallow topics, anchors are reused cyclically (clusters may then
    overlap, which only makes the homophily signal weaker, never wrong).
    """
    candidates: list[str] = []
    for low, high in ((2, 3), (1, 2), (0, 1)):
        candidates = [
            t
            for t in taxonomy
            if low < taxonomy.depth(t) <= high and not taxonomy.is_leaf(t)
        ]
        if len(candidates) >= n_clusters:
            break
    if not candidates:
        candidates = [taxonomy.root]
    candidates.sort()  # iteration order of a dict-backed set is stable, but be explicit
    rng.shuffle(candidates)
    per_cluster = max(1, min(2, len(candidates) // n_clusters))
    anchors: dict[int, tuple[str, ...]] = {}
    for cluster in range(n_clusters):
        start = cluster * per_cluster
        batch = [
            candidates[(start + i) % len(candidates)] for i in range(per_cluster)
        ]
        anchors[cluster] = tuple(sorted(set(batch)))
    return anchors


def _products_under(
    taxonomy: Taxonomy,
    products: dict[str, Product],
    anchors: tuple[str, ...],
) -> list[str]:
    """Products with at least one descriptor inside an anchor's subtree."""
    anchor_topics: set[str] = set()
    for anchor in anchors:
        anchor_topics.add(anchor)
        anchor_topics.update(taxonomy.descendants(anchor))
    return sorted(
        identifier
        for identifier, product in products.items()
        if not product.descriptors.isdisjoint(anchor_topics)
    )


def _rating_count(config: CommunityConfig, rng: random.Random) -> int:
    draw = rng.lognormvariate(config.ratings_mu, config.ratings_sigma)
    return max(config.ratings_min, min(config.ratings_max, int(round(draw))))


def _rating_value(
    config: CommunityConfig, rng: random.Random, quality: float
) -> float:
    if not config.explicit_ratings:
        return 1.0
    # Explicit ratings share a latent per-product *quality* signal plus
    # personal noise — without the shared component, peers' ratings of
    # the same product would be mutually uninformative and no
    # collaborative predictor could beat the global mean.
    value = quality + rng.gauss(0.0, 0.2)
    if rng.random() < 0.05:  # occasional contrarian opinion
        value = -value
    return round(max(-1.0, min(1.0, value)), 3)


def generate_community(config: CommunityConfig) -> SyntheticCommunity:
    """Generate a full synthetic community from *config* (deterministic)."""
    rng = random.Random(config.seed)
    taxonomy_config = config.taxonomy or book_taxonomy_config(seed=config.seed)
    taxonomy = generate_taxonomy(taxonomy_config)
    products = generate_products(
        taxonomy, config.n_products, seed=config.seed + 1
    )

    dataset = Dataset(products=dict(products))
    width = len(str(config.n_agents))
    agent_uris = [
        f"http://agents.example.org/a{i:0{width}d}" for i in range(config.n_agents)
    ]
    for i, uri in enumerate(agent_uris):
        dataset.add_agent(Agent(uri=uri, name=f"Agent {i}"))

    membership = {
        uri: rng.randrange(config.n_clusters) for uri in agent_uris
    }
    anchors = _cluster_anchor_topics(taxonomy, config.n_clusters, rng)
    cluster_products = {
        cluster: tuple(_products_under(taxonomy, products, anchor_batch))
        for cluster, anchor_batch in anchors.items()
    }
    all_products = sorted(products)

    # -- ratings ------------------------------------------------------------
    # Latent product quality, shared across raters (explicit mode only).
    quality = {
        product: round(rng.uniform(0.1, 0.9), 3) for product in all_products
    }
    for uri in agent_uris:
        cluster = membership[uri]
        own_pool = cluster_products.get(cluster) or tuple(all_products)
        count = _rating_count(config, rng)
        chosen: set[str] = set()
        attempts = 0
        while len(chosen) < count and attempts < count * 20:
            attempts += 1
            if rng.random() < config.interest_fidelity:
                product = own_pool[rng.randrange(len(own_pool))]
            else:
                product = all_products[rng.randrange(len(all_products))]
            chosen.add(product)
        for product in sorted(chosen):
            dataset.add_rating(
                Rating(
                    agent=uri,
                    product=product,
                    value=_rating_value(config, rng, quality[product]),
                )
            )

    # -- trust edges ----------------------------------------------------------
    by_cluster: dict[int, list[str]] = {}
    for uri, cluster in membership.items():
        by_cluster.setdefault(cluster, []).append(uri)
    # Preferential attachment: targets drawn from a pool where every agent
    # appears once plus once more per received edge.
    attachment_pool: list[str] = list(agent_uris)
    cluster_pools: dict[int, list[str]] = {
        c: list(members) for c, members in by_cluster.items()
    }

    for uri in agent_uris:
        cluster = membership[uri]
        mean_extra = max(config.trust_mean_out - config.trust_min_out, 0.001)
        extra = int(rng.expovariate(1.0 / mean_extra)) if mean_extra > 0 else 0
        degree = min(config.trust_min_out + extra, config.n_agents - 1)
        targets: set[str] = set()
        attempts = 0
        while len(targets) < degree and attempts < degree * 30:
            attempts += 1
            same_cluster = rng.random() < config.trust_homophily
            pool = cluster_pools.get(cluster) if same_cluster else attachment_pool
            if not pool:
                pool = attachment_pool
            candidate = pool[rng.randrange(len(pool))]
            if candidate != uri and candidate not in targets:
                targets.add(candidate)
        for target in sorted(targets):
            if config.distrust_fraction > 0 and rng.random() < config.distrust_fraction:
                weight = -round(rng.uniform(0.3, 1.0), 3)
            else:
                weight = round(rng.uniform(0.4, 1.0), 3)
            dataset.add_trust(TrustStatement(source=uri, target=target, value=weight))
            # Strengthen preferential attachment toward popular agents.
            attachment_pool.append(target)
            cluster_pools.setdefault(membership[target], []).append(target)

    dataset.validate()
    return SyntheticCommunity(
        dataset=dataset,
        taxonomy=taxonomy,
        membership=membership,
        cluster_topics=anchors,
        config=config,
        cluster_products=cluster_products,
    )


def stream_trust_edges(
    n_agents: int,
    *,
    mean_out: float = 8.0,
    seed: int = 42,
    distrust_fraction: float = 0.05,
    n_clusters: int = 16,
    homophily: float = 0.75,
    hub_bias: float = 2.0,
) -> Iterator[tuple[str, str, float]]:
    """Stream the trust edges of a web-of-trust too large to materialize.

    :func:`generate_community` builds the whole :class:`Dataset` —
    products, ratings, taxonomy — which caps it at ~10^4 agents in
    practice.  Million-agent trust-propagation benchmarks only need the
    *edges*, so this generator yields ``(source, target, weight)``
    statements one at a time in O(out-degree) memory, shaped like the
    §4 communities the full generator plants:

    * heavy-tailed out-degrees (exponential around *mean_out*) with hub
      structure — low-index agents attract edges with probability
      ``~ rank^(-1/hub_bias)``, the streaming stand-in for preferential
      attachment;
    * interest homophily: with probability *homophily* an edge stays in
      the source's cluster (agents ``i ≡ c (mod n_clusters)``);
    * a *distrust_fraction* of statements carry negative weights.

    Ordered pairs are unique per source, self-loops never occur, every
    agent states at least one edge, and the stream is deterministic
    given *seed* — so two passes (one to pack a
    :class:`~repro.perf.trustmatrix.TrustMatrix`, one to build the
    oracle's :class:`~repro.trust.graph.TrustGraph`) see identical
    statements in identical order.
    """
    if n_agents < 2:
        raise ValueError("n_agents must be at least 2")
    if mean_out <= 0.0:
        raise ValueError("mean_out must be positive")
    if not 0.0 <= distrust_fraction <= 0.5:
        raise ValueError("distrust_fraction must lie in [0, 0.5]")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must lie in [0, 1]")
    if hub_bias < 1.0:
        raise ValueError("hub_bias must be at least 1.0")
    rng = random.Random(seed)
    n_clusters = max(1, min(n_clusters, n_agents))
    width = len(str(n_agents - 1))
    names = [f"urn:agent:{i:0{width}d}" for i in range(n_agents)]
    for i in range(n_agents):
        cluster = i % n_clusters
        # Agents i ≡ cluster (mod n_clusters): there are this many.
        members = (n_agents - cluster + n_clusters - 1) // n_clusters
        degree = 1 + min(n_agents - 2, int(rng.expovariate(1.0 / mean_out)))
        chosen: set[int] = set()
        for _ in range(degree):
            if members > 1 and rng.random() < homophily:
                j = cluster + n_clusters * int(members * rng.random() ** hub_bias)
            else:
                j = int(n_agents * rng.random() ** hub_bias)
            j = min(j, n_agents - 1)
            if j == i or j in chosen:
                continue
            chosen.add(j)
            if rng.random() < distrust_fraction:
                weight = -round(rng.uniform(0.3, 1.0), 3)
            else:
                weight = round(rng.uniform(0.4, 1.0), 3)
            yield names[i], names[j], weight
