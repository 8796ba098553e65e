"""repro — reproduction of *Semantic Web Recommender Systems* (EDBT 2004).

A decentralized, trust-aware, taxonomy-driven recommender framework:

* :mod:`repro.core` — the paper's contribution: taxonomy profiles (Eq. 3),
  similarity filtering, trust neighborhoods, rank synthesis, recommenders.
* :mod:`repro.trust` — Appleseed and Advogato group trust metrics plus
  scalar baselines, all built on a sparse signed trust graph.
* :mod:`repro.semweb` — RDF triple store, N-Triples round-trip, FOAF-like
  agent homepages with trust and rating statements.
* :mod:`repro.web` — simulated decentralized Web: document hosting,
  asynchronous updates, a link-following crawler, a local replica store.
* :mod:`repro.datasets` — synthetic communities and taxonomies standing in
  for the crawled All Consuming / Advogato / Amazon data of §4.
* :mod:`repro.evaluation` — metrics, protocols, attack models and the
  EX1–EX23 experiment suite (see DESIGN.md / EXPERIMENTS.md).
* :mod:`repro.analysis` — reprolint, the domain-aware static-analysis
  pass holding the §3.1 range and determinism invariants; the test
  suite runs it over the whole tree (see docs/ANALYSIS.md).

Quickstart::

    from repro import quickstart_community, SemanticWebRecommender
    dataset, taxonomy = quickstart_community(seed=7)
    rec = SemanticWebRecommender.from_dataset(dataset, taxonomy)
    agent = next(iter(dataset.agents))
    for item in rec.recommend(agent, limit=5):
        print(item.product, round(item.score, 3))
"""

from .agent import LocalAgent
from .core import (
    Agent,
    Dataset,
    NeighborhoodFormation,
    Product,
    PureCFRecommender,
    Rating,
    Recommendation,
    SemanticWebRecommender,
    Taxonomy,
    TaxonomyProfileBuilder,
    TrustOnlyRecommender,
    TrustStatement,
    figure1_fragment,
)
from .trust import Advogato, Appleseed, TrustGraph

__version__ = "1.0.0"

__all__ = [
    "Advogato",
    "Agent",
    "Appleseed",
    "Dataset",
    "LocalAgent",
    "NeighborhoodFormation",
    "Product",
    "PureCFRecommender",
    "Rating",
    "Recommendation",
    "SemanticWebRecommender",
    "Taxonomy",
    "TaxonomyProfileBuilder",
    "TrustGraph",
    "TrustOnlyRecommender",
    "TrustStatement",
    "figure1_fragment",
    "quickstart_community",
]


def quickstart_community(seed: int = 7, agents: int = 120, products: int = 200):
    """Generate a small synthetic community for demos and doctests.

    Returns ``(dataset, taxonomy)``.  Thin convenience wrapper around
    :func:`repro.datasets.generate_community`.
    """
    from .datasets import CommunityConfig, generate_community

    config = CommunityConfig(n_agents=agents, n_products=products, seed=seed)
    community = generate_community(config)
    return community.dataset, community.taxonomy
