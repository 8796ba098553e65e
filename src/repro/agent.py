"""LocalAgent: the consumer-side stack behind one user, in one object.

The paper's central architectural commitment is that "our devised
Semantic Web recommender system performs all recommendation computations
locally for one given user" (§2).  :class:`LocalAgent` is that local
system: it owns a replica of the agent's corner of the Web, keeps it
fresh, and answers recommendation/trust/prediction queries from the
replica alone.

Typical session::

    from repro.agent import LocalAgent

    agent = LocalAgent(uri="http://agents.example.org/a0001", web=web)
    agent.sync(budget=200)            # crawl homepages + globals (+weblogs)
    agent.recommendations(limit=10)   # §3 pipeline over the replica
    agent.trusted_peers(limit=5)      # Appleseed neighborhood
    agent.sync()                      # later: refresh stale documents

The object is deliberately stateful: repeated :meth:`sync` calls perform
incremental refreshes (conditional fetches), exactly like the paper's
"tailored crawlers … ensure data freshness" (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.models import Dataset
from .core.neighborhood import NeighborhoodFormation
from .core.prediction import RatingPredictor
from .core.profiles import TaxonomyProfileBuilder
from .core.recommender import ProfileStore, Recommendation, SemanticWebRecommender
from .core.synthesis import LinearBlend, SynthesisStrategy
from .core.taxonomy import Taxonomy
from .trust.graph import TrustGraph
from .web.crawler import DEFAULT_CATALOG_URI, DEFAULT_TAXONOMY_URI, Crawler
from .web.faults import RetryPolicy
from .web.network import SimulatedWeb, WebError
from .web.replicator import harvest_weblogs
from .web.storage import DocumentStore

__all__ = ["LocalAgent"]


@dataclass
class LocalAgent:
    """One user's complete local recommender system.

    Parameters
    ----------
    uri:
        The agent's own URI (the crawl seed and recommendation
        principal).
    web:
        The Web the agent lives on.
    formation, synthesis:
        Pipeline configuration, defaulting to the paper's published
        parameters.
    retry:
        Opt into bounded retries with backoff for transient fetch
        failures; circuit breakers and stale-replica fallback come with
        it (see :mod:`repro.web.faults`).
    """

    uri: str
    web: SimulatedWeb
    formation: NeighborhoodFormation = field(default_factory=NeighborhoodFormation)
    synthesis: SynthesisStrategy = field(default_factory=LinearBlend)
    taxonomy_uri: str = DEFAULT_TAXONOMY_URI
    catalog_uri: str = DEFAULT_CATALOG_URI
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        self._crawler = Crawler(web=self.web, store=DocumentStore(), retry=self.retry)
        self._dataset: Dataset | None = None
        self._taxonomy: Taxonomy | None = None
        self._recommender: SemanticWebRecommender | None = None

    # -- replica lifecycle -----------------------------------------------------

    def sync(self, budget: int | None = None) -> dict[str, int]:
        """Crawl/refresh the replica and rebuild the local pipeline.

        The first call discovers the agent's trust component; later
        calls re-fetch only documents whose live version advanced.
        Returns a small stats dict for logging.
        """
        globals_report = self._crawler.fetch_global_documents(
            self.taxonomy_uri, self.catalog_uri
        )
        crawl_report = self._crawler.crawl([self.uri], budget=budget)
        refresh_report = self._crawler.refresh()

        dataset, _ = self._crawler.store.assemble_dataset()
        taxonomy = self._crawler.store.assemble_taxonomy()
        if taxonomy is None:
            raise WebError(self.taxonomy_uri)

        mined = harvest_weblogs(self._crawler, dataset).mined

        self._dataset = dataset
        self._taxonomy = taxonomy
        self._recommender = SemanticWebRecommender(
            dataset=dataset,
            graph=TrustGraph.from_dataset(dataset),
            profiles=ProfileStore(dataset, TaxonomyProfileBuilder(taxonomy)),
            formation=self.formation,
            synthesis=self.synthesis,
        )
        reports = (globals_report, crawl_report, refresh_report)
        return {
            "fetched": sum(r.fetched for r in reports),
            "agents_replicated": len(dataset.agents),
            "mined_weblog_ratings": mined,
            "retries": sum(r.retries for r in reports),
            "degraded": sum(1 for _ in self._crawler.store.degraded_uris()),
            "breaker_trips": self._crawler.breakers.trips,
        }

    # -- queries ------------------------------------------------------------------

    @property
    def replica(self) -> Dataset:
        """The current partial dataset (raises until the first sync)."""
        if self._dataset is None:
            raise RuntimeError("call sync() before querying the replica")
        return self._dataset

    @property
    def taxonomy(self) -> Taxonomy:
        """The shared taxonomy fetched from the global document."""
        if self._taxonomy is None:
            raise RuntimeError("call sync() before querying the replica")
        return self._taxonomy

    def _pipeline(self) -> SemanticWebRecommender:
        if self._recommender is None:
            raise RuntimeError("call sync() before querying the replica")
        return self._recommender

    def recommendations(self, limit: int = 10) -> list[Recommendation]:
        """Top-*limit* product recommendations from the replica."""
        return self._pipeline().recommend(self.uri, limit=limit)

    def trusted_peers(self, limit: int | None = None) -> list[tuple[str, float]]:
        """The agent's Appleseed trust neighborhood, best first."""
        return self._pipeline().neighborhood(self.uri).top(limit)

    def predict_rating(self, product: str) -> float | None:
        """Predicted rating for *product*, or ``None`` without evidence."""
        pipeline = self._pipeline()
        predictor = RatingPredictor(self.replica, pipeline.peer_weights)
        return predictor.predict(self.uri, product)

    def explain(self, recommendation: Recommendation) -> str:
        """Human-readable provenance of one recommendation."""
        dataset = self.replica
        product = dataset.products.get(recommendation.product)
        title = str(product) if product is not None else recommendation.product
        supporters = ", ".join(
            str(dataset.agents.get(peer, peer)) for peer in recommendation.supporters
        )
        return (
            f"{title} (score {recommendation.score:.3f}) — recommended because "
            f"{len(recommendation.supporters)} peers in your trust neighborhood "
            f"rated it positively: {supporters}"
        )
