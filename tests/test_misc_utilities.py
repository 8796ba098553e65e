"""Tests for smaller utilities: fallback recommender, stream helpers,
and loose ends across modules."""

from __future__ import annotations

from repro.core.models import Agent, Dataset, Product, Rating
from repro.core.recommender import (
    FallbackRecommender,
    PopularityRecommender,
    RandomRecommender,
    Recommendation,
    Recommender,
)


class _FixedRecommender(Recommender):
    def __init__(self, items: list[str]) -> None:
        self.items = items

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        return [Recommendation(product=p, score=1.0) for p in self.items[:limit]]


class TestFallbackRecommender:
    def _dataset(self) -> Dataset:
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:new"))
        dataset.add_agent(Agent(uri="u:old"))
        for i in range(6):
            dataset.add_product(Product(identifier=f"p:{i}"))
            dataset.add_rating(Rating(agent="u:old", product=f"p:{i}"))
        return dataset

    def test_primary_sufficient_no_fallback(self):
        combo = FallbackRecommender(
            primary=_FixedRecommender(["a", "b", "c"]),
            fallback=_FixedRecommender(["z"]),
        )
        assert [r.product for r in combo.recommend("u", limit=3)] == ["a", "b", "c"]

    def test_fallback_fills_remainder(self):
        combo = FallbackRecommender(
            primary=_FixedRecommender(["a"]),
            fallback=_FixedRecommender(["x", "y", "z"]),
        )
        assert [r.product for r in combo.recommend("u", limit=3)] == ["a", "x", "y"]

    def test_duplicates_skipped(self):
        combo = FallbackRecommender(
            primary=_FixedRecommender(["a", "b"]),
            fallback=_FixedRecommender(["b", "c", "d"]),
        )
        products = [r.product for r in combo.recommend("u", limit=4)]
        assert products == ["a", "b", "c", "d"]

    def test_cold_start_agent_gets_popularity(self):
        dataset = self._dataset()
        combo = FallbackRecommender(
            primary=_FixedRecommender([]),  # trust pipeline found nothing
            fallback=PopularityRecommender(dataset=dataset),
        )
        recs = combo.recommend("u:new", limit=3)
        assert len(recs) == 3

    def test_empty_everywhere(self):
        combo = FallbackRecommender(
            primary=_FixedRecommender([]), fallback=_FixedRecommender([])
        )
        assert combo.recommend("u", limit=5) == []

    def test_with_real_pipeline(self, small_community, figure1):
        """An agent with no trust falls back to popularity seamlessly."""
        from repro.core.recommender import SemanticWebRecommender

        dataset = small_community.dataset
        # Mint a brand-new agent with ratings but no trust statements.
        dataset_copy = Dataset(
            agents=dict(dataset.agents),
            products=dict(dataset.products),
            trust=dict(dataset.trust),
            ratings=dict(dataset.ratings),
        )
        newcomer = "http://agents.example.org/newcomer"
        dataset_copy.add_agent(Agent(uri=newcomer, name="Newcomer"))
        primary = SemanticWebRecommender.from_dataset(
            dataset_copy, small_community.taxonomy
        )
        assert primary.recommend(newcomer, limit=5) == []
        combo = FallbackRecommender(
            primary=primary, fallback=PopularityRecommender(dataset=dataset_copy)
        )
        recs = combo.recommend(newcomer, limit=5)
        assert len(recs) == 5


class TestStreamHelpers:
    def test_load_ntriples_from_lines(self):
        from repro.semweb.serializer import load_ntriples

        lines = [
            "<http://e.org/s> <http://e.org/p> <http://e.org/o> .",
            "# comment",
        ]
        graph = load_ntriples(lines)
        assert len(graph) == 1

    def test_graphs_isomorphic_simple(self):
        from repro.semweb.rdf import Graph, URIRef
        from repro.semweb.serializer import graphs_isomorphic_simple

        t = (URIRef("u:s"), URIRef("u:p"), URIRef("u:o"))
        assert graphs_isomorphic_simple(Graph([t]), Graph([t]))
        assert not graphs_isomorphic_simple(Graph([t]), Graph())

    def test_iter_records(self):
        from repro.datasets.io import iter_records

        lines = ['{"kind": "agent", "uri": "u:1"}', "", '{"kind": "trust"}']
        records = list(iter_records(lines))
        assert len(records) == 2
        assert records[0]["uri"] == "u:1"


class TestRandomRecommenderEdge:
    def test_empty_catalog(self):
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:1"))
        assert RandomRecommender(dataset=dataset).recommend("u:1", 5) == []
