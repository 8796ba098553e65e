"""Unit tests for the end-to-end recommenders."""

from __future__ import annotations

import pytest

from repro.core.models import Agent, Dataset, Product, Rating
from repro.core.neighborhood import NeighborhoodFormation
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import (
    ContentBasedExplorer,
    PopularityRecommender,
    ProfileStore,
    PureCFRecommender,
    RandomRecommender,
    SemanticWebRecommender,
    TrustOnlyRecommender,
)
from repro.core.synthesis import LinearBlend
from repro.trust.graph import TrustGraph

ALICE = "http://example.org/alice"
BOB = "http://example.org/bob"
CAROL = "http://example.org/carol"
DAVE = "http://example.org/dave"
EVE = "http://example.org/eve"


class TestProfileStore:
    def test_caches_profiles(self, tiny_dataset, figure1):
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        first = store.profile(ALICE)
        second = store.profile(ALICE)
        assert first is second

    def test_invalidate_single(self, tiny_dataset, figure1):
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        first = store.profile(ALICE)
        store.invalidate(ALICE)
        assert store.profile(ALICE) is not first

    def test_invalidate_all(self, tiny_dataset, figure1):
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        first = store.profile(ALICE)
        store.invalidate()
        assert store.profile(ALICE) is not first

    def test_agent_without_ratings_empty_profile(self, figure1):
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:1"))
        store = ProfileStore(dataset, TaxonomyProfileBuilder(figure1))
        assert store.profile("u:1") == {}

    def test_empty_profile_is_built_once(self, figure1, monkeypatch):
        """A falsy profile is memoised like any other: fills test ``is None``."""
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:1"))
        builder = TaxonomyProfileBuilder(figure1)
        calls: list[dict[str, float]] = []
        build = builder.build

        def counting_build(ratings, products):
            calls.append(dict(ratings))
            return build(ratings, products)

        monkeypatch.setattr(builder, "build", counting_build)
        store = ProfileStore(dataset, builder)
        first = store.profile("u:1")
        assert first == {}
        assert store.profile("u:1") is first
        assert calls == [{}]


class TestSemanticWebRecommender:
    @pytest.fixture
    def recommender(self, tiny_dataset, figure1) -> SemanticWebRecommender:
        return SemanticWebRecommender.from_dataset(tiny_dataset, figure1)

    def test_unknown_agent_rejected(self, recommender):
        with pytest.raises(KeyError):
            recommender.recommend("ghost")

    def test_never_recommends_own_rated(self, recommender, tiny_dataset):
        recs = recommender.recommend(ALICE, limit=10)
        own = set(tiny_dataset.ratings_of(ALICE))
        assert not own & {r.product for r in recs}

    def test_scores_descending(self, recommender):
        recs = recommender.recommend(ALICE, limit=10)
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)

    def test_supporters_recorded(self, recommender):
        recs = recommender.recommend(ALICE, limit=10)
        assert recs, "alice's neighborhood rates products she hasn't"
        for rec in recs:
            assert rec.supporters
            assert ALICE not in rec.supporters

    def test_limit_respected(self, recommender):
        assert len(recommender.recommend(ALICE, limit=1)) <= 1

    def test_neighborhood_exposed(self, recommender):
        hood = recommender.neighborhood(ALICE)
        assert BOB in hood
        assert CAROL in hood

    def test_peer_weights_positive(self, recommender):
        weights = recommender.peer_weights(ALICE)
        assert weights
        assert all(v > 0 for v in weights.values())

    def test_deterministic(self, tiny_dataset, figure1):
        first = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        second = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        assert first.recommend(ALICE, 5) == second.recommend(ALICE, 5)

    def test_agent_with_no_trust_gets_no_recs(self, tiny_dataset, figure1):
        recommender = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        # eve states no trust: empty neighborhood, no votes.
        assert recommender.recommend(EVE, limit=5) == []

    def test_custom_formation_and_synthesis(self, tiny_dataset, figure1):
        recommender = SemanticWebRecommender.from_dataset(
            tiny_dataset,
            figure1,
            formation=NeighborhoodFormation(max_peers=1),
            synthesis=LinearBlend(gamma=1.0),
        )
        weights = recommender.peer_weights(ALICE)
        assert len(weights) <= 1


class TestPureCF:
    def test_taxonomy_requires_store(self, tiny_dataset):
        with pytest.raises(ValueError):
            PureCFRecommender(dataset=tiny_dataset, representation="taxonomy")

    def test_unknown_representation(self, tiny_dataset):
        with pytest.raises(ValueError):
            PureCFRecommender(dataset=tiny_dataset, representation="bogus")

    def test_product_mode_defaults_to_cosine(self, tiny_dataset):
        recommender = PureCFRecommender(dataset=tiny_dataset, representation="product")
        assert recommender.similarity_measure == "cosine"

    def test_taxonomy_mode_defaults_to_pearson(self, tiny_dataset, figure1):
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        recommender = PureCFRecommender(dataset=tiny_dataset, profiles=store)
        assert recommender.similarity_measure == "pearson"

    def test_product_mode_finds_co_raters(self, tiny_dataset):
        recommender = PureCFRecommender(dataset=tiny_dataset, representation="product")
        # bob co-rated isbn:1 with alice -> bob's isbn:3 should be votable.
        recs = {r.product for r in recommender.recommend(ALICE, limit=5)}
        assert "isbn:3" in recs

    def test_excludes_own_items(self, tiny_dataset):
        recommender = PureCFRecommender(dataset=tiny_dataset, representation="product")
        recs = {r.product for r in recommender.recommend(ALICE, limit=5)}
        assert not recs & set(tiny_dataset.ratings_of(ALICE))

    def test_neighbors_cap(self, tiny_dataset, figure1):
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        recommender = PureCFRecommender(
            dataset=tiny_dataset, profiles=store, neighbors=1
        )
        assert len(recommender.peer_weights(ALICE)) <= 1

    def test_invalid_neighbors(self, tiny_dataset):
        with pytest.raises(ValueError):
            PureCFRecommender(
                dataset=tiny_dataset, representation="product", neighbors=0
            )


class TestTrustOnly:
    def test_votes_follow_trust(self, tiny_dataset):
        recommender = TrustOnlyRecommender(
            dataset=tiny_dataset, graph=TrustGraph.from_dataset(tiny_dataset)
        )
        recs = recommender.recommend(ALICE, limit=5)
        assert recs
        products = {r.product for r in recs}
        # bob and carol (trusted) rated isbn:3 and isbn:4.
        assert "isbn:3" in products or "isbn:4" in products


class TestContentBasedExplorer:
    def test_only_untouched_categories(self, tiny_dataset, figure1):
        inner = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        explorer = ContentBasedExplorer(inner=inner)
        touched = set(inner.profiles.profile(ALICE))
        for rec in explorer.recommend(ALICE, limit=5):
            product = tiny_dataset.products[rec.product]
            assert product.descriptors.isdisjoint(touched)

    def test_subset_of_votable(self, tiny_dataset, figure1):
        inner = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        explorer = ContentBasedExplorer(inner=inner)
        all_votable = {r.product for r in inner.recommend(ALICE, limit=100)}
        fresh = {r.product for r in explorer.recommend(ALICE, limit=100)}
        assert fresh <= all_votable


class TestNonPersonalized:
    def test_random_is_deterministic_per_seed(self, tiny_dataset):
        first = RandomRecommender(dataset=tiny_dataset, seed=3)
        second = RandomRecommender(dataset=tiny_dataset, seed=3)
        assert first.recommend(ALICE, 3) == second.recommend(ALICE, 3)

    def test_random_differs_across_seeds(self, tiny_dataset):
        lists = {
            tuple(r.product for r in RandomRecommender(tiny_dataset, seed=s).recommend(ALICE, 3))
            for s in range(5)
        }
        assert len(lists) > 1

    def test_random_excludes_rated(self, tiny_dataset):
        recs = RandomRecommender(dataset=tiny_dataset).recommend(ALICE, 10)
        assert not {r.product for r in recs} & set(tiny_dataset.ratings_of(ALICE))

    def test_popularity_order(self, tiny_dataset):
        recs = PopularityRecommender(dataset=tiny_dataset).recommend(DAVE, 10)
        counts = [r.score for r in recs]
        assert counts == sorted(counts, reverse=True)

    def test_popularity_excludes_own(self, tiny_dataset):
        recs = PopularityRecommender(dataset=tiny_dataset).recommend(ALICE, 10)
        assert not {r.product for r in recs} & set(tiny_dataset.ratings_of(ALICE))

    def test_popularity_ignores_own_vote_in_counts(self):
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:1"))
        dataset.add_agent(Agent(uri="u:2"))
        dataset.add_product(Product(identifier="p:1"))
        dataset.add_product(Product(identifier="p:2"))
        dataset.add_rating(Rating(agent="u:2", product="p:1"))
        recs = PopularityRecommender(dataset=dataset).recommend("u:1", 5)
        assert [r.product for r in recs] == ["p:1"]


class TestPipelineOnGeneratedCommunity:
    def test_end_to_end(self, small_community):
        dataset = small_community.dataset
        recommender = SemanticWebRecommender.from_dataset(
            dataset, small_community.taxonomy
        )
        agent = sorted(dataset.agents)[0]
        recs = recommender.recommend(agent, limit=10)
        assert len(recs) > 0
        assert all(r.product in dataset.products for r in recs)
        assert all(r.score > 0 for r in recs)


class TestCacheInvalidation:
    """RL200 regressions: every invalidator must reach the shared store.

    The paper's long-lived machine agents ingest ratings *while* serving
    recommendations; on the seed, ``PureCFRecommender.invalidate_cache``
    dropped only the product-mode caches and taxonomy-mode queries kept
    serving profiles built before the mutation.
    """

    def test_pure_cf_taxonomy_invalidation_reaches_shared_store(
        self, tiny_dataset, figure1
    ):
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        recommender = PureCFRecommender(dataset=tiny_dataset, profiles=store)
        recommender.recommend(ALICE)  # fill the shared profile cache
        stale = store.profile(ALICE)
        assert "Literature" not in stale

        tiny_dataset.add_rating(Rating(agent=ALICE, product="isbn:4", value=1.0))
        recommender.invalidate_cache()

        fresh = store.profile(ALICE)
        assert fresh is not stale
        assert "Literature" in fresh

    def test_pure_cf_taxonomy_invalidation_drops_packed_matrix(
        self, tiny_dataset, figure1
    ):
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(figure1))
        recommender = PureCFRecommender(dataset=tiny_dataset, profiles=store)
        before = store.matrix()
        recommender.invalidate_cache()
        assert store.matrix() is not before

    def test_pure_cf_product_mode_still_drops_own_caches(self, tiny_dataset):
        recommender = PureCFRecommender(
            dataset=tiny_dataset, representation="product"
        )
        recommender.recommend(ALICE)
        assert recommender._product_profiles
        recommender.invalidate_cache()
        assert not recommender._product_profiles
        assert recommender._product_matrix is None

    def test_semantic_web_recommender_invalidate_all(self, tiny_dataset, figure1):
        recommender = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        recommender.peer_weights(ALICE)
        stale = recommender.profiles.profile(ALICE)

        tiny_dataset.add_rating(Rating(agent=ALICE, product="isbn:4", value=1.0))
        recommender.invalidate_cache()

        fresh = recommender.profiles.profile(ALICE)
        assert fresh is not stale
        assert "Literature" in fresh

    def test_semantic_web_recommender_invalidate_single_agent(
        self, tiny_dataset, figure1
    ):
        recommender = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        recommender.peer_weights(ALICE)
        alice_before = recommender.profiles.profile(ALICE)
        bob_before = recommender.profiles.profile(BOB)

        recommender.invalidate_cache(ALICE)

        assert recommender.profiles.profile(ALICE) is not alice_before
        assert recommender.profiles.profile(BOB) is bob_before
