"""Cross-module integration tests: the full decentralized loop.

Scenario mirrors §4: a community publishes FOAF homepages plus the global
taxonomy/catalog documents, a crawler replicates them locally, the
recommender computes from the partial replica, updates propagate
asynchronously, and attacks are repelled by the trust layer.
"""

from __future__ import annotations

import pytest

from repro.core.neighborhood import NeighborhoodFormation
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import (
    ProfileStore,
    PureCFRecommender,
    SemanticWebRecommender,
)
from repro.datasets.io import load_dataset, save_dataset
from repro.evaluation.attacks import inject_profile_copy_attack
from repro.trust.graph import TrustGraph
from repro.web.crawler import Crawler, publish_community
from repro.web.network import SimulatedWeb


@pytest.fixture(scope="module")
def world(small_community):
    web = SimulatedWeb()
    taxonomy_uri, catalog_uri = publish_community(
        web, small_community.dataset, small_community.taxonomy
    )
    return web, taxonomy_uri, catalog_uri, small_community


class TestDecentralizedLoop:
    def test_crawl_covers_trust_component(self, world):
        web, taxonomy_uri, catalog_uri, community = world
        crawler = Crawler(web=web)
        crawler.fetch_global_documents(taxonomy_uri, catalog_uri)
        seed = sorted(community.dataset.agents)[0]
        report = crawler.crawl([seed])
        graph = TrustGraph.from_dataset(community.dataset)
        reachable = graph.reachable_from(seed)
        assert report.fetched == len(reachable)

    def test_partial_replica_recommends(self, world):
        web, taxonomy_uri, catalog_uri, community = world
        crawler = Crawler(web=web)
        crawler.fetch_global_documents(taxonomy_uri, catalog_uri)
        seed = sorted(community.dataset.agents)[0]
        crawler.crawl([seed])
        partial, failures = crawler.store.assemble_dataset()
        assert not failures
        taxonomy = crawler.store.assemble_taxonomy()
        recommender = SemanticWebRecommender.from_dataset(partial, taxonomy)
        recs = recommender.recommend(seed, limit=10)
        assert recs

    def test_replica_equals_source_data(self, world):
        """Crawled trust/ratings agree exactly with the published truth."""
        web, taxonomy_uri, catalog_uri, community = world
        crawler = Crawler(web=web)
        crawler.fetch_global_documents(taxonomy_uri, catalog_uri)
        seed = sorted(community.dataset.agents)[0]
        crawler.crawl([seed])
        partial, _ = crawler.store.assemble_dataset()
        for agent in partial.agents:
            assert partial.trust_of(agent) == community.dataset.trust_of(agent)
            assert partial.ratings_of(agent) == community.dataset.ratings_of(agent)

    def test_asynchronous_update_visible_after_refresh(self, world):
        web, taxonomy_uri, catalog_uri, community = world
        crawler = Crawler(web=web)
        crawler.fetch_global_documents(taxonomy_uri, catalog_uri)
        seed = sorted(community.dataset.agents)[0]
        crawler.crawl([seed])

        # The seed agent rates one more product and republishes.
        from repro.semweb.foaf import publish_agent
        from repro.semweb.serializer import serialize_ntriples

        new_product = sorted(community.dataset.products)[0]
        ratings = dict(community.dataset.ratings_of(seed))
        ratings[new_product] = 1.0
        body = serialize_ntriples(
            publish_agent(
                community.dataset.agents[seed],
                community.dataset.trust_of(seed),
                ratings,
            )
        )
        web.stage_update(seed, body)
        web.deliver()

        crawler.refresh()
        partial, _ = crawler.store.assemble_dataset()
        assert new_product in partial.ratings_of(seed)


class TestDatasetPersistenceIntegration:
    def test_save_load_preserves_recommendations(self, small_community, tmp_path):
        dataset = small_community.dataset
        taxonomy = small_community.taxonomy
        path = tmp_path / "snapshot.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        agent = sorted(dataset.agents)[5]
        original = SemanticWebRecommender.from_dataset(dataset, taxonomy)
        restored = SemanticWebRecommender.from_dataset(loaded, taxonomy)
        assert original.recommend(agent, 10) == restored.recommend(agent, 10)


class TestAttackIntegration:
    def test_profile_copy_attack_blocked_by_trust(self, small_community):
        dataset = small_community.dataset
        taxonomy = small_community.taxonomy
        victim = max(
            sorted(dataset.agents),
            key=lambda a: len(dataset.ratings_of(a)),
        )
        attack = inject_profile_copy_attack(
            dataset, victim=victim, n_sybils=30, n_pushed=3, seed=9
        )
        train = attack.dataset
        store = ProfileStore(train, TaxonomyProfileBuilder(taxonomy))

        trusted = SemanticWebRecommender(
            dataset=train,
            graph=TrustGraph.from_dataset(train),
            profiles=store,
            formation=NeighborhoodFormation(),
        )
        blind = PureCFRecommender(dataset=train, profiles=store)

        trusted_recs = {r.product for r in trusted.recommend(victim, 10)}
        blind_recs = {r.product for r in blind.recommend(victim, 10)}
        assert not trusted_recs & attack.pushed_products
        assert blind_recs & attack.pushed_products

    def test_sybils_dominate_blind_neighborhood(self, small_community):
        """Sanity check of the attack mechanics: without trust filtering,
        the most similar peers are the sybil copies themselves."""
        dataset = small_community.dataset
        taxonomy = small_community.taxonomy
        victim = max(
            sorted(dataset.agents), key=lambda a: len(dataset.ratings_of(a))
        )
        attack = inject_profile_copy_attack(
            dataset, victim=victim, n_sybils=30, n_pushed=3, seed=9
        )
        store = ProfileStore(attack.dataset, TaxonomyProfileBuilder(taxonomy))
        blind = PureCFRecommender(dataset=attack.dataset, profiles=store)
        weights = blind.peer_weights(victim)
        sybil_share = len(set(weights) & attack.sybils) / len(weights)
        assert sybil_share > 0.5
