"""Integration tests for the LocalAgent facade."""

from __future__ import annotations

import pytest

from repro.agent import LocalAgent
from repro.web.crawler import publish_community
from repro.web.network import SimulatedWeb
from repro.web.replicator import publish_split_community


@pytest.fixture
def merged_world(small_community):
    web = SimulatedWeb()
    publish_community(web, small_community.dataset, small_community.taxonomy)
    return web, small_community


@pytest.fixture
def split_world(small_community):
    web = SimulatedWeb()
    publish_split_community(web, small_community.dataset, small_community.taxonomy)
    return web, small_community


def _seed_uri(community) -> str:
    return sorted(community.dataset.agents)[0]


class TestLifecycle:
    def test_queries_before_sync_rejected(self, merged_world):
        web, community = merged_world
        agent = LocalAgent(uri=_seed_uri(community), web=web)
        with pytest.raises(RuntimeError):
            agent.recommendations()
        with pytest.raises(RuntimeError):
            agent.replica
        with pytest.raises(RuntimeError):
            agent.taxonomy

    def test_sync_builds_replica(self, merged_world):
        web, community = merged_world
        agent = LocalAgent(uri=_seed_uri(community), web=web)
        stats = agent.sync()
        assert stats["agents_replicated"] > 1
        assert stats["fetched"] > 2
        assert len(agent.taxonomy) == len(community.taxonomy)

    def test_second_sync_is_incremental(self, merged_world):
        web, community = merged_world
        agent = LocalAgent(uri=_seed_uri(community), web=web)
        first = agent.sync()
        second = agent.sync()
        # Globals are version-bumped never, homepages unchanged: only the
        # two global docs are refetched unconditionally.
        assert second["fetched"] <= 2
        assert second["agents_replicated"] == first["agents_replicated"]

    def test_sync_picks_up_updates(self, merged_world):
        web, community = merged_world
        seed = _seed_uri(community)
        agent = LocalAgent(uri=seed, web=web)
        agent.sync()
        before = {r.product for r in agent.recommendations(limit=5)}

        # A trusted peer republishes with new ratings.
        from repro.semweb.foaf import publish_agent
        from repro.semweb.serializer import serialize_ntriples

        dataset = community.dataset
        peer = next(iter(dataset.trust_of(seed)))
        ratings = dict(dataset.ratings_of(peer))
        for product in sorted(dataset.products)[:8]:
            ratings.setdefault(product, 1.0)
        web.publish(
            peer,
            serialize_ntriples(
                publish_agent(dataset.agents[peer], dataset.trust_of(peer), ratings)
            ),
        )
        stats = agent.sync()
        assert stats["fetched"] >= 3  # two globals + the updated peer
        after = {r.product for r in agent.recommendations(limit=5)}
        assert isinstance(before, set) and isinstance(after, set)


class TestQueries:
    def test_recommendations(self, merged_world):
        web, community = merged_world
        agent = LocalAgent(uri=_seed_uri(community), web=web)
        agent.sync()
        recs = agent.recommendations(limit=5)
        assert recs
        assert all(r.product in agent.replica.products for r in recs)

    def test_trusted_peers(self, merged_world):
        web, community = merged_world
        seed = _seed_uri(community)
        agent = LocalAgent(uri=seed, web=web)
        agent.sync()
        peers = agent.trusted_peers(limit=5)
        assert peers
        assert all(rank > 0 for _, rank in peers)
        assert seed not in {peer for peer, _ in peers}

    def test_predict_rating(self, merged_world):
        web, community = merged_world
        agent = LocalAgent(uri=_seed_uri(community), web=web)
        agent.sync()
        recs = agent.recommendations(limit=1)
        value = agent.predict_rating(recs[0].product)
        assert value is None or -1.0 <= value <= 1.0

    def test_explain(self, merged_world):
        web, community = merged_world
        agent = LocalAgent(uri=_seed_uri(community), web=web)
        agent.sync()
        recs = agent.recommendations(limit=1)
        text = agent.explain(recs[0])
        assert recs[0].product in text or "Book" in text
        assert "trust neighborhood" in text


class TestSplitChannel:
    def test_sync_mines_weblogs(self, split_world):
        web, community = split_world
        agent = LocalAgent(uri=_seed_uri(community), web=web)
        stats = agent.sync()
        assert stats["mined_weblog_ratings"] > 0
        # Ratings are recoverable despite rating-free homepages.
        assert len(agent.replica.ratings) > 0
        assert agent.recommendations(limit=5)
