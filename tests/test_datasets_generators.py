"""Unit tests for the synthetic community generator."""

from __future__ import annotations

import pytest

from repro.core.similarity import cosine
from repro.datasets.generators import CommunityConfig, generate_community


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            CommunityConfig(n_agents=1)
        with pytest.raises(ValueError):
            CommunityConfig(n_products=0)
        with pytest.raises(ValueError):
            CommunityConfig(n_clusters=0)
        with pytest.raises(ValueError):
            CommunityConfig(n_agents=5, n_clusters=6)
        with pytest.raises(ValueError):
            CommunityConfig(interest_fidelity=1.5)
        with pytest.raises(ValueError):
            CommunityConfig(trust_homophily=-0.1)
        with pytest.raises(ValueError):
            CommunityConfig(distrust_fraction=0.9)
        with pytest.raises(ValueError):
            CommunityConfig(trust_min_out=0)
        with pytest.raises(ValueError):
            CommunityConfig(trust_min_out=5, trust_mean_out=2)
        with pytest.raises(ValueError):
            CommunityConfig(ratings_min=0)


class TestGeneration:
    @pytest.fixture(scope="class")
    def community(self):
        return generate_community(
            CommunityConfig(n_agents=100, n_products=200, n_clusters=5, seed=3)
        )

    def test_sizes(self, community):
        assert len(community.dataset.agents) == 100
        assert len(community.dataset.products) == 200

    def test_dataset_valid(self, community):
        community.dataset.validate()

    def test_membership_covers_all_agents(self, community):
        assert set(community.membership) == set(community.dataset.agents)
        assert all(0 <= c < 5 for c in community.membership.values())

    def test_every_agent_rates(self, community):
        for agent in community.dataset.agents:
            assert len(community.dataset.ratings_of(agent)) >= 2

    def test_every_agent_trusts(self, community):
        for agent in community.dataset.agents:
            assert len(community.dataset.trust_of(agent)) >= 1

    def test_implicit_ratings_are_plus_one(self, community):
        assert all(r.value == 1.0 for r in community.dataset.iter_ratings())

    def test_no_distrust_by_default(self, community):
        assert all(s.value > 0 for s in community.dataset.iter_trust())

    def test_deterministic(self):
        config = CommunityConfig(n_agents=40, n_products=60, n_clusters=4, seed=9)
        first = generate_community(config)
        second = generate_community(config)
        assert first.dataset.trust == second.dataset.trust
        assert first.dataset.ratings == second.dataset.ratings
        assert first.membership == second.membership

    def test_different_seeds_differ(self):
        base = CommunityConfig(n_agents=40, n_products=60, n_clusters=4, seed=1)
        other = CommunityConfig(n_agents=40, n_products=60, n_clusters=4, seed=2)
        assert (
            generate_community(base).dataset.trust
            != generate_community(other).dataset.trust
        )

    def test_cluster_products_nonempty(self, community):
        assert all(community.cluster_products.values())


class TestPlantedStructure:
    """The generator must actually plant the homophily the paper relies on."""

    def test_interest_homophily(self, small_community):
        from repro.core.profiles import TaxonomyProfileBuilder
        from repro.core.recommender import ProfileStore
        import random

        store = ProfileStore(
            small_community.dataset, TaxonomyProfileBuilder(small_community.taxonomy)
        )
        agents = sorted(small_community.dataset.agents)
        rng = random.Random(4)
        same, cross = [], []
        for _ in range(400):
            a, b = rng.sample(agents, 2)
            value = cosine(store.profile(a), store.profile(b))
            if small_community.membership[a] == small_community.membership[b]:
                same.append(value)
            else:
                cross.append(value)
        assert sum(same) / len(same) > sum(cross) / len(cross)

    def test_trust_homophily(self, small_community):
        dataset = small_community.dataset
        membership = small_community.membership
        same = sum(
            1
            for s in dataset.iter_trust()
            if membership[s.source] == membership[s.target]
        )
        total = len(dataset.trust)
        clusters = small_community.config.n_clusters
        # Homophily 0.75 with 6 clusters: same-cluster share must far
        # exceed the 1/6 chance level.
        assert same / total > 2.0 / clusters

    def test_distrust_fraction_respected(self):
        config = CommunityConfig(
            n_agents=80, n_products=100, n_clusters=4, seed=5, distrust_fraction=0.2
        )
        community = generate_community(config)
        negative = sum(1 for s in community.dataset.iter_trust() if s.value < 0)
        total = len(community.dataset.trust)
        assert 0.1 < negative / total < 0.3

    def test_explicit_ratings_mode(self):
        config = CommunityConfig(
            n_agents=40, n_products=80, n_clusters=4, seed=6, explicit_ratings=True
        )
        community = generate_community(config)
        values = [r.value for r in community.dataset.iter_ratings()]
        assert any(v < 0 for v in values)
        assert any(0 < v < 1 for v in values)
        assert all(-1 <= v <= 1 for v in values)
