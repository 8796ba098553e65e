"""Population-dynamics engine: events, ground truth, determinism."""

from __future__ import annotations

import pytest

from repro.datasets.generators import CommunityConfig, generate_community
from repro.evaluation.dynamics import (
    JOINER_PREFIX,
    MIN_POPULATION,
    NEWCOMER_PREFIX,
    AgentChurn,
    ColdStartWave,
    EpochSnapshot,
    InterestDrift,
    SybilRingGrowth,
    Timeline,
    TrustSpamCampaign,
)


@pytest.fixture(scope="module")
def community():
    """A small generated community shared by the dynamics tests."""
    config = CommunityConfig(n_agents=40, n_products=80, n_clusters=4, seed=7)
    return generate_community(config)


def dataset_signature(dataset) -> tuple:
    """A byte-comparable summary of a dataset's full contents."""
    return (
        tuple(sorted(dataset.agents)),
        tuple(sorted(dataset.products)),
        tuple(sorted((k, v.value) for k, v in dataset.trust.items())),
        tuple(sorted((k, v.value) for k, v in dataset.ratings.items())),
    )


class TestCopyDataset:
    def test_copies_are_independent(self, tiny_dataset):
        clone = tiny_dataset.copy()
        assert dataset_signature(clone) == dataset_signature(tiny_dataset)
        del clone.agents["http://example.org/eve"]
        assert "http://example.org/eve" in tiny_dataset.agents


class TestTimeline:
    def test_validation(self, community):
        with pytest.raises(ValueError):
            Timeline(community=community, events=[AgentChurn()], n_epochs=0)
        with pytest.raises(ValueError):
            Timeline(community=community, events=[], n_epochs=2)

    def test_original_community_untouched(self, community):
        before = dataset_signature(community.dataset)
        Timeline(
            community=community,
            events=[AgentChurn(leave_rate=0.2, join_rate=0.2)],
            n_epochs=2,
            seed=1,
        ).run()
        assert dataset_signature(community.dataset) == before

    def test_one_snapshot_per_epoch(self, community):
        snapshots = Timeline(
            community=community, events=[ColdStartWave(wave_size=2)], n_epochs=3, seed=1
        ).run()
        assert [s.epoch for s in snapshots] == [0, 1, 2]
        assert all(isinstance(s, EpochSnapshot) for s in snapshots)

    def test_identical_seeds_are_byte_identical(self, community):
        events = [
            AgentChurn(leave_rate=0.1, join_rate=0.1),
            SybilRingGrowth(ring_growth=3, bridges_per_epoch=1),
            TrustSpamCampaign(compromised_per_epoch=1),
            InterestDrift(drift_rate=0.1),
        ]
        first = Timeline(community=community, events=events, n_epochs=3, seed=5).run()
        second = Timeline(community=community, events=events, n_epochs=3, seed=5).run()
        for a, b in zip(first, second):
            assert dataset_signature(a.dataset) == dataset_signature(b.dataset)
            assert a.truth == b.truth

    def test_different_seeds_differ(self, community):
        events = [AgentChurn(leave_rate=0.2, join_rate=0.2)]
        first = Timeline(community=community, events=events, n_epochs=2, seed=1).run()
        second = Timeline(community=community, events=events, n_epochs=2, seed=2).run()
        assert dataset_signature(first[-1].dataset) != dataset_signature(
            second[-1].dataset
        )

    def test_snapshots_are_independent_copies(self, community):
        snapshots = Timeline(
            community=community, events=[ColdStartWave(wave_size=2)], n_epochs=2, seed=1
        ).run()
        victim = next(iter(sorted(snapshots[0].dataset.agents)))
        del snapshots[0].dataset.agents[victim]
        assert victim in snapshots[1].dataset.agents

    def test_every_epoch_validates(self, community):
        snapshots = Timeline(
            community=community,
            events=[AgentChurn(leave_rate=0.3, join_rate=0.3)],
            n_epochs=2,
            seed=3,
        ).run()
        for snapshot in snapshots:
            snapshot.dataset.validate()


class TestAgentChurn:
    def test_validation(self):
        with pytest.raises(ValueError):
            AgentChurn(leave_rate=1.5)
        with pytest.raises(ValueError):
            AgentChurn(join_rate=-0.1)

    def test_truth_records_joined_and_departed(self, community):
        snapshots = Timeline(
            community=community,
            events=[AgentChurn(leave_rate=0.1, join_rate=0.1)],
            n_epochs=2,
            seed=4,
        ).run()
        truth = snapshots[0].truth
        assert truth.departed and truth.joined
        assert all(uri.startswith(JOINER_PREFIX) for uri in truth.joined)
        assert all(
            uri not in snapshots[0].dataset.agents for uri in truth.departed
        )
        assert all(uri in snapshots[0].dataset.agents for uri in truth.joined)

    def test_departed_leave_no_edges_behind(self, community):
        snapshots = Timeline(
            community=community,
            events=[AgentChurn(leave_rate=0.2, join_rate=0.0)],
            n_epochs=1,
            seed=4,
        ).run()
        departed = snapshots[0].truth.departed
        dataset = snapshots[0].dataset
        assert departed
        for source, target in dataset.trust:
            assert source not in departed and target not in departed
        for agent, _ in dataset.ratings:
            assert agent not in departed

    def test_population_floor_holds(self, community):
        snapshots = Timeline(
            community=community,
            events=[AgentChurn(leave_rate=1.0, join_rate=0.0)],
            n_epochs=3,
            seed=4,
        ).run()
        assert len(snapshots[-1].dataset.agents) >= MIN_POPULATION


class TestColdStartWave:
    def test_validation(self):
        with pytest.raises(ValueError):
            ColdStartWave(wave_size=-1)

    def test_newcomers_arrive_unvouched(self, community):
        snapshots = Timeline(
            community=community,
            events=[ColdStartWave(wave_size=4)],
            n_epochs=2,
            seed=9,
        ).run()
        final = snapshots[-1]
        newcomers = {
            uri for s in snapshots for uri in s.truth.newcomers
        }
        assert len(newcomers) == 8
        assert all(uri.startswith(NEWCOMER_PREFIX) for uri in newcomers)
        # Nobody vouches for a cold-start newcomer.
        assert all(
            target not in newcomers for _, target in final.dataset.trust
        )

    def test_epoch_qualified_uris_never_collide(self, community):
        snapshots = Timeline(
            community=community,
            events=[ColdStartWave(wave_size=3)],
            n_epochs=3,
            seed=9,
        ).run()
        per_epoch = [s.truth.newcomers for s in snapshots]
        for i, first in enumerate(per_epoch):
            for second in per_epoch[i + 1 :]:
                assert not first & second


class TestSybilRingGrowth:
    def test_validation(self):
        with pytest.raises(ValueError):
            SybilRingGrowth(ring_growth=0)
        with pytest.raises(ValueError):
            SybilRingGrowth(bridges_per_epoch=-1)

    def test_ring_accretes_across_epochs(self, community):
        snapshots = Timeline(
            community=community,
            events=[SybilRingGrowth(ring_growth=3, bridges_per_epoch=1)],
            n_epochs=3,
            seed=2,
        ).run()
        counts = [len(s.truth.sybils) for s in snapshots]
        assert counts == [3, 6, 9]
        assert [s.truth.bridges for s in snapshots] == [1, 2, 3]

    def test_zero_bridges_leaves_ring_unreachable(self, community):
        snapshots = Timeline(
            community=community,
            events=[SybilRingGrowth(ring_growth=3, bridges_per_epoch=0)],
            n_epochs=2,
            seed=2,
        ).run()
        final = snapshots[-1]
        sybils = final.truth.sybils
        honest_to_sybil = [
            (s, t)
            for s, t in final.dataset.trust
            if s not in sybils and t in sybils
        ]
        assert honest_to_sybil == []

    def test_waves_interlink(self, community):
        snapshots = Timeline(
            community=community,
            events=[SybilRingGrowth(ring_growth=3, bridges_per_epoch=0)],
            n_epochs=2,
            seed=2,
        ).run()
        wave1 = snapshots[0].truth.sybils
        wave2 = snapshots[1].truth.sybils - wave1
        cross = [
            (s, t)
            for s, t in snapshots[-1].dataset.trust
            if (s in wave1 and t in wave2) or (s in wave2 and t in wave1)
        ]
        assert cross

    def test_sybils_copy_victim_and_push(self, community):
        victim = sorted(community.dataset.agents)[0]
        snapshots = Timeline(
            community=community,
            events=[SybilRingGrowth(ring_growth=2, bridges_per_epoch=0, victim=victim)],
            n_epochs=1,
            seed=2,
        ).run()
        final = snapshots[-1]
        pushed = final.truth.pushed_products
        assert pushed
        victim_positives = {
            p
            for p, v in final.dataset.ratings_of(victim).items()
            if v > 0 and p not in pushed
        }
        for sybil in final.truth.sybils:
            profile = final.dataset.ratings_of(sybil)
            assert pushed <= set(profile)
            assert victim_positives <= set(profile)


class TestTrustSpamCampaign:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrustSpamCampaign(compromised_per_epoch=-1)
        with pytest.raises(ValueError):
            TrustSpamCampaign(edges_per_agent=0)

    def test_noop_without_sybils(self, community):
        snapshots = Timeline(
            community=community,
            events=[TrustSpamCampaign(compromised_per_epoch=2)],
            n_epochs=2,
            seed=8,
        ).run()
        assert snapshots[-1].truth.compromised == frozenset()
        assert snapshots[-1].truth.bridges == 0

    def test_compromised_accumulate_and_spam(self, community):
        snapshots = Timeline(
            community=community,
            events=[
                SybilRingGrowth(ring_growth=3, bridges_per_epoch=0),
                TrustSpamCampaign(compromised_per_epoch=1, edges_per_agent=2),
            ],
            n_epochs=3,
            seed=8,
        ).run()
        compromised = [len(s.truth.compromised) for s in snapshots]
        assert compromised == [1, 2, 3]
        final = snapshots[-1]
        spam = [
            (s, t)
            for s, t in final.dataset.trust
            if s in final.truth.compromised and t in final.truth.sybils
        ]
        assert len(spam) == final.truth.bridges == 6


class TestInterestDrift:
    def test_validation(self):
        with pytest.raises(ValueError):
            InterestDrift(drift_rate=2.0)

    def test_drifters_gain_new_cluster_ratings(self, community):
        snapshots = Timeline(
            community=community,
            events=[InterestDrift(drift_rate=0.2, ratings_per_drift=2)],
            n_epochs=1,
            seed=6,
        ).run()
        truth = snapshots[0].truth
        assert truth.drifted
        baseline = community.dataset
        for uri in truth.drifted:
            before = set(baseline.ratings_of(uri))
            after = set(snapshots[0].dataset.ratings_of(uri))
            assert before < after  # history kept, new ratings added

    def test_zero_rate_is_noop(self, community):
        snapshots = Timeline(
            community=community,
            events=[InterestDrift(drift_rate=0.0)],
            n_epochs=1,
            seed=6,
        ).run()
        assert snapshots[0].truth.drifted == frozenset()
        assert dataset_signature(snapshots[0].dataset) == dataset_signature(
            community.dataset
        )
