"""Engine wiring and caching behavior at the recommender layer.

Covers the guarantees the perf subsystem makes to its consumers: engine
choice never changes a recommendation, caches invalidate correctly, and
the two list-assembly fixes (content-based explorer, fallback refetch)
return exactly what the naive implementations would.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.models import Rating
from repro.core.neighborhood import NeighborhoodFormation
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import (
    ContentBasedExplorer,
    FallbackRecommender,
    ProfileStore,
    PureCFRecommender,
    Recommendation,
    Recommender,
    SemanticWebRecommender,
    _rank_votes,
    _vote_scores,
)
from repro.trust.appleseed import Appleseed
from repro.trust.graph import TrustGraph


def _rounded(items: list[Recommendation]) -> list[tuple[str, float]]:
    return [(item.product, round(item.score, 9)) for item in items]


@pytest.fixture
def store(small_community) -> ProfileStore:
    return ProfileStore(
        small_community.dataset, TaxonomyProfileBuilder(small_community.taxonomy)
    )


class TestProfileStoreInvalidate:
    def test_profile_is_cached(self, small_community, store):
        agent = sorted(small_community.dataset.agents)[0]
        assert store.profile(agent) is store.profile(agent)

    def test_single_agent_invalidation(self, small_community, store):
        agents = sorted(small_community.dataset.agents)
        first, second = agents[0], agents[1]
        stale_first = store.profile(first)
        stale_second = store.profile(second)
        store.invalidate(first)
        assert store.profile(first) is not stale_first
        assert store.profile(first) == stale_first  # same ratings, same profile
        assert store.profile(second) is stale_second  # untouched agent kept

    def test_full_invalidation(self, small_community, store):
        agents = sorted(small_community.dataset.agents)[:3]
        stale = [store.profile(agent) for agent in agents]
        store.invalidate()
        for agent, old in zip(agents, stale):
            assert store.profile(agent) is not old

    def test_invalidation_reflects_mutated_ratings(self, small_community, store):
        dataset = small_community.dataset
        agent = sorted(dataset.agents)[0]
        product = sorted(dataset.products)[0]
        before = store.profile(agent)
        rating = Rating(agent=agent, product=product, value=1.0)
        dataset.add_rating(rating)
        try:
            assert store.profile(agent) is before  # cache hides the mutation
            store.invalidate(agent)
            assert store.profile(agent) != before
        finally:
            dataset.remove_rating(agent, product)
            store.invalidate(agent)

    def test_single_agent_invalidation_splices_the_row(self, small_community, store):
        dataset = small_community.dataset
        agent = sorted(dataset.agents)[0]
        product = sorted(dataset.products)[0]
        matrix = store.matrix()
        assert store.matrix() is matrix
        before = store.profile(agent)

        def row_items():
            row = matrix.rows_for([agent])[0]
            lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
            topics = matrix.vocabulary.topics
            columns, values = matrix.indices[lo:hi].tolist(), matrix.values[lo:hi].tolist()
            return [(topics[col], value) for col, value in zip(columns, values)]

        dataset.add_rating(Rating(agent=agent, product=product, value=1.0))
        try:
            store.invalidate(agent)
            assert store.matrix() is matrix  # spliced in place, not repacked
            assert store.profile(agent) != before
            assert row_items() == list(store.profile(agent).items())
            fresh = ProfileStore(dataset, store.builder).matrix()
            assert matrix.ids == fresh.ids
            assert matrix.row_sum[matrix.rows_for([agent])[0]] == fresh.row_sum[
                fresh.rows_for([agent])[0]
            ]
        finally:
            dataset.remove_rating(agent, product)
            store.invalidate(agent)
        assert row_items() == list(before.items())
        store.invalidate()
        assert store.matrix() is not matrix


class TestEngineEquivalence:
    """engine="auto" and engine="python" must recommend identically."""

    def _agents(self, small_community, count=4):
        return sorted(small_community.dataset.agents)[:count]

    @pytest.mark.parametrize("representation", ["taxonomy", "product"])
    def test_pure_cf(self, small_community, store, representation):
        dataset = small_community.dataset
        kwargs = {"profiles": store} if representation == "taxonomy" else {}
        python = PureCFRecommender(
            dataset=dataset, representation=representation, engine="python", **kwargs
        )
        numpy_ = PureCFRecommender(
            dataset=dataset, representation=representation, engine="auto", **kwargs
        )
        for agent in self._agents(small_community):
            py_weights = {
                k: round(v, 9) for k, v in python.peer_weights(agent).items()
            }
            np_weights = {
                k: round(v, 9) for k, v in numpy_.peer_weights(agent).items()
            }
            assert np_weights == py_weights
            assert _rounded(numpy_.recommend(agent)) == _rounded(
                python.recommend(agent)
            )

    @pytest.mark.parametrize("bounded", [False, True], ids=["open", "bounded"])
    def test_semantic_web_similarities(self, small_community, store, bounded):
        """The whole pipeline, formation included, on both engines.

        The bounded formation is the one the benchmark serves: horizon
        subgraphs of a few dozen nodes, held to the dict oracle too.
        """
        dataset = small_community.dataset
        graph = TrustGraph.from_dataset(dataset)

        def build(engine: str) -> SemanticWebRecommender:
            if bounded:
                formation = NeighborhoodFormation(
                    metric=Appleseed(max_depth=3, engine=engine), max_peers=50
                )
            else:
                formation = NeighborhoodFormation(engine=engine)
            return SemanticWebRecommender(
                dataset=dataset,
                graph=graph,
                profiles=store,
                formation=formation,
                engine=engine,
            )

        python, numpy_ = build("python"), build("auto")
        for agent in self._agents(small_community):
            peers = python.neighborhood(agent).members()
            assert numpy_.neighborhood(agent).members() == peers
            py = python.similarities(agent, peers)
            nu = numpy_.similarities(agent, peers)
            assert set(py) == set(nu) == peers
            for peer in peers:
                assert nu[peer] == pytest.approx(py[peer], abs=1e-9)
            assert _rounded(numpy_.recommend(agent)) == _rounded(
                python.recommend(agent)
            )

    def test_similarities_fall_back_for_unknown_peers(self, small_community, store):
        """Peers outside the packed matrix route through the python oracle."""
        dataset = small_community.dataset
        recommender = SemanticWebRecommender(
            dataset=dataset,
            graph=TrustGraph.from_dataset(dataset),
            profiles=store,
            engine="auto",
        )
        agent = sorted(dataset.agents)[0]
        peers = {sorted(dataset.agents)[1], "http://elsewhere.example.org/ghost"}
        values = recommender.similarities(agent, peers)
        assert set(values) == peers
        assert values["http://elsewhere.example.org/ghost"] == 0.0

    def test_pure_cf_invalidate_cache(self, small_community):
        dataset = small_community.dataset
        cf = PureCFRecommender(dataset=dataset, representation="product")
        agent = sorted(dataset.agents)[0]
        cf.peer_weights(agent)
        assert cf._product_profiles and cf._product_matrix is not None
        cf.invalidate_cache()
        assert not cf._product_profiles and cf._product_matrix is None


class TestContentBasedExplorer:
    def test_equals_filter_after_full_ranking(self, small_community, store):
        """The pre-ranking freshness filter must commute with ranking."""
        dataset = small_community.dataset
        hybrid = SemanticWebRecommender(
            dataset=dataset,
            graph=TrustGraph.from_dataset(dataset),
            profiles=store,
            formation=NeighborhoodFormation(),
        )
        explorer = ContentBasedExplorer(inner=hybrid)
        products = dataset.products
        for agent in sorted(dataset.agents)[:6]:
            weights = hybrid.peer_weights(agent)
            exclude = set(dataset.ratings_of(agent))
            touched = set(store.profile(agent))
            scores, supporters = _vote_scores(dataset, weights, exclude)
            full = _rank_votes(scores, supporters, limit=len(scores))
            reference = [
                item
                for item in full
                if (product := products.get(item.product)) is not None
                and product.descriptors
                and product.descriptors.isdisjoint(touched)
            ][:10]
            assert explorer.recommend(agent, limit=10) == reference


@dataclass
class _FixedRecommender(Recommender):
    """Returns a fixed (possibly duplicate-carrying) list, like a merger."""

    items: list[str]

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        return [
            Recommendation(product=p, score=1.0) for p in self.items[:limit]
        ]


class TestFallbackRecommender:
    def test_refetches_when_duplicates_starve_the_first_batch(self):
        """Regression: one fetch of limit+len(have) used to under-fill.

        The fallback emits every product twice; a single batch of 5 yields
        only {A, B, C}, leaving the list one short of limit=4 even though
        the fallback knows a fourth product.
        """
        primary = _FixedRecommender(items=["A"])
        fallback = _FixedRecommender(
            items=["A", "A", "B", "B", "C", "C", "D", "D"]
        )
        combined = FallbackRecommender(primary=primary, fallback=fallback)
        result = [item.product for item in combined.recommend("agent", limit=4)]
        assert result == ["A", "B", "C", "D"]

    def test_stops_when_fallback_is_exhausted(self):
        combined = FallbackRecommender(
            primary=_FixedRecommender(items=[]),
            fallback=_FixedRecommender(items=["A", "B"]),
        )
        result = [item.product for item in combined.recommend("agent", limit=10)]
        assert result == ["A", "B"]

    def test_primary_alone_suffices(self):
        combined = FallbackRecommender(
            primary=_FixedRecommender(items=["A", "B", "C"]),
            fallback=_FixedRecommender(items=["X"]),
        )
        result = [item.product for item in combined.recommend("agent", limit=2)]
        assert result == ["A", "B"]
