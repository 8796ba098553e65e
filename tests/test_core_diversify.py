"""Unit tests for topic diversification."""

from __future__ import annotations

import pytest

from repro.core.diversify import (
    TopicDiversifier,
    intra_list_similarity,
    product_topic_profile,
)
from repro.core.models import Product
from repro.core.recommender import Recommendation
from repro.core.similarity import isclose


def _products() -> dict[str, Product]:
    return {
        "alg1": Product(identifier="alg1", descriptors=frozenset({"Algebra"})),
        "alg2": Product(identifier="alg2", descriptors=frozenset({"Calculus"})),
        "alg3": Product(identifier="alg3", descriptors=frozenset({"Algebra"})),
        "phys": Product(identifier="phys", descriptors=frozenset({"Physics"})),
        "lit": Product(identifier="lit", descriptors=frozenset({"Literature"})),
        "bare": Product(identifier="bare"),
    }


def _recs(*identifiers: str) -> list[Recommendation]:
    # Descending scores encode the accuracy order.
    return [
        Recommendation(product=identifier, score=float(len(identifiers) - i))
        for i, identifier in enumerate(identifiers)
    ]


class TestProductTopicProfile:
    def test_unit_mass_per_descriptor(self, figure1):
        profile = product_topic_profile(figure1, _products()["alg1"])
        assert sum(profile.values()) == pytest.approx(1.0)
        assert set(profile) == set(figure1.path_to_root("Algebra"))

    def test_descriptorless_product_empty(self, figure1):
        assert product_topic_profile(figure1, _products()["bare"]) == {}

    def test_unknown_descriptors_skipped(self, figure1):
        product = Product(identifier="x", descriptors=frozenset({"NotThere"}))
        assert product_topic_profile(figure1, product) == {}


class TestIntraListSimilarity:
    def test_short_lists(self):
        assert isclose(intra_list_similarity([], {}), 0.0)
        assert isclose(intra_list_similarity(["a"], {"a": {"t": 1.0}}), 0.0)

    def test_identical_items_max(self, figure1):
        profiles = {
            "a": product_topic_profile(figure1, _products()["alg1"]),
            "b": product_topic_profile(figure1, _products()["alg3"]),
        }
        assert intra_list_similarity(["a", "b"], profiles) == pytest.approx(1.0)

    def test_related_more_similar_than_unrelated(self, figure1):
        products = _products()
        profiles = {
            k: product_topic_profile(figure1, v) for k, v in products.items()
        }
        siblings = intra_list_similarity(["alg1", "alg2"], profiles)
        unrelated = intra_list_similarity(["alg1", "lit"], profiles)
        assert siblings > unrelated


class TestTopicDiversifier:
    def test_invalid_theta(self, figure1):
        with pytest.raises(ValueError):
            TopicDiversifier(figure1, _products(), theta=1.5)

    def test_theta_zero_preserves_order(self, figure1):
        diversifier = TopicDiversifier(figure1, _products(), theta=0.0)
        candidates = _recs("alg1", "alg3", "phys", "lit")
        reranked = diversifier.rerank(candidates, limit=3)
        assert [r.product for r in reranked] == ["alg1", "alg3", "phys"]

    def test_high_theta_diversifies(self, figure1):
        diversifier = TopicDiversifier(figure1, _products(), theta=1.0)
        candidates = _recs("alg1", "alg3", "alg2", "lit", "phys")
        reranked = diversifier.rerank(candidates, limit=3)
        picks = [r.product for r in reranked]
        assert picks[0] == "alg1"  # top item always kept
        # The next pick must not be the near-duplicate alg3.
        assert picks[1] in {"lit", "phys"}

    def test_diversification_lowers_ils(self, figure1):
        products = _products()
        candidates = _recs("alg1", "alg3", "alg2", "phys", "lit")
        plain = TopicDiversifier(figure1, products, theta=0.0)
        diverse = TopicDiversifier(figure1, products, theta=0.9)
        assert diverse.ils(diverse.rerank(list(candidates), 3)) < plain.ils(
            plain.rerank(list(candidates), 3)
        )

    def test_empty_candidates(self, figure1):
        diversifier = TopicDiversifier(figure1, _products())
        assert diversifier.rerank([], limit=5) == []

    def test_limit_respected(self, figure1):
        diversifier = TopicDiversifier(figure1, _products())
        reranked = diversifier.rerank(_recs("alg1", "alg2", "phys"), limit=2)
        assert len(reranked) == 2

    def test_invalid_limit(self, figure1):
        diversifier = TopicDiversifier(figure1, _products())
        with pytest.raises(ValueError):
            diversifier.rerank(_recs("alg1"), limit=0)

    def test_rerank_is_permutation_subset(self, figure1):
        diversifier = TopicDiversifier(figure1, _products(), theta=0.6)
        candidates = _recs("alg1", "alg3", "alg2", "phys", "lit", "bare")
        reranked = diversifier.rerank(list(candidates), limit=4)
        assert len(reranked) == 4
        assert len({r.product for r in reranked}) == 4
        assert {r.product for r in reranked} <= {c.product for c in candidates}

    def test_deterministic(self, figure1):
        diversifier = TopicDiversifier(figure1, _products(), theta=0.5)
        candidates = _recs("alg1", "alg3", "alg2", "phys", "lit")
        first = diversifier.rerank(list(candidates), limit=4)
        second = diversifier.rerank(list(candidates), limit=4)
        assert first == second


class TestDiversifierInvalidate:
    def test_invalidate_drops_profile_cache(self, figure1):
        diversifier = TopicDiversifier(taxonomy=figure1, products=_products())
        stale = diversifier.profile("alg1")
        assert diversifier.profile("alg1") is stale
        diversifier.invalidate()
        fresh = diversifier.profile("alg1")
        assert fresh is not stale
        assert fresh == stale  # same taxonomy, same content
