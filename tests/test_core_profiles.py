"""Unit and property tests for taxonomy-based profile generation (Eq. 3)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.models import Product
from repro.core.profiles import (
    DEFAULT_PROFILE_SCORE,
    TaxonomyProfileBuilder,
    descriptor_score_path,
    flat_category_profile,
    product_profile,
)
from repro.core.similarity import isclose
from repro.core.taxonomy import figure1_fragment


class TestExample1:
    """The paper's only worked numeric artifact, reproduced exactly."""

    def test_descriptor_budget(self):
        # s=1000, 4 books, Matrix Analysis has 5 descriptors -> 50 each.
        assert isclose(DEFAULT_PROFILE_SCORE / (4 * 5), 50.0)

    def test_exact_scores(self, figure1):
        scores = descriptor_score_path(figure1, "Algebra", 50.0)
        # Exact closed-form values of Eq. 3 (paper prints 29.087 etc.,
        # rounded; see DESIGN.md §5).
        assert scores["Algebra"] == pytest.approx(50.0 * 96 / 165)  # 29.0909..
        assert scores["Pure"] == pytest.approx(50.0 * 48 / 165)  # 14.5454..
        assert scores["Mathematics"] == pytest.approx(50.0 * 16 / 165)  # 4.8484..
        assert scores["Science"] == pytest.approx(50.0 * 4 / 165)  # 1.2121..
        assert scores["Books"] == pytest.approx(50.0 * 1 / 165)  # 0.30303..

    def test_close_to_paper_printed_values(self, figure1):
        scores = descriptor_score_path(figure1, "Algebra", 50.0)
        paper = {
            "Algebra": 29.087,
            "Pure": 14.543,
            "Mathematics": 4.848,
            "Science": 1.212,
            "Books": 0.303,
        }
        for topic, value in paper.items():
            assert scores[topic] == pytest.approx(value, abs=0.005)

    def test_scores_sum_to_budget(self, figure1):
        scores = descriptor_score_path(figure1, "Algebra", 50.0)
        assert sum(scores.values()) == pytest.approx(50.0)

    def test_eq3_recurrence_holds(self, figure1):
        """sco(p_m) = sco(p_{m+1}) / (sib(p_{m+1}) + 1) along the path."""
        scores = descriptor_score_path(figure1, "Algebra", 50.0)
        path = figure1.path_to_root("Algebra")  # [Algebra, ..., Books]
        for child, parent in zip(path, path[1:]):
            expected = scores[child] / (figure1.sibling_count(child) + 1)
            assert scores[parent] == pytest.approx(expected)


class TestDescriptorScorePath:
    def test_root_descriptor(self, figure1):
        scores = descriptor_score_path(figure1, "Books", 10.0)
        assert scores == {"Books": 10.0}

    def test_attenuation_monotone(self, figure1):
        scores = descriptor_score_path(figure1, "Algebra", 50.0)
        path = figure1.path_to_root("Algebra")
        values = [scores[t] for t in path]
        assert values == sorted(values, reverse=True)

    def test_zero_budget(self, figure1):
        scores = descriptor_score_path(figure1, "Algebra", 0.0)
        assert all(v == 0.0 for v in scores.values())


def _products() -> dict[str, Product]:
    return {
        "isbn:alg": Product(identifier="isbn:alg", descriptors=frozenset({"Algebra"})),
        "isbn:cal": Product(identifier="isbn:cal", descriptors=frozenset({"Calculus"})),
        "isbn:phy": Product(identifier="isbn:phy", descriptors=frozenset({"Physics"})),
        "isbn:two": Product(
            identifier="isbn:two", descriptors=frozenset({"Algebra", "Physics"})
        ),
        "isbn:none": Product(identifier="isbn:none"),
        "isbn:alien": Product(
            identifier="isbn:alien", descriptors=frozenset({"NotInTaxonomy"})
        ),
    }


class TestTaxonomyProfileBuilder:
    @pytest.fixture
    def builder(self, figure1) -> TaxonomyProfileBuilder:
        return TaxonomyProfileBuilder(figure1)

    def test_empty_ratings_empty_profile(self, builder):
        assert builder.build({}, _products()) == {}

    def test_profile_mass_equals_s(self, builder):
        profile = builder.build({"isbn:alg": 1.0, "isbn:phy": 1.0}, _products())
        assert builder.profile_mass(profile) == pytest.approx(DEFAULT_PROFILE_SCORE)

    def test_single_product_all_mass(self, builder, figure1):
        profile = builder.build({"isbn:alg": 1.0}, _products())
        assert sum(profile.values()) == pytest.approx(DEFAULT_PROFILE_SCORE)
        # Support is exactly the path to the root.
        assert set(profile) == set(figure1.path_to_root("Algebra"))

    def test_multi_descriptor_split(self, builder):
        profile = builder.build({"isbn:two": 1.0}, _products())
        # Algebra path gets 500, Physics path gets 500.
        algebra_mass = sum(
            v for k, v in profile.items() if k in ("Algebra", "Pure")
        )
        assert profile["Physics"] > 0
        assert algebra_mass > 0
        assert sum(profile.values()) == pytest.approx(DEFAULT_PROFILE_SCORE)

    def test_unknown_products_skipped(self, builder):
        profile = builder.build({"isbn:ghost": 1.0, "isbn:alg": 1.0}, _products())
        assert builder.profile_mass(profile) == pytest.approx(DEFAULT_PROFILE_SCORE)

    def test_descriptorless_products_skipped(self, builder):
        profile = builder.build({"isbn:none": 1.0}, _products())
        assert profile == {}

    def test_unknown_topics_skipped(self, builder):
        profile = builder.build({"isbn:alien": 1.0}, _products())
        assert profile == {}

    def test_negative_ratings_ignored_by_default(self, builder):
        profile = builder.build({"isbn:alg": -1.0}, _products())
        assert profile == {}

    def test_short_history_higher_impact(self, builder):
        """Paper: ratings from short-history agents weigh more per product."""
        short = builder.build({"isbn:alg": 1.0}, _products())
        long = builder.build(
            {"isbn:alg": 1.0, "isbn:cal": 1.0, "isbn:phy": 1.0}, _products()
        )
        assert short["Algebra"] > long["Algebra"]
        assert short["Algebra"] == pytest.approx(3 * long["Algebra"])

    def test_shared_ancestors_accumulate(self, builder):
        profile = builder.build({"isbn:alg": 1.0, "isbn:cal": 1.0}, _products())
        # Algebra and Calculus are siblings under Pure: Pure receives score
        # from both paths.
        single = builder.build({"isbn:alg": 1.0}, _products())
        assert profile["Pure"] == pytest.approx(single["Pure"])  # 500-normalized each
        assert profile["Books"] == pytest.approx(single["Books"])

    def test_signed_mode_subtracts(self, figure1):
        builder = TaxonomyProfileBuilder(figure1, negative_mode="signed")
        profile = builder.build({"isbn:alg": 1.0, "isbn:cal": -1.0}, _products())
        assert profile["Algebra"] > 0
        assert profile["Calculus"] < 0
        # Shared ancestors cancel exactly (equal magnitudes, equal paths).
        assert profile["Pure"] == pytest.approx(0.0)

    def test_rating_weighted_mode(self, figure1):
        builder = TaxonomyProfileBuilder(figure1, product_weighting="rating")
        profile = builder.build({"isbn:alg": 1.0, "isbn:phy": 0.25}, _products())
        assert profile["Algebra"] > profile["Physics"]

    def test_invalid_config_rejected(self, figure1):
        with pytest.raises(ValueError):
            TaxonomyProfileBuilder(figure1, total_score=0)
        with pytest.raises(ValueError):
            TaxonomyProfileBuilder(figure1, product_weighting="bogus")
        with pytest.raises(ValueError):
            TaxonomyProfileBuilder(figure1, negative_mode="bogus")

@given(
    ratings=st.dictionaries(
        st.sampled_from(["isbn:alg", "isbn:cal", "isbn:phy", "isbn:two"]),
        st.floats(min_value=0.1, max_value=1.0),
        min_size=1,
        max_size=4,
    )
)
def test_property_mass_invariant(ratings):
    """Property: any non-empty positive rating set yields mass == s."""
    builder = TaxonomyProfileBuilder(figure1_fragment())
    profile = builder.build(ratings, _products())
    assert sum(profile.values()) == pytest.approx(DEFAULT_PROFILE_SCORE)
    assert all(v >= 0 for v in profile.values())


class TestBaselineProfiles:
    def test_flat_category_no_propagation(self, figure1):
        profile = flat_category_profile(
            {"isbn:alg": 1.0},
            _products(),
            known_topics=figure1,
        )
        assert set(profile) == {"Algebra"}
        assert profile["Algebra"] == pytest.approx(DEFAULT_PROFILE_SCORE)

    def test_flat_category_split_across_descriptors(self, figure1):
        profile = flat_category_profile(
            {"isbn:two": 1.0}, _products(), known_topics=figure1
        )
        assert profile["Algebra"] == pytest.approx(500.0)
        assert profile["Physics"] == pytest.approx(500.0)

    def test_flat_category_ignores_negatives(self, figure1):
        assert (
            flat_category_profile({"isbn:alg": -1.0}, _products(), known_topics=figure1)
            == {}
        )

    def test_product_profile_is_identity(self):
        ratings = {"isbn:1": 1.0, "isbn:2": -0.5}
        assert product_profile(ratings) == ratings
        assert product_profile(ratings) is not ratings


class TestBuilderInvalidate:
    def test_invalidate_drops_both_memo_caches(self, figure1):
        builder = TaxonomyProfileBuilder(figure1)
        products = {
            "alg": Product(
                identifier="alg", title="alg", descriptors=frozenset({"Algebra"})
            )
        }
        builder.build({"alg": 1.0}, products)
        assert builder._path_cache and builder._descriptor_cache
        builder.invalidate()
        assert not builder._path_cache
        assert not builder._descriptor_cache

    def test_rebuild_after_invalidate_is_identical(self, figure1):
        builder = TaxonomyProfileBuilder(figure1)
        products = {
            "alg": Product(
                identifier="alg", title="alg", descriptors=frozenset({"Algebra"})
            )
        }
        before = builder.build({"alg": 1.0}, products)
        builder.invalidate()
        assert builder.build({"alg": 1.0}, products) == before
