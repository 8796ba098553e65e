"""Unit tests for the §3.1 information model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.models import (
    Agent,
    Dataset,
    Product,
    Rating,
    TrustStatement,
    clamp_score,
    validate_score,
)
from repro.core.similarity import isclose


class TestValidateScore:
    @pytest.mark.parametrize("value", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_accepts_in_range(self, value):
        assert validate_score(value) == value

    @pytest.mark.parametrize("value", [-1.001, 1.001, 2.0, -7.0])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            validate_score(value)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_score(float("nan"))

    def test_converts_int_to_float(self):
        result = validate_score(1)
        assert result == 1.0
        assert isinstance(result, float)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_property_full_scale_accepted(self, value):
        assert validate_score(value) == value


class TestClampScore:
    @pytest.mark.parametrize("value", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_in_range_unchanged(self, value):
        assert clamp_score(value) == value

    @pytest.mark.parametrize(
        ("value", "expected"),
        [(1.001, 1.0), (7.5, 1.0), (float("inf"), 1.0),
         (-1.001, -1.0), (-7.5, -1.0), (float("-inf"), -1.0)],
    )
    def test_out_of_range_clamped(self, value, expected):
        assert clamp_score(value) == expected

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            clamp_score(float("nan"))

    @given(st.floats(allow_nan=False))
    def test_property_result_always_validates(self, value):
        assert validate_score(clamp_score(value)) == clamp_score(value)


class TestAgent:
    def test_requires_uri(self):
        with pytest.raises(ValueError):
            Agent(uri="")

    def test_str_prefers_name(self):
        assert str(Agent(uri="u:1", name="Alice")) == "Alice"
        assert str(Agent(uri="u:1")) == "u:1"

    def test_frozen(self):
        agent = Agent(uri="u:1")
        with pytest.raises(AttributeError):
            agent.uri = "u:2"


class TestProduct:
    def test_descriptors_frozen(self):
        product = Product(identifier="isbn:1", descriptors={"A", "B"})
        assert isinstance(product.descriptors, frozenset)
        assert product.descriptors == {"A", "B"}

    def test_empty_descriptors_allowed(self):
        assert Product(identifier="isbn:1").descriptors == frozenset()

    def test_requires_identifier(self):
        with pytest.raises(ValueError):
            Product(identifier="")


class TestTrustStatement:
    def test_rejects_self_trust(self):
        with pytest.raises(ValueError):
            TrustStatement(source="a", target="a", value=1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TrustStatement(source="a", target="b", value=1.5)

    def test_distrust_allowed(self):
        statement = TrustStatement(source="a", target="b", value=-0.7)
        assert isclose(statement.value, -0.7)


class TestRating:
    def test_default_is_implicit_positive(self):
        rating = Rating(agent="a", product="isbn:1")
        assert rating.value == 1.0
        assert rating.is_positive

    def test_negative_not_positive(self):
        assert not Rating(agent="a", product="p", value=-0.5).is_positive

    def test_zero_not_positive(self):
        assert not Rating(agent="a", product="p", value=0.0).is_positive


class TestDataset:
    def test_add_agent_conflict_rejected(self):
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:1", name="Alice"))
        with pytest.raises(ValueError):
            dataset.add_agent(Agent(uri="u:1", name="Bob"))

    def test_add_agent_idempotent(self):
        dataset = Dataset()
        agent = Agent(uri="u:1", name="Alice")
        dataset.add_agent(agent)
        dataset.add_agent(agent)
        assert len(dataset.agents) == 1

    def test_add_product_conflict_rejected(self):
        dataset = Dataset()
        dataset.add_product(Product(identifier="isbn:1", title="A"))
        with pytest.raises(ValueError):
            dataset.add_product(Product(identifier="isbn:1", title="B"))

    def test_trust_overwrite(self):
        dataset = Dataset()
        dataset.add_trust(TrustStatement(source="a", target="b", value=0.5))
        dataset.add_trust(TrustStatement(source="a", target="b", value=0.9))
        assert dataset.trust[("a", "b")].value == 0.9
        assert len(dataset.trust) == 1

    def test_rating_overwrite(self):
        dataset = Dataset()
        dataset.add_rating(Rating(agent="a", product="p", value=0.5))
        dataset.add_rating(Rating(agent="a", product="p", value=-0.5))
        assert dataset.ratings[("a", "p")].value == -0.5

    def test_trust_of_view(self, tiny_dataset):
        alice = "http://example.org/alice"
        trust = tiny_dataset.trust_of(alice)
        assert trust == {
            "http://example.org/bob": 0.8,
            "http://example.org/carol": 0.5,
        }

    def test_ratings_of_view(self, tiny_dataset):
        alice = "http://example.org/alice"
        assert tiny_dataset.ratings_of(alice) == {"isbn:1": 1.0, "isbn:2": 1.0}

    def test_raters_of_view(self, tiny_dataset):
        raters = tiny_dataset.raters_of("isbn:1")
        assert set(raters) == {
            "http://example.org/alice",
            "http://example.org/bob",
        }

    def test_validate_detects_unknown_trust_source(self):
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:1"))
        dataset.add_trust(TrustStatement(source="ghost", target="u:1", value=0.5))
        with pytest.raises(ValueError, match="unknown agent"):
            dataset.validate()

    def test_validate_detects_unknown_product(self):
        dataset = Dataset()
        dataset.add_agent(Agent(uri="u:1"))
        dataset.add_rating(Rating(agent="u:1", product="ghost"))
        with pytest.raises(ValueError, match="unknown product"):
            dataset.validate()

    def test_summary(self, tiny_dataset):
        summary = tiny_dataset.summary()
        assert summary["agents"] == 5
        assert summary["products"] == 5
        assert summary["trust_statements"] == 5
        assert summary["ratings"] == 8
        assert 0 < summary["trust_density"] < 1

    def test_summary_empty(self):
        summary = Dataset().summary()
        assert summary["trust_density"] == 0.0
        assert summary["rating_density"] == 0.0

    def test_restricted_to_agents(self, tiny_dataset):
        alice = "http://example.org/alice"
        bob = "http://example.org/bob"
        subset = tiny_dataset.restricted_to_agents([alice, bob])
        assert set(subset.agents) == {alice, bob}
        # carol edges dropped, alice->bob kept
        assert set(subset.trust) == {(alice, bob)}
        # products kept wholesale, carol's ratings dropped
        assert len(subset.products) == 5
        assert all(key[0] in {alice, bob} for key in subset.ratings)
        subset.validate()

