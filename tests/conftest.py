"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.models import Agent, Dataset, Product, Rating, TrustStatement
from repro.core.taxonomy import Taxonomy, figure1_fragment
from repro.datasets.generators import CommunityConfig, generate_community


@pytest.fixture
def figure1() -> Taxonomy:
    """The Figure 1 Amazon-fragment taxonomy."""
    return figure1_fragment()


@pytest.fixture
def tiny_dataset() -> Dataset:
    """A hand-built four-agent community with known structure.

    Trust:  alice -> bob (0.8), alice -> carol (0.5), bob -> carol (0.9),
            carol -> dave (0.7), dave -> alice (0.6), alice -> eve? no (eve
            is isolated in trust but owns ratings).
    """
    dataset = Dataset()
    for name in ("alice", "bob", "carol", "dave", "eve"):
        dataset.add_agent(Agent(uri=f"http://example.org/{name}", name=name.title()))

    def uri(name: str) -> str:
        return f"http://example.org/{name}"

    products = {
        "isbn:1": frozenset({"Algebra"}),
        "isbn:2": frozenset({"Calculus"}),
        "isbn:3": frozenset({"Physics"}),
        "isbn:4": frozenset({"Literature"}),
        "isbn:5": frozenset({"Algebra", "Physics"}),
    }
    for identifier, descriptors in products.items():
        dataset.add_product(
            Product(identifier=identifier, title=identifier, descriptors=descriptors)
        )

    trust_edges = [
        ("alice", "bob", 0.8),
        ("alice", "carol", 0.5),
        ("bob", "carol", 0.9),
        ("carol", "dave", 0.7),
        ("dave", "alice", 0.6),
    ]
    for source, target, value in trust_edges:
        dataset.add_trust(TrustStatement(source=uri(source), target=uri(target), value=value))

    ratings = [
        ("alice", "isbn:1", 1.0),
        ("alice", "isbn:2", 1.0),
        ("bob", "isbn:1", 1.0),
        ("bob", "isbn:3", 1.0),
        ("carol", "isbn:2", 1.0),
        ("carol", "isbn:4", 1.0),
        ("dave", "isbn:5", 1.0),
        ("eve", "isbn:4", 1.0),
    ]
    for agent, product, value in ratings:
        dataset.add_rating(Rating(agent=uri(agent), product=product, value=value))
    dataset.validate()
    return dataset


@pytest.fixture(scope="session")
def small_community():
    """A generated 120-agent community, shared across the session."""
    config = CommunityConfig(n_agents=120, n_products=240, n_clusters=6, seed=11)
    return generate_community(config)
