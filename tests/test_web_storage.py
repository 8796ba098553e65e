"""Unit tests for the crawler's document store."""

from __future__ import annotations

import pytest

from repro.core.models import Agent
from repro.semweb.foaf import publish_agent
from repro.semweb.serializer import serialize_ntriples
from repro.web.storage import DocumentStore


def agent_body(name: str, trust=None, ratings=None) -> str:
    agent = Agent(uri=f"http://example.org/{name}", name=name.title())
    return serialize_ntriples(publish_agent(agent, trust or {}, ratings or {}))


class TestReplica:
    def test_put_and_get(self):
        store = DocumentStore()
        store.put("u:1", "body", version=1, fetched_at=1)
        document = store.get("u:1")
        assert document is not None
        assert document.body == "body"
        assert store.kind("u:1") == "agent"

    def test_get_missing(self):
        assert DocumentStore().get("ghost") is None

    def test_put_refresh_overwrites(self):
        store = DocumentStore()
        store.put("u:1", "old", version=1, fetched_at=1)
        store.put("u:1", "new", version=2, fetched_at=2)
        assert store.get("u:1").body == "new"
        assert len(store) == 1

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            DocumentStore().put("u:1", "x", version=1, fetched_at=1, kind="bogus")

    def test_uris_filtered_by_kind(self):
        store = DocumentStore()
        store.put("u:a", "x", version=1, fetched_at=1, kind="agent")
        store.put("u:t", "x", version=1, fetched_at=1, kind="taxonomy")
        assert list(store.uris(kind="taxonomy")) == ["u:t"]
        assert set(store.uris()) == {"u:a", "u:t"}


class TestAssembly:
    def test_assemble_agents(self):
        store = DocumentStore()
        store.put(
            "http://example.org/alice",
            agent_body("alice", trust={"http://example.org/bob": 0.8}),
            version=1,
            fetched_at=1,
        )
        store.put("http://example.org/bob", agent_body("bob"), version=1, fetched_at=1)
        dataset, failures = store.assemble_dataset()
        assert failures == []
        assert len(dataset.agents) == 2
        assert dataset.trust_of("http://example.org/alice") == {
            "http://example.org/bob": 0.8
        }

    def test_broken_document_reported_not_fatal(self):
        store = DocumentStore()
        store.put("http://example.org/alice", agent_body("alice"), 1, 1)
        store.put("http://example.org/broken", "!!! not ntriples", 1, 1)
        dataset, failures = store.assemble_dataset()
        assert failures == ["http://example.org/broken"]
        assert len(dataset.agents) == 1

    def test_assemble_taxonomy(self, figure1):
        from repro.semweb.foaf import publish_taxonomy

        store = DocumentStore()
        store.put(
            "u:tax",
            serialize_ntriples(publish_taxonomy(figure1)),
            version=1,
            fetched_at=1,
            kind="taxonomy",
        )
        rebuilt = store.assemble_taxonomy()
        assert rebuilt is not None
        assert set(rebuilt) == set(figure1)

    def test_assemble_taxonomy_missing(self):
        assert DocumentStore().assemble_taxonomy() is None

    def test_assemble_catalog(self, tiny_dataset):
        from repro.semweb.foaf import publish_catalog

        store = DocumentStore()
        store.put(
            "u:cat",
            serialize_ntriples(publish_catalog(tiny_dataset.products)),
            version=1,
            fetched_at=1,
            kind="catalog",
        )
        dataset, failures = store.assemble_dataset()
        assert failures == []
        assert dataset.products == tiny_dataset.products


class TestDegradationBookkeeping:
    def test_fresh_put_clears_degraded(self):
        store = DocumentStore()
        store.put("u:a", "old", version=1, fetched_at=1, kind="agent")
        store.mark_degraded("u:a")
        assert store.get("u:a").degraded
        assert list(store.degraded_uris()) == ["u:a"]
        store.put("u:a", "new", version=2, fetched_at=2, kind="agent")
        assert not store.get("u:a").degraded
        assert list(store.degraded_uris()) == []
