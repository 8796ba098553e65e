"""Unit and integration tests for the FOAF crawler."""

from __future__ import annotations

import pytest

from repro.web.crawler import Crawler, publish_community
from repro.web.network import SimulatedWeb


@pytest.fixture
def published(tiny_dataset, figure1):
    web = SimulatedWeb()
    taxonomy_uri, catalog_uri = publish_community(web, tiny_dataset, figure1)
    return web, taxonomy_uri, catalog_uri


ALICE = "http://example.org/alice"
EVE = "http://example.org/eve"


class TestCrawl:
    def test_discovers_trust_component(self, published, tiny_dataset):
        web, _, _ = published
        crawler = Crawler(web=web)
        report = crawler.crawl([ALICE])
        # alice -> bob, carol; carol -> dave; dave -> alice. eve unreachable.
        assert report.fetched == 4
        assert EVE not in crawler.store
        assert not report.missing
        assert not report.parse_failures

    def test_budget_exhaustion(self, published):
        web, _, _ = published
        crawler = Crawler(web=web)
        report = crawler.crawl([ALICE], budget=2)
        assert report.fetched == 2
        assert report.budget_exhausted
        assert report.frontier_left

    def test_budget_zero_fetches_nothing(self, published):
        web, _, _ = published
        crawler = Crawler(web=web)
        report = crawler.crawl([ALICE], budget=0)
        assert report.fetched == 0
        assert report.budget_exhausted

    def test_max_depth(self, published):
        web, _, _ = published
        crawler = Crawler(web=web)
        report = crawler.crawl([ALICE], max_depth=1)
        # alice + direct neighbors bob, carol; dave is at depth 2.
        assert report.fetched == 3

    def test_missing_documents_reported(self, published):
        web, _, _ = published
        crawler = Crawler(web=web)
        crawler.crawl([ALICE])
        report = crawler.crawl(["http://example.org/ghost"])
        assert "http://example.org/ghost" in report.missing

    def test_recrawl_is_free_when_fresh(self, published):
        web, _, _ = published
        crawler = Crawler(web=web)
        first = crawler.crawl([ALICE])
        second = crawler.crawl([ALICE])
        assert first.fetched == 4
        assert second.fetched == 0  # replica fresh, no fetches spent

    def test_negative_budget_rejected(self, published):
        web, _, _ = published
        with pytest.raises(ValueError):
            Crawler(web=web).crawl([ALICE], budget=-1)

    def test_parse_failure_recorded_and_stored(self, published):
        web, _, _ = published
        web.publish("http://example.org/bad", "not rdf at all")
        crawler = Crawler(web=web)
        report = crawler.crawl(["http://example.org/bad"])
        assert "http://example.org/bad" in report.parse_failures
        assert "http://example.org/bad" in crawler.store

    def test_clock_advances(self, published):
        web, _, _ = published
        crawler = Crawler(web=web)
        crawler.crawl([ALICE])
        crawler.refresh()
        assert crawler.clock == 2


class TestIngestionClamping:
    """Crawled trust weights are untrusted input (§3.2/§4): the crawler
    clamps stated values onto [-1, +1] and drops NaN statements."""

    def _homepage(self, value):
        from repro.semweb.namespace import FOAF, TRUST
        from repro.semweb.rdf import BNode, Graph, Literal, URIRef
        from repro.semweb.serializer import serialize_ntriples

        alice, bob = URIRef(ALICE), URIRef("http://example.org/bob")
        graph = Graph()
        graph.add((alice, FOAF.knows, bob))
        statement = BNode("t0")
        graph.add((alice, TRUST.trusts, statement))
        graph.add((statement, TRUST.target, bob))
        graph.add((statement, TRUST.value, Literal(value)))
        return serialize_ntriples(graph)

    def _weights(self, value):
        crawler = Crawler(web=SimulatedWeb())
        return dict(
            crawler._extract_weighted_links(ALICE, self._homepage(value), [])
        )

    def test_in_range_weight_kept(self):
        assert self._weights(0.8) == {"http://example.org/bob": 0.8}

    def test_overlarge_weight_clamped_to_upper_bound(self):
        assert self._weights(7.5) == {"http://example.org/bob": 1.0}

    def test_negative_weight_clamped_to_lower_bound(self):
        assert self._weights(-3.0) == {"http://example.org/bob": -1.0}

    def test_nan_weight_dropped_to_knows_default(self):
        # The foaf:knows link survives with the implicit 0.0 weight; the
        # NaN trust statement itself is discarded.
        assert self._weights(float("nan")) == {"http://example.org/bob": 0.0}


class TestTrustPrioritizedCrawl:
    def _weighted_web(self):
        """alice trusts bob strongly (0.9) and carol weakly (0.1); both
        lead to further agents."""
        from repro.core.models import Agent, Dataset, Product, Rating, TrustStatement
        from repro.core.taxonomy import figure1_fragment

        dataset = Dataset()
        names = ["alice", "bob", "carol", "bobfriend", "carolfriend"]
        for name in names:
            dataset.add_agent(Agent(uri=f"http://example.org/{name}", name=name))
        dataset.add_product(Product(identifier="isbn:1"))
        for name in names:
            dataset.add_rating(Rating(agent=f"http://example.org/{name}", product="isbn:1"))
        edges = [
            ("alice", "bob", 0.9),
            ("alice", "carol", 0.1),
            ("bob", "bobfriend", 0.9),
            ("carol", "carolfriend", 0.9),
        ]
        for source, target, value in edges:
            dataset.add_trust(
                TrustStatement(
                    source=f"http://example.org/{source}",
                    target=f"http://example.org/{target}",
                    value=value,
                )
            )
        web = SimulatedWeb()
        publish_community(web, dataset, figure1_fragment())
        return web

    def test_high_trust_region_fetched_first(self):
        web = self._weighted_web()
        crawler = Crawler(web=web)
        # Budget 3: alice + 2 more.  Best-first must pick bob (0.9) and
        # then bobfriend (0.81) before carol (0.1).
        report = crawler.crawl(
            ["http://example.org/alice"], budget=3, prioritize_by_trust=True
        )
        assert report.fetched == 3
        assert "http://example.org/bob" in crawler.store
        assert "http://example.org/bobfriend" in crawler.store
        assert "http://example.org/carol" not in crawler.store

    def test_bfs_fetches_by_distance_instead(self):
        web = self._weighted_web()
        crawler = Crawler(web=web)
        report = crawler.crawl(["http://example.org/alice"], budget=3)
        assert report.fetched == 3
        # BFS takes both depth-1 neighbors before any depth-2 agent.
        assert "http://example.org/carol" in crawler.store
        assert "http://example.org/bobfriend" not in crawler.store

    def test_unbudgeted_prioritized_covers_component(self):
        web = self._weighted_web()
        crawler = Crawler(web=web)
        report = crawler.crawl(
            ["http://example.org/alice"], prioritize_by_trust=True
        )
        assert report.fetched == 5
        assert not report.budget_exhausted

    def test_prioritized_equals_bfs_coverage(self, published):
        web, _, _ = published
        bfs = Crawler(web=web)
        bfs_report = bfs.crawl([ALICE])
        prioritized = Crawler(web=web)
        pri_report = prioritized.crawl([ALICE], prioritize_by_trust=True)
        assert set(bfs.store.uris()) == set(prioritized.store.uris())
        assert bfs_report.fetched == pri_report.fetched


class TestGlobalDocuments:
    def test_fetch_taxonomy_and_catalog(self, published, figure1, tiny_dataset):
        web, taxonomy_uri, catalog_uri = published
        crawler = Crawler(web=web)
        report = crawler.fetch_global_documents(taxonomy_uri, catalog_uri)
        assert report.fetched == 2
        taxonomy = crawler.store.assemble_taxonomy()
        assert taxonomy is not None
        assert set(taxonomy) == set(figure1)
        dataset, _ = crawler.store.assemble_dataset()
        assert dataset.products == tiny_dataset.products


class TestRefresh:
    def test_refresh_picks_up_new_version(self, published, tiny_dataset, figure1):
        web, _, _ = published
        crawler = Crawler(web=web)
        crawler.crawl([ALICE])
        old_version = crawler.store.get(ALICE).version

        # The agent publishes an updated homepage asynchronously.
        from repro.semweb.foaf import publish_agent
        from repro.semweb.serializer import serialize_ntriples

        agent = tiny_dataset.agents[ALICE]
        new_body = serialize_ntriples(
            publish_agent(agent, {"http://example.org/dave": 0.9}, {"isbn:3": 1.0})
        )
        web.stage_update(ALICE, new_body)

        # Before delivery the refresh sees nothing new.
        assert crawler.refresh().fetched == 0
        web.deliver()
        report = crawler.refresh()
        assert report.fetched == 1
        assert crawler.store.get(ALICE).version == old_version + 1
        dataset, _ = crawler.store.assemble_dataset()
        assert dataset.trust_of(ALICE) == {"http://example.org/dave": 0.9}

    def test_refresh_budget(self, published, tiny_dataset):
        web, _, _ = published
        crawler = Crawler(web=web)
        crawler.crawl([ALICE])
        # Update every crawled homepage.
        for uri in list(crawler.store.uris(kind="agent")):
            web.publish(uri, web.fetch(uri).body + "\n")
        report = crawler.refresh(budget=2)
        assert report.fetched == 2
        assert report.budget_exhausted


class TestEndToEnd:
    def test_crawl_assemble_recommend(self, published, tiny_dataset, figure1):
        from repro.core.recommender import SemanticWebRecommender

        web, taxonomy_uri, catalog_uri = published
        crawler = Crawler(web=web)
        crawler.fetch_global_documents(taxonomy_uri, catalog_uri)
        crawler.crawl([ALICE])
        partial, failures = crawler.store.assemble_dataset()
        assert not failures
        taxonomy = crawler.store.assemble_taxonomy()
        recommender = SemanticWebRecommender.from_dataset(partial, taxonomy)
        recs = recommender.recommend(ALICE, limit=5)
        assert recs
        # Identical pipeline over the full dataset agrees on the votable
        # products reachable through alice's trust component.
        reference = SemanticWebRecommender.from_dataset(tiny_dataset, figure1)
        assert {r.product for r in recs} <= {
            r.product for r in reference.recommend(ALICE, limit=100)
        }


class TestCrawlUnderFaults:
    """Satellites for the resilience layer: degradation and quarantine."""

    def test_degraded_fallback_uses_stale_replica(self, published):
        from repro.web.faults import FaultPlan, FaultyWeb, RetryPolicy

        web, _, _ = published
        warm = Crawler(web=web)
        warm.crawl([ALICE])
        old_body = warm.store.get(ALICE).body
        # Every crawled homepage advances, then the Web goes dark.
        for uri in list(warm.store.uris(kind="agent")):
            web.publish(uri, web.fetch(uri).body + "\n")
        dark = Crawler(
            web=FaultyWeb(web, FaultPlan(transient_rate=1.0, seed=1)),
            store=warm.store,
            retry=RetryPolicy(max_retries=1),
        )
        report = dark.crawl([ALICE])
        assert ALICE in report.degraded
        assert set(report.degraded) == set(report.unreachable)
        assert report.retries > 0
        # The stale replica survives, is stamped, and still assembles.
        assert dark.store.get(ALICE).body == old_body
        assert dark.store.get(ALICE).degraded
        dataset, failures = dark.store.assemble_dataset()
        assert not failures
        assert ALICE in dataset.agents

    def test_successful_refetch_clears_degraded_stamp(self, published):
        from repro.web.faults import FaultPlan, FaultyWeb

        web, _, _ = published
        warm = Crawler(web=web)
        warm.crawl([ALICE])
        web.publish(ALICE, web.fetch(ALICE).body + "\n")
        dark = Crawler(
            web=FaultyWeb(web, FaultPlan(transient_rate=1.0, seed=1)),
            store=warm.store,
        )
        dark.crawl([ALICE])
        assert warm.store.get(ALICE).degraded
        warm.crawl([ALICE])  # the Web is reachable again
        assert not warm.store.get(ALICE).degraded
        assert list(warm.store.degraded_uris()) == []

    def test_quarantine_protects_good_replica(self, published):
        from repro.web.faults import FaultPlan, FaultyWeb

        web, _, _ = published
        warm = Crawler(web=web)
        warm.crawl([ALICE])
        old_body = warm.store.get(ALICE).body
        web.publish(ALICE, web.fetch(ALICE).body + "\n")
        corrupting = Crawler(
            web=FaultyWeb(web, FaultPlan(corruption_rate=1.0, seed=3)),
            store=warm.store,
        )
        report = corrupting.crawl([ALICE])
        assert ALICE in report.quarantined
        assert corrupting.store.get(ALICE).body == old_body
        dataset, failures = corrupting.store.assemble_dataset()
        assert not failures

    def test_breaker_trips_surface_in_report(self, published):
        from repro.web.faults import (
            CircuitBreakerRegistry,
            FaultPlan,
            FaultyWeb,
            RetryPolicy,
        )

        web, _, _ = published
        crawler = Crawler(
            web=FaultyWeb(web, FaultPlan(transient_rate=1.0, seed=2)),
            retry=RetryPolicy(max_retries=5),
            breakers=CircuitBreakerRegistry(failure_threshold=2, cooldown_ticks=50),
        )
        report = crawler.crawl([ALICE])
        assert ALICE in report.unreachable
        assert report.breaker_trips >= 1
        assert report.breaker_short_circuits >= 1
        assert report.fetched == 0  # failed attempts never charge budget
