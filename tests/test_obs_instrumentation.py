"""Instrumentation contracts: traces/metrics mirror results exactly.

The observability layer's promise is that a trace is *evidence*, not a
parallel bookkeeping that can drift: the Appleseed span's sweep count
is the result's own ``iterations``, the crawl span's fetch count is the
report's ``fetched``, and two same-seed runs trace identically modulo
``duration_ms``.
"""

from __future__ import annotations

import pytest

from repro.core.similarity import top_similar
from repro.datasets.generators import CommunityConfig, generate_community
from repro.obs import collecting, strip_durations, tracing
from repro.trust.advogato import Advogato
from repro.trust.appleseed import Appleseed
from repro.trust.engine import rank_many
from repro.trust.graph import TrustGraph
from repro.web.crawler import Crawler, publish_community
from repro.web.network import SimulatedWeb
from repro.web.replicator import CommunityReplicator, publish_split_community


def _small_community(seed: int = 5):
    return generate_community(
        CommunityConfig(n_agents=40, n_products=80, n_clusters=4, seed=seed)
    )


def _graph_and_source(community):
    graph = TrustGraph.from_dataset(community.dataset)
    return graph, sorted(community.dataset.agents)[0]


class TestAppleseedTelemetry:
    def test_span_mirrors_result_fields(self):
        community = _small_community()
        graph, source = _graph_and_source(community)
        with tracing() as tracer, collecting() as registry:
            result = Appleseed().compute(graph, source)
        (record,) = [
            r for r in tracer.records() if r["name"] == "appleseed.compute"
        ]
        assert record["attrs"]["iterations"] == result.iterations
        assert record["attrs"]["converged"] == result.converged
        assert record["attrs"]["network_size"] == len(result.ranks)
        # The residual-energy series is the result's history, verbatim.
        assert record["attrs"]["residual_energy"] == result.history
        assert len(result.history) == result.iterations
        assert registry.counter("appleseed.sweeps").value == result.iterations
        assert registry.counter("appleseed.computations").value == 1
        histogram = registry.histogram("trust.neighborhood_size")
        assert histogram.observations == 1
        assert histogram.total == len(result.ranks)

    def test_sweep_counter_sums_over_computations(self):
        community = _small_community()
        graph, _ = _graph_and_source(community)
        sources = sorted(community.dataset.agents)[:3]
        metric = Appleseed()
        with collecting() as registry:
            results = [metric.compute(graph, source) for source in sources]
        assert registry.counter("appleseed.sweeps").value == sum(
            result.iterations for result in results
        )
        assert registry.counter("appleseed.computations").value == len(sources)

        # A rank_many sweep leaves the same per-source evidence under one
        # span, one engine selection and at most one pack.
        with tracing() as tracer, collecting() as registry:
            swept = rank_many(graph, sources, metric=metric)
        assert swept == results
        records = tracer.records()
        (sweep,) = [r for r in records if r["name"] == "trust.rank_many"]
        computes = [r for r in records if r["name"] == "appleseed.compute"]
        assert [r["attrs"]["source"] for r in computes] == sources
        for record, result in zip(computes, swept):
            assert record["parent"] == sweep["id"]
            assert record["attrs"]["engine"] == "numpy"
            assert record["attrs"]["iterations"] == result.iterations
            assert record["attrs"]["network_size"] == len(result.ranks)
        assert registry.counter("trust.engine.selected.numpy").value == 1
        assert registry.counter("appleseed.computations").value == len(sources)
        assert registry.counter("appleseed.sweeps").value == sum(
            result.iterations for result in swept
        )
        assert registry.counter("trust.matrix.packs").value <= 1

        # The oracle sweep counts its engine selection once too, with the
        # per-source spans and results of one oracle computation each.
        python = Appleseed(engine="python")
        expected = [python.compute(graph, source) for source in sources]
        with tracing() as tracer, collecting() as registry:
            oracle = rank_many(graph, sources, metric=metric, engine="python")
        assert oracle == expected
        computes = [r for r in tracer.records() if r["name"] == "appleseed.compute"]
        assert [r["attrs"]["source"] for r in computes] == sources
        assert all(r["attrs"]["engine"] == "python" for r in computes)
        assert registry.counter("trust.engine.selected.python").value == 1
        assert registry.counter("appleseed.computations").value == len(sources)

    def test_iteration_cap_hit_is_counted(self):
        community = _small_community()
        graph, source = _graph_and_source(community)
        capped = Appleseed(max_iterations=1, convergence_threshold=1e-9)
        with collecting() as registry:
            result = capped.compute(graph, source)
        assert not result.converged
        assert registry.counter("appleseed.iteration_cap_hits").value == 1


class TestAdvogatoTelemetry:
    def test_span_mirrors_result_fields(self):
        community = _small_community()
        graph, source = _graph_and_source(community)
        with tracing() as tracer, collecting() as registry:
            result = Advogato(target_size=10).compute(graph, source)
        (record,) = [
            r for r in tracer.records() if r["name"] == "advogato.compute"
        ]
        assert record["attrs"]["accepted"] == len(result.accepted)
        assert record["attrs"]["total_flow"] == result.total_flow
        assert registry.counter("advogato.accepted").value == len(result.accepted)
        assert registry.counter("advogato.flow").value == result.total_flow


class TestTraceDeterminism:
    def test_same_seed_traces_identical_modulo_durations(self):
        projections = []
        for _ in range(2):
            community = _small_community(seed=9)
            graph, source = _graph_and_source(community)
            with tracing() as tracer:
                Appleseed().compute(graph, source)
                Advogato(target_size=10).compute(graph, source)
            projections.append(strip_durations(tracer.records()))
        assert projections[0] == projections[1]

    def test_crawl_trace_deterministic_modulo_durations(self):
        projections = []
        for _ in range(2):
            community = _small_community(seed=11)
            web = SimulatedWeb()
            publish_community(web, community.dataset, community.taxonomy)
            crawler = Crawler(web=web)
            seed_agent = sorted(community.dataset.agents)[0]
            with tracing() as tracer:
                crawler.crawl([seed_agent])
            projections.append(strip_durations(tracer.records()))
        assert projections[0] == projections[1]


class TestCrawlTelemetry:
    def test_crawl_span_and_report_agree(self):
        community = _small_community(seed=11)
        web = SimulatedWeb()
        publish_community(web, community.dataset, community.taxonomy)
        crawler = Crawler(web=web)
        seed_agent = sorted(community.dataset.agents)[0]
        with tracing() as tracer, collecting() as registry:
            report = crawler.crawl([seed_agent])
        (record,) = [r for r in tracer.records() if r["name"] == "crawl.pass"]
        assert record["attrs"]["kind"] == "crawl"
        assert record["attrs"]["fetched"] == report.fetched
        assert record["attrs"]["discovered"] == report.discovered
        assert registry.counter("crawl.fetched").value == report.fetched
        assert registry.counter("crawl.passes").value == 1

    def test_report_carries_a_duration(self):
        community = _small_community(seed=11)
        web = SimulatedWeb()
        publish_community(web, community.dataset, community.taxonomy)
        crawler = Crawler(web=web)
        seed_agent = sorted(community.dataset.agents)[0]
        report = crawler.crawl([seed_agent])
        assert report.duration_ms > 0.0
        refresh = crawler.refresh()
        assert refresh.duration_ms > 0.0

    def test_duration_excluded_from_report_equality(self):
        from dataclasses import replace

        community = _small_community(seed=11)
        web = SimulatedWeb()
        publish_community(web, community.dataset, community.taxonomy)
        crawler = Crawler(web=web)
        report = crawler.crawl([sorted(community.dataset.agents)[0]])
        assert report == replace(report, duration_ms=report.duration_ms + 1.0)


class TestReplicationTelemetry:
    def test_phase_durations_and_trips_on_report(self):
        community = _small_community(seed=13)
        web = SimulatedWeb()
        taxonomy_uri, catalog_uri = publish_split_community(
            web, community.dataset, community.taxonomy
        )
        replicator = CommunityReplicator(web=web)
        seed_agent = sorted(community.dataset.agents)[0]
        with tracing() as tracer:
            _, _, report = replicator.replicate(
                [seed_agent], taxonomy_uri=taxonomy_uri, catalog_uri=catalog_uri
            )
        assert [name for name, _ in report.phase_durations] == [
            "globals",
            "homepages",
            "assemble",
            "weblogs",
        ]
        assert all(duration >= 0.0 for _, duration in report.phase_durations)
        assert [name for name, _ in report.phase_breaker_trips] == [
            "globals",
            "homepages",
            "assemble",
            "weblogs",
        ]
        # A fault-free run trips no breakers, in total or per phase.
        assert sum(trips for _, trips in report.phase_breaker_trips) == 0
        names = [record["name"] for record in tracer.records()]
        assert "replicate.pass" in names
        assert "replicate.weblogs" in names
        # The phase spans nest under the pass span.
        by_name = {record["name"]: record for record in tracer.records()}
        pass_id = by_name["replicate.pass"]["id"]
        assert by_name["replicate.globals"]["parent"] == pass_id


class TestEngineAndCacheTelemetry:
    def test_matrix_cache_hit_miss_counters(self):
        from repro.core.profiles import TaxonomyProfileBuilder
        from repro.core.recommender import ProfileStore

        community = _small_community(seed=17)
        store = ProfileStore(
            community.dataset, TaxonomyProfileBuilder(community.taxonomy)
        )
        kinds = ("splice", "miss", "hit")
        with collecting() as registry:
            store.matrix()
            store.matrix()
            store.invalidate()
            store.matrix()
            before = [registry.counter(f"similarity.matrix_cache.{k}").value for k in kinds]
            # One agent's invalidation splices its row in place: no miss,
            # and the next read is a hit.
            store.invalidate(sorted(community.dataset.agents)[0])
            store.matrix()
            after = [registry.counter(f"similarity.matrix_cache.{k}").value for k in kinds]
        assert before == [0, 2, 1]
        assert after == [1, 2, 2]

    def test_engine_selection_counter(self):
        """Each computation counts the path it took, once."""
        from repro.core.profiles import TaxonomyProfileBuilder
        from repro.core.recommender import ProfileStore, SemanticWebRecommender

        community = _small_community(seed=17)
        dataset = community.dataset
        graph = TrustGraph.from_dataset(dataset)
        store = ProfileStore(dataset, TaxonomyProfileBuilder(community.taxonomy))
        agent = sorted(dataset.agents)[0]
        peers = set(sorted(dataset.agents)[1:4])
        with collecting() as registry:
            for engine in ("auto", "python"):
                SemanticWebRecommender(
                    dataset=dataset, graph=graph, profiles=store, engine=engine
                ).similarities(agent, peers)
                Appleseed(engine=engine).compute(graph, agent)
                # A limit of 0 ranks nothing, so it selects no engine.
                assert top_similar({"a": 1.0}, {"b": {"a": 1.0}}, limit=0, engine=engine) == []
        for family in ("engine", "trust.engine"):
            for path in ("numpy", "python"):
                assert registry.counter(f"{family}.selected.{path}").value == 1
        with pytest.raises(ValueError):
            top_similar({}, {}, limit=0, engine="numpy")


class TestFetchTelemetry:
    def test_fetch_outcomes_and_breaker_trips_counted(self):
        from repro.web.faults import (
            CircuitBreakerRegistry,
            FaultPlan,
            FaultyWeb,
            ResilientFetcher,
            RetryPolicy,
        )

        web = SimulatedWeb()
        web.publish("http://site.example/a/doc", "body")
        faulty = FaultyWeb(web, FaultPlan(transient_rate=1.0, seed=1))
        fetcher = ResilientFetcher(
            web=faulty,
            retry=RetryPolicy(max_retries=1, seed=1),
            breakers=CircuitBreakerRegistry(failure_threshold=2),
        )
        with collecting() as registry:
            outcome = fetcher.fetch("http://site.example/a/doc")
        assert outcome.error == "transient"
        assert registry.counter("fetch.outcome.transient").value == 1
        assert registry.counter("fetch.retries").value == outcome.retries
        assert registry.counter("breaker.trips").value == fetcher.breakers.trips
