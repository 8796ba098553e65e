"""Fault injection, retry/backoff, circuit breakers, chaos invariants."""

from __future__ import annotations

import pytest

from repro.semweb.serializer import ParseError, parse_ntriples
from repro.web.crawler import Crawler, publish_community
from repro.web.faults import (
    CircuitBreakerRegistry,
    FaultPlan,
    FaultyWeb,
    ResilientFetcher,
    RetryPolicy,
    TransientWebError,
    site_of,
)
from repro.web.network import SimulatedWeb, WebError
from repro.web.replicator import CommunityReplicator, publish_split_community

ALICE = "http://example.org/alice"


class FlakyWeb:
    """Raises a transient error for the first *failures* fetches per URI."""

    def __init__(self, inner: SimulatedWeb, failures: int = 1) -> None:
        self.inner = inner
        self.failures = failures
        self._seen: dict[str, int] = {}
        self.last_fetch_cost = 1

    def fetch(self, uri):
        seen = self._seen.get(uri, 0)
        if seen < self.failures:
            self._seen[uri] = seen + 1
            self.inner.error_count += 1
            raise TransientWebError(uri)
        return self.inner.fetch(uri)

    def version(self, uri):
        return self.inner.version(uri)

    def exists(self, uri):
        return self.inner.exists(uri)


class TestSiteOf:
    def test_agent_homepage_and_weblog_share_a_site(self):
        assert site_of("http://agents.example.org/a0001") == "agents.example.org/a0001"
        assert site_of("http://agents.example.org/a0001/weblog") == (
            "agents.example.org/a0001"
        )

    def test_distinct_agents_get_distinct_sites(self):
        assert site_of("http://agents.example.org/a0001") != site_of(
            "http://agents.example.org/a0002"
        )

    def test_bare_authority_and_non_url(self):
        assert site_of("http://example.org") == "example.org"
        assert site_of("not-a-url") == "not-a-url"


class TestFaultPlan:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(outage_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(slow_ticks=-1)

    def test_rolls_are_deterministic(self):
        plan = FaultPlan(transient_rate=0.5, slow_rate=0.5, corruption_rate=0.5, seed=3)
        assert plan.rolls("u", 1) == plan.rolls("u", 1)
        # Different attempts re-roll, so retries can succeed.
        rolls = {plan.rolls("u", attempt) for attempt in range(64)}
        assert len(rolls) > 1

    def test_outage_is_per_site_and_permanent(self):
        plan = FaultPlan(outage_rate=0.5, seed=7)
        sites = [f"agents.example.org/a{i:03d}" for i in range(200)]
        down = {site for site in sites if plan.site_down(site)}
        assert 0 < len(down) < len(sites)
        assert all(plan.site_down(site) for site in down)  # stays down


class TestFaultyWeb:
    def _published(self, tiny_dataset, figure1) -> SimulatedWeb:
        web = SimulatedWeb()
        publish_community(web, tiny_dataset, figure1)
        return web

    def test_no_faults_is_transparent(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        faulty = FaultyWeb(inner, FaultPlan())
        assert faulty.fetch(ALICE).body == inner._visible[ALICE][0]
        assert faulty.last_fetch_cost == 1
        assert len(faulty) == len(inner)
        assert ALICE in faulty

    def test_transient_rate_one_always_fails_and_counts(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        faulty = FaultyWeb(inner, FaultPlan(transient_rate=1.0, seed=1))
        for _ in range(3):
            with pytest.raises(TransientWebError):
                faulty.fetch(ALICE)
        assert faulty.transient_failures == 3
        assert faulty.error_count == 3
        assert faulty.fetch_count == 0

    def test_outage_raises_host_down(self, tiny_dataset, figure1):
        from repro.web.faults import HostDownError

        inner = self._published(tiny_dataset, figure1)
        faulty = FaultyWeb(inner, FaultPlan(outage_rate=1.0, seed=1))
        with pytest.raises(HostDownError):
            faulty.fetch(ALICE)
        assert faulty.outages_hit == 1
        # HostDownError degrades to WebError for fault-unaware consumers.
        with pytest.raises(WebError):
            faulty.fetch(ALICE)

    def test_corrupted_body_fails_the_real_parse_path(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        faulty = FaultyWeb(inner, FaultPlan(corruption_rate=1.0, seed=9))
        for uri in list(inner.uris()):
            result = faulty.fetch(uri)
            with pytest.raises(ParseError):
                parse_ntriples(result.body)
        assert faulty.corrupted_served == len(inner)

    def test_slow_fetch_charges_latency(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        faulty = FaultyWeb(inner, FaultPlan(slow_rate=1.0, slow_ticks=4, seed=2))
        faulty.fetch(ALICE)
        assert faulty.last_fetch_cost == 5
        assert faulty.slow_fetches == 1
        assert faulty.latency_ticks == 4

    def test_same_seed_same_faults(self, tiny_dataset, figure1):
        outcomes = []
        for _ in range(2):
            inner = self._published(tiny_dataset, figure1)
            faulty = FaultyWeb(
                inner, FaultPlan(transient_rate=0.4, corruption_rate=0.3, seed=11)
            )
            run = []
            for uri in sorted(inner.uris()):
                for _attempt in range(3):
                    try:
                        run.append(("ok", faulty.fetch(uri).body))
                    except WebError as error:
                        run.append(("err", type(error).__name__))
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff=1, multiplier=2.0, max_backoff=8, jitter=0.0)
        ticks = [policy.backoff_ticks("u", n) for n in range(6)]
        assert ticks == [1, 2, 4, 8, 8, 8]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_backoff=4, max_backoff=64, jitter=0.5, seed=5)
        first = [policy.backoff_ticks("u", n) for n in range(4)]
        second = [policy.backoff_ticks("u", n) for n in range(4)]
        assert first == second
        for n, tick in enumerate(first):
            raw = 4 * 2.0**n
            assert raw * 0.5 - 1 <= tick <= raw * 1.5 + 1


class TestCircuitBreaker:
    def test_full_state_machine(self):
        registry = CircuitBreakerRegistry(failure_threshold=2, cooldown_ticks=3)
        site = "example.org/x"
        assert registry.state(site) == "closed"
        registry.record_failure(site, now=0)
        assert registry.state(site) == "closed"
        registry.record_failure(site, now=1)
        assert registry.state(site) == "open"
        assert registry.trips == 1
        # Open: short-circuits until the cooldown elapses.
        assert not registry.allow(site, now=2)
        assert registry.short_circuits == 1
        assert registry.allow(site, now=4)
        assert registry.state(site) == "half_open"
        # Half-open probe fails: re-open immediately.
        registry.record_failure(site, now=4)
        assert registry.state(site) == "open"
        assert registry.trips == 2
        # Half-open probe succeeds: re-close.
        assert registry.allow(site, now=8)
        registry.record_success(site)
        assert registry.state(site) == "closed"
        assert registry.allow(site, now=9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreakerRegistry(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreakerRegistry(cooldown_ticks=0)


class TestResilientFetcher:
    def _published(self, tiny_dataset, figure1) -> SimulatedWeb:
        web = SimulatedWeb()
        publish_community(web, tiny_dataset, figure1)
        return web

    def test_retries_mask_transient_faults(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        fetcher = ResilientFetcher(
            web=FlakyWeb(inner, failures=2), retry=RetryPolicy(max_retries=3)
        )
        outcome = fetcher.fetch(ALICE)
        assert outcome.ok
        assert outcome.retries == 2
        assert outcome.transient_failures == 2
        assert outcome.attempts == 3
        assert outcome.cost == 1

    def test_exhausted_retries_report_transient(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        fetcher = ResilientFetcher(
            web=FlakyWeb(inner, failures=10), retry=RetryPolicy(max_retries=2)
        )
        outcome = fetcher.fetch(ALICE)
        assert not outcome.ok
        assert outcome.error == "transient"
        # Invariant: the final attempt fails without a retry following it.
        assert outcome.transient_failures == outcome.retries + 1

    def test_missing_is_not_retried(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        fetcher = ResilientFetcher(web=inner, retry=RetryPolicy(max_retries=5))
        outcome = fetcher.fetch("http://example.org/ghost")
        assert outcome.error == "missing"
        assert outcome.attempts == 1
        assert outcome.retries == 0

    def test_outage_is_not_retried(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        faulty = FaultyWeb(inner, FaultPlan(outage_rate=1.0, seed=1))
        fetcher = ResilientFetcher(web=faulty, retry=RetryPolicy(max_retries=5))
        outcome = fetcher.fetch(ALICE)
        assert outcome.error == "outage"
        assert outcome.attempts == 1

    def test_breaker_opens_short_circuits_then_recloses(self, tiny_dataset, figure1):
        inner = self._published(tiny_dataset, figure1)
        flaky = FlakyWeb(inner, failures=2)
        fetcher = ResilientFetcher(
            web=flaky,
            retry=RetryPolicy(max_retries=0),
            breakers=CircuitBreakerRegistry(failure_threshold=2, cooldown_ticks=2),
        )
        site = site_of(ALICE)
        assert fetcher.fetch(ALICE).error == "transient"
        assert fetcher.fetch(ALICE).error == "transient"
        assert fetcher.breakers.state(site) == "open"
        assert fetcher.fetch(ALICE).error == "short_circuit"
        # Cooldown elapses (ticks advance per call); half-open probe succeeds.
        outcome = fetcher.fetch(ALICE)
        assert outcome.ok
        assert fetcher.breakers.state(site) == "closed"
        assert fetcher.breakers.trips == 1
        assert fetcher.breakers.short_circuits == 1


@pytest.fixture(scope="module")
def chaos_community():
    from repro.datasets.generators import CommunityConfig, generate_community

    return generate_community(
        CommunityConfig(n_agents=60, n_products=120, n_clusters=4, seed=19)
    )


def _dataset_fingerprint(dataset):
    return (
        sorted(dataset.agents),
        {uri: dataset.trust_of(uri) for uri in dataset.agents},
        {uri: dataset.ratings_of(uri) for uri in dataset.agents},
    )


class TestCrawlUnderFaults:
    def test_seeded_runs_are_reproducible(self, chaos_community):
        reports = []
        stores = []
        for _ in range(2):
            web = SimulatedWeb()
            publish_community(web, chaos_community.dataset, chaos_community.taxonomy)
            faulty = FaultyWeb(
                web,
                FaultPlan(
                    transient_rate=0.3, corruption_rate=0.1, slow_rate=0.2, seed=23
                ),
            )
            crawler = Crawler(web=faulty, retry=RetryPolicy(max_retries=2, seed=23))
            seed_agent = sorted(chaos_community.dataset.agents)[0]
            reports.append(crawler.crawl([seed_agent]))
            stores.append(crawler.store)
        assert reports[0] == reports[1]
        assert sorted(stores[0].uris()) == sorted(stores[1].uris())
        assert all(
            stores[0].get(uri).body == stores[1].get(uri).body
            for uri in stores[0].uris()
        )

    def test_transient_faults_fully_masked_by_retries(self, chaos_community):
        """Acceptance: rate-0.2 budgeted crawl == fault-free crawl."""
        seed_agent = sorted(chaos_community.dataset.agents)[0]
        datasets = []
        for faulted in (False, True):
            web = SimulatedWeb()
            taxonomy_uri, catalog_uri = publish_split_community(
                web, chaos_community.dataset, chaos_community.taxonomy
            )
            consumer = (
                FaultyWeb(web, FaultPlan(transient_rate=0.2, seed=41))
                if faulted
                else web
            )
            replicator = CommunityReplicator(
                web=consumer, retry=RetryPolicy(max_retries=5, seed=41)
            )
            dataset, _, report = replicator.replicate(
                [seed_agent],
                budget=len(chaos_community.dataset.agents) + 10,
                taxonomy_uri=taxonomy_uri,
                catalog_uri=catalog_uri,
            )
            if faulted:
                assert report.retries > 0
                assert report.unreachable == ()
            datasets.append(dataset)
        assert _dataset_fingerprint(datasets[0]) == _dataset_fingerprint(datasets[1])

    def test_degraded_assembly_never_raises(self, chaos_community):
        """Chaos sweep: the crawl/assemble loop survives fault rates <= 0.5."""
        seed_agent = sorted(chaos_community.dataset.agents)[0]
        for rate in (0.1, 0.3, 0.5):
            web = SimulatedWeb()
            publish_community(web, chaos_community.dataset, chaos_community.taxonomy)
            faulty = FaultyWeb(
                web,
                FaultPlan(
                    transient_rate=rate,
                    corruption_rate=rate / 2,
                    slow_rate=rate / 2,
                    outage_rate=rate / 8,
                    seed=int(rate * 100),
                ),
            )
            crawler = Crawler(web=faulty, retry=RetryPolicy(max_retries=2))
            crawler.fetch_global_documents()
            report = crawler.crawl([seed_agent])
            # Assembly over a partially-degraded store must not raise,
            # even when the cold crawl could not reach the seed at all.
            dataset, failures = crawler.store.assemble_dataset()
            assert set(dataset.agents) <= set(chaos_community.dataset.agents)
            assert set(failures) <= set(crawler.store.uris())
            self._check_report_invariants(report)

    def test_report_failure_fields_sum_consistently(self, chaos_community):
        web = SimulatedWeb()
        publish_community(web, chaos_community.dataset, chaos_community.taxonomy)
        faulty = FaultyWeb(
            web, FaultPlan(transient_rate=0.4, outage_rate=0.1, seed=13)
        )
        crawler = Crawler(web=faulty, retry=RetryPolicy(max_retries=2))
        report = crawler.crawl([sorted(chaos_community.dataset.agents)[0]])
        self._check_report_invariants(report)
        # Every transient failure the web injected during this crawl is
        # accounted for in the report.
        assert report.transient_failures == faulty.transient_failures

    @staticmethod
    def _check_report_invariants(report):
        failed = set(report.missing) | set(report.unreachable)
        assert set(report.missing).isdisjoint(report.unreachable)
        assert set(report.degraded) <= failed
        assert set(report.quarantined).isdisjoint(failed)
        assert report.retries <= report.transient_failures
        assert report.breaker_trips >= 0
        assert report.breaker_short_circuits >= 0
        assert report.fetched >= 0


class TestChaosExperiment:
    def test_ex18_emits_quality_vs_fault_rate(self, chaos_community):
        from repro.evaluation.experiments_chaos import run_ex18_chaos

        table = run_ex18_chaos(
            chaos_community, fault_rates=(0.0, 0.25, 0.5), top_n=5
        )
        assert len(table.rows) == 3
        # Fault-free row agrees with itself perfectly.
        assert float(table.rows[0][-1]) == 1.0
        coverages = [float(row[-2]) for row in table.rows]
        assert all(0.0 <= c <= 1.0 for c in coverages)
        # Chaos rows actually exercised the retry machinery.
        assert int(table.rows[-1][2]) > 0
