"""The full §4 deployment: split-channel publishing and one-call replication.

§4 separates the two information channels:

* **FOAF homepages** carry identity and *trust* statements (plus the
  ``foaf:knows`` links crawlers walk) — "FOAF defines machine-readable
  homepages based upon RDF and allows weaving acquaintance networks",
  with Golbeck's extension adding real trust values;
* **weblogs** carry *ratings* — "those [hyperlinks] referring to product
  pages from large catalogs like Amazon count as implicit votes".

:func:`publish_split_community` hosts a community in exactly that shape:
rating-free homepages, one weblog per agent, plus the two global
documents.  :class:`CommunityReplicator` is the consumer side: it crawls
homepages for the trust graph, fetches and mines each discovered agent's
weblog, and assembles the combined partial dataset the recommender runs
on — the complete decentralized loop in one call.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core.models import Dataset
from ..core.taxonomy import Taxonomy
from ..obs import Stopwatch, get_metrics, get_tracer
from ..semweb.foaf import publish_agent, publish_catalog, publish_taxonomy
from ..semweb.serializer import serialize_ntriples
from .crawler import DEFAULT_CATALOG_URI, DEFAULT_TAXONOMY_URI, Crawler
from .faults import RetryPolicy
from .network import SimulatedWeb, WebError
from .storage import DocumentStore
from .weblog import LinkMiner, publish_weblogs, weblog_uri

__all__ = ["CommunityReplicator", "ReplicationReport", "publish_split_community"]


def publish_split_community(
    web: SimulatedWeb,
    dataset: Dataset,
    taxonomy: Taxonomy,
    taxonomy_uri: str = DEFAULT_TAXONOMY_URI,
    catalog_uri: str = DEFAULT_CATALOG_URI,
) -> tuple[str, str]:
    """Host a community with trust and ratings on separate channels.

    Homepages carry trust statements only (no ``repro:rates`` triples);
    ratings are rendered into each agent's weblog.  Returns the URIs of
    the global taxonomy and catalog documents.
    """
    for uri in sorted(dataset.agents):
        agent = dataset.agents[uri]
        graph = publish_agent(agent, dataset.trust_of(uri), ratings={})
        web.publish(uri, serialize_ntriples(graph))
    publish_weblogs(web, dataset)
    web.publish(taxonomy_uri, serialize_ntriples(publish_taxonomy(taxonomy)))
    web.publish(catalog_uri, serialize_ntriples(publish_catalog(dataset.products)))
    return taxonomy_uri, catalog_uri


@dataclass(frozen=True, slots=True)
class ReplicationReport:
    """Outcome of one :meth:`CommunityReplicator.replicate` pass.

    The resilience fields mirror :class:`~repro.web.crawler.CrawlReport`
    but aggregate the whole pass (global documents + homepage crawl +
    weblog fetches): ``unreachable`` lists URIs whose fetch failed for
    infrastructure reasons, ``degraded`` the subset served from a stale
    replica instead, and ``quarantined`` the URIs whose corrupt download
    was dropped to keep a good replica.
    """

    homepage_fetches: int
    weblog_fetches: int
    weblogs_missing: tuple[str, ...]
    parse_failures: tuple[str, ...]
    mined_ratings: int
    unmapped_links: int
    budget_exhausted: bool
    unreachable: tuple[str, ...] = ()
    degraded: tuple[str, ...] = ()
    quarantined: tuple[str, ...] = ()
    retries: int = 0
    transient_failures: int = 0
    backoff_ticks: int = 0
    breaker_trips: int = 0
    breaker_short_circuits: int = 0
    #: ``(phase, monotonic ms)`` per replication phase, in execution order
    #: (globals → homepages → assemble → weblogs).  Observability only,
    #: excluded from equality so seeded-run reports compare reproducibly.
    phase_durations: tuple[tuple[str, float], ...] = field(
        default=(), compare=False
    )
    #: ``(phase, breaker trips during that phase)``, same order.
    phase_breaker_trips: tuple[tuple[str, int], ...] = ()


@contextmanager
def _phase(
    name: str,
    crawler: Crawler,
    durations: list[tuple[str, float]],
    trips: list[tuple[str, int]],
) -> Iterator[None]:
    """Time one replication phase under a ``replicate.<name>`` span.

    Appends the phase's monotonic duration and breaker-trip delta to the
    caller's accumulators (they end up on the :class:`ReplicationReport`).
    """
    trips_before = crawler.breakers.trips
    watch = Stopwatch()
    with get_tracer().span(f"replicate.{name}") as span, watch:
        yield
    tripped = crawler.breakers.trips - trips_before
    span.set("breaker_trips", tripped)
    durations.append((name, watch.elapsed_ms))
    trips.append((name, tripped))


@dataclass
class CommunityReplicator:
    """Crawl homepages + mine weblogs into one recommendable dataset.

    ``retry`` opts the whole pass — globals, homepages, and weblogs —
    into bounded retries with backoff; circuit breakers are shared with
    the crawler so a failing site is skipped consistently.
    """

    web: SimulatedWeb
    store: DocumentStore = field(default_factory=DocumentStore)
    retry: RetryPolicy | None = None

    def replicate(
        self,
        seeds: list[str],
        budget: int | None = None,
        taxonomy_uri: str = DEFAULT_TAXONOMY_URI,
        catalog_uri: str = DEFAULT_CATALOG_URI,
    ) -> tuple[Dataset, Taxonomy, ReplicationReport]:
        """Run the full consumer-side loop from *seeds*.

        *budget*, when given, bounds the number of *homepage* fetches;
        weblogs are fetched one per successfully replicated homepage
        (they are cheap, targeted requests, not frontier exploration).
        Returns the assembled partial dataset (trust from homepages,
        ratings from weblogs), the shared taxonomy, and a report.
        """
        crawler = Crawler(web=self.web, store=self.store, retry=self.retry)
        durations: list[tuple[str, float]] = []
        phase_trips: list[tuple[str, int]] = []
        with get_tracer().span(
            "replicate.pass", seeds=len(seeds), budget=budget
        ) as span:
            with _phase("globals", crawler, durations, phase_trips):
                globals_report = crawler.fetch_global_documents(
                    taxonomy_uri, catalog_uri
                )
            with _phase("homepages", crawler, durations, phase_trips):
                crawl_report = crawler.crawl(seeds, budget=budget)

            with _phase("assemble", crawler, durations, phase_trips):
                dataset, assembly_failures = self.store.assemble_dataset()
                taxonomy = self.store.assemble_taxonomy()
                if taxonomy is None:
                    raise WebError(taxonomy_uri)

            miner = LinkMiner(known_products=frozenset(dataset.products))
            weblog_fetches = 0
            weblogs_missing: list[str] = []
            weblog_unreachable: list[str] = []
            weblog_degraded: list[str] = []
            retries = 0
            transients = 0
            backoff = 0
            mined = 0
            with _phase("weblogs", crawler, durations, phase_trips):
                for agent_uri in sorted(dataset.agents):
                    log_uri = weblog_uri(agent_uri)
                    outcome = crawler.fetcher.fetch(log_uri)
                    retries += outcome.retries
                    transients += outcome.transient_failures
                    backoff += outcome.backoff_ticks
                    if outcome.result is not None:
                        weblog_fetches += outcome.cost
                        body = outcome.result.body
                        self.store.put(
                            uri=log_uri,
                            body=body,
                            version=outcome.result.version,
                            fetched_at=crawler.clock,
                            kind="weblog",
                        )
                    elif outcome.error == "missing":
                        weblogs_missing.append(log_uri)
                        continue
                    else:
                        # Unreachable: mine the stale replica when we have
                        # one, so transient weblog outages don't drop known
                        # ratings.
                        weblog_unreachable.append(log_uri)
                        stale = self.store.get(log_uri)
                        if stale is None:
                            continue
                        self.store.mark_degraded(log_uri)
                        weblog_degraded.append(log_uri)
                        body = stale.body
                    for rating in miner.mine(agent_uri, body):
                        dataset.add_rating(rating)
                        mined += 1
            span.set("agents", len(dataset.agents))
            span.set("mined_ratings", mined)
            metrics = get_metrics()
            metrics.counter("replicate.passes").inc()
            metrics.counter("replicate.mined_ratings").inc(mined)

        passes = (globals_report, crawl_report)
        report = ReplicationReport(
            homepage_fetches=crawl_report.fetched,
            weblog_fetches=weblog_fetches,
            weblogs_missing=tuple(weblogs_missing),
            parse_failures=tuple(
                sorted(set(crawl_report.parse_failures) | set(assembly_failures))
            ),
            mined_ratings=mined,
            unmapped_links=len(miner.unmapped),
            budget_exhausted=crawl_report.budget_exhausted,
            unreachable=tuple(
                sorted(
                    {uri for p in passes for uri in p.unreachable}
                    | set(weblog_unreachable)
                )
            ),
            degraded=tuple(
                sorted(
                    {uri for p in passes for uri in p.degraded}
                    | set(weblog_degraded)
                )
            ),
            quarantined=tuple(
                sorted({uri for p in passes for uri in p.quarantined})
            ),
            retries=sum(p.retries for p in passes) + retries,
            transient_failures=sum(p.transient_failures for p in passes) + transients,
            backoff_ticks=sum(p.backoff_ticks for p in passes) + backoff,
            breaker_trips=crawler.breakers.trips,
            breaker_short_circuits=crawler.breakers.short_circuits,
            phase_durations=tuple(durations),
            phase_breaker_trips=tuple(phase_trips),
        )
        return dataset, taxonomy, report
