"""A link-following crawler over the simulated Web.

The paper's infrastructure keeps local replicas fresh through "tailored
crawlers [that] search the Web for weblogs and ensure data freshness"
(§4.1).  The crawler here walks ``foaf:knows`` links breadth-first from
seed agents, honours a per-crawl *fetch budget* (politeness / cost bound),
records parse failures without aborting, and supports *refresh* passes
that re-fetch only documents whose live version advanced (conditional-GET
semantics via cheap version probes).

Together with :class:`~repro.web.network.SimulatedWeb` and
:class:`~repro.web.storage.DocumentStore` this closes the decentralized
loop: publish → crawl → assemble partial dataset → recommend locally.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from ..core.models import Dataset, clamp_score
from ..core.taxonomy import Taxonomy
from ..obs import Stopwatch, get_metrics, get_tracer
from ..semweb.foaf import (
    parse_agent_homepage,
    publish_agent,
    publish_catalog,
    publish_taxonomy,
)
from ..semweb.namespace import FOAF
from ..semweb.rdf import URIRef
from ..semweb.serializer import ParseError, parse_ntriples, serialize_ntriples
from .faults import CircuitBreakerRegistry, ResilientFetcher, RetryPolicy
from .network import SimulatedWeb
from .storage import DocumentStore

__all__ = ["CrawlReport", "Crawler", "publish_community"]

#: Default URIs of the globally accessible documents (§3.1: the taxonomy,
#: product set and descriptor assignment "must hold globally").
DEFAULT_TAXONOMY_URI = "http://repro.example.org/docs/taxonomy"
DEFAULT_CATALOG_URI = "http://repro.example.org/docs/catalog"


@dataclass(frozen=True, slots=True)
class CrawlReport:
    """Outcome of one crawl, refresh, or global-document pass.

    ``fetched`` counts budget units charged (one per completed transfer
    plus any injected latency ticks).  The failure fields partition the
    URIs whose fetch ultimately failed: ``missing`` (clean 404s) and
    ``unreachable`` (transient retries exhausted, site outages, or open
    circuit breakers).  ``degraded`` lists the subset of failed URIs the
    crawl kept serving from a stale replica; ``quarantined`` lists URIs
    whose freshly fetched body was corrupt and was dropped to protect an
    existing good replica.  The counters (``retries``,
    ``transient_failures``, ``backoff_ticks``, ``breaker_trips``,
    ``breaker_short_circuits``) aggregate the resilience machinery's
    work during the pass.
    """

    fetched: int
    discovered: int
    missing: tuple[str, ...]
    parse_failures: tuple[str, ...]
    budget_exhausted: bool
    frontier_left: tuple[str, ...] = ()
    unreachable: tuple[str, ...] = ()
    degraded: tuple[str, ...] = ()
    quarantined: tuple[str, ...] = ()
    retries: int = 0
    transient_failures: int = 0
    backoff_ticks: int = 0
    breaker_trips: int = 0
    breaker_short_circuits: int = 0
    #: Monotonic wall time of the pass; observability only, excluded from
    #: equality so seeded-run reports still compare reproducibly.
    duration_ms: float = field(default=0.0, compare=False)


class _PassStats:
    """Mutable accumulator for one crawl/refresh pass."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.parse_failures: list[str] = []
        self.unreachable: list[str] = []
        self.degraded: list[str] = []
        self.quarantined: list[str] = []
        self.retries = 0
        self.transient_failures = 0
        self.backoff_ticks = 0


@dataclass
class Crawler:
    """Breadth-first FOAF crawler with budget, freshness and fault control.

    ``clock`` advances by one per pass and stamps every stored document,
    so staleness is measurable in passes as well as document versions.

    ``retry`` opts into bounded retries with backoff for transient
    failures (default: fetch exactly once, the historical behavior);
    ``breakers`` holds the per-site circuit breakers, shared across
    passes so repeatedly failing sites stay short-circuited.  When a
    fetch ultimately fails but a stale replica exists, the crawl keeps
    working from the replica (stamped degraded) instead of dropping the
    region of the graph behind it.
    """

    web: SimulatedWeb
    store: DocumentStore = field(default_factory=DocumentStore)
    clock: int = 0
    retry: RetryPolicy | None = None
    breakers: CircuitBreakerRegistry | None = None

    #: Path-trust assigned to a bare ``foaf:knows`` link with no explicit
    #: trust statement, and the floor for distrusted/zero-weight edges.
    DEFAULT_LINK_TRUST = 0.25

    def __post_init__(self) -> None:
        if self.breakers is None:
            self.breakers = CircuitBreakerRegistry()
        self.fetcher = ResilientFetcher(
            web=self.web,
            retry=self.retry or RetryPolicy(max_retries=0),
            breakers=self.breakers,
        )

    def crawl(
        self,
        seeds: list[str],
        budget: int | None = None,
        max_depth: int | None = None,
        prioritize_by_trust: bool = False,
    ) -> CrawlReport:
        """Crawl agent homepages from *seeds*, following ``foaf:knows``.

        Already-replicated, still-fresh documents cost no fetch; link
        extraction still runs on them so the frontier stays complete.
        *budget* bounds the number of fetches, not of visited URIs.

        With ``prioritize_by_trust`` the frontier becomes a best-first
        queue ordered by *path trust* — the product of stated trust
        values along the discovery path — so a budgeted crawl spends its
        fetches on the most-trusted region first.  This matters exactly
        when budgets bind: the trust neighborhood the recommender needs
        is the high-trust region (EX11 measures the difference).
        """
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        return self._traced_pass(
            "crawl",
            lambda: self._crawl_pass(seeds, budget, max_depth, prioritize_by_trust),
            seeds=len(seeds),
            budget=budget,
        )

    def _crawl_pass(
        self,
        seeds: list[str],
        budget: int | None,
        max_depth: int | None,
        prioritize_by_trust: bool,
    ) -> CrawlReport:
        self.clock += 1
        fetched = 0
        discovered = 0
        stats = _PassStats()
        trips_before = self.breakers.trips
        shorts_before = self.breakers.short_circuits
        budget_exhausted = False

        queue: deque[tuple[str, int]] = deque()
        heap: list[tuple[float, int, str, int]] = []
        tiebreak = itertools.count()
        best_trust: dict[str, float] = {}
        settled: set[str] = set()
        enqueued: set[str] = set(seeds)
        for uri in seeds:
            best_trust[uri] = 1.0
            if prioritize_by_trust:
                heapq.heappush(heap, (-1.0, next(tiebreak), uri, 0))
            else:
                queue.append((uri, 0))

        while heap if prioritize_by_trust else queue:
            if prioritize_by_trust:
                negative_trust, _, uri, depth = heapq.heappop(heap)
                path_trust = -negative_trust
                # Edge trust <= 1 makes this a max-product Dijkstra: the
                # first pop of a URI carries its best path trust; later
                # heap entries for it are stale.
                if uri in settled:
                    continue
            else:
                uri, depth = queue.popleft()
                path_trust = best_trust.get(uri, 1.0)

            replica = self.store.get(uri)
            is_stale = replica is None or self.web.version(uri) > replica.version
            if is_stale:
                if budget is not None and fetched >= budget:
                    budget_exhausted = True
                    if prioritize_by_trust:
                        heapq.heappush(heap, (-path_trust, next(tiebreak), uri, depth))
                    else:
                        queue.appendleft((uri, depth))
                    break
                status, cost = self._fetch_document(uri, "agent", stats)
                fetched += cost
                if status == "failed":
                    if replica is None:
                        settled.add(uri)
                        continue
                    # Graceful degradation: keep crawling from the stale
                    # replica instead of dropping the region behind it.
                    self.store.mark_degraded(uri)
                    stats.degraded.append(uri)
                replica = self.store.get(uri)
            settled.add(uri)
            assert replica is not None
            if max_depth is not None and depth >= max_depth:
                continue
            for neighbor, weight in self._extract_weighted_links(
                uri, replica.body, stats.parse_failures
            ):
                edge_trust = max(weight, self.DEFAULT_LINK_TRUST)
                neighbor_trust = path_trust * edge_trust
                if neighbor not in enqueued:
                    enqueued.add(neighbor)
                    discovered += 1
                if prioritize_by_trust:
                    if (
                        neighbor not in settled
                        and neighbor_trust > best_trust.get(neighbor, 0.0)
                    ):
                        best_trust[neighbor] = neighbor_trust
                        heapq.heappush(
                            heap,
                            (-neighbor_trust, next(tiebreak), neighbor, depth + 1),
                        )
                elif neighbor not in best_trust:
                    # Plain BFS enqueues each URI exactly once.
                    best_trust[neighbor] = neighbor_trust
                    queue.append((neighbor, depth + 1))

        if prioritize_by_trust:
            left = {uri for _, _, uri, _ in heap if uri not in settled}
            frontier_left = tuple(sorted(left))
        else:
            frontier_left = tuple(uri for uri, _ in queue)
        return self._report(
            stats,
            fetched=fetched,
            discovered=discovered,
            budget_exhausted=budget_exhausted,
            frontier_left=frontier_left,
            trips_before=trips_before,
            shorts_before=shorts_before,
        )

    def refresh(self, budget: int | None = None) -> CrawlReport:
        """Re-fetch replicated agent documents whose live version advanced.

        A replica whose refresh fetch fails stays in service, stamped
        degraded, so consumers never lose data they already had.
        """
        return self._traced_pass(
            "refresh", lambda: self._refresh_pass(budget), budget=budget
        )

    def _refresh_pass(self, budget: int | None) -> CrawlReport:
        self.clock += 1
        fetched = 0
        stats = _PassStats()
        trips_before = self.breakers.trips
        shorts_before = self.breakers.short_circuits
        budget_exhausted = False
        for uri in sorted(self.store.uris(kind="agent")):
            document = self.store.get(uri)
            assert document is not None
            if self.web.version(uri) <= document.version:
                continue
            if budget is not None and fetched >= budget:
                budget_exhausted = True
                break
            status, cost = self._fetch_document(uri, "agent", stats)
            fetched += cost
            if status == "failed":
                self.store.mark_degraded(uri)
                stats.degraded.append(uri)
        return self._report(
            stats,
            fetched=fetched,
            discovered=0,
            budget_exhausted=budget_exhausted,
            trips_before=trips_before,
            shorts_before=shorts_before,
        )

    def fetch_global_documents(
        self,
        taxonomy_uri: str = DEFAULT_TAXONOMY_URI,
        catalog_uri: str = DEFAULT_CATALOG_URI,
    ) -> CrawlReport:
        """Fetch the globally accessible taxonomy and catalog documents."""
        return self._traced_pass(
            "global_documents",
            lambda: self._global_pass(taxonomy_uri, catalog_uri),
        )

    def _global_pass(self, taxonomy_uri: str, catalog_uri: str) -> CrawlReport:
        self.clock += 1
        stats = _PassStats()
        trips_before = self.breakers.trips
        shorts_before = self.breakers.short_circuits
        fetched = 0
        for uri, kind in ((taxonomy_uri, "taxonomy"), (catalog_uri, "catalog")):
            status, cost = self._fetch_document(uri, kind, stats)
            fetched += cost
            if status == "failed" and uri in self.store:
                self.store.mark_degraded(uri)
                stats.degraded.append(uri)
        return self._report(
            stats,
            fetched=fetched,
            discovered=0,
            budget_exhausted=False,
            trips_before=trips_before,
            shorts_before=shorts_before,
        )

    # -- internals ------------------------------------------------------------

    def _traced_pass(
        self, kind: str, run: Callable[[], CrawlReport], **attrs: object
    ) -> CrawlReport:
        """Run one pass under a ``crawl.pass`` span, stamping its duration.

        The span mirrors the returned :class:`CrawlReport` exactly
        (fetched / discovered / quarantined / breaker trips), so a trace
        is evidence of what the pass did, not parallel bookkeeping.
        """
        with get_tracer().span("crawl.pass", kind=kind, **attrs) as span:
            with Stopwatch() as watch:
                report = run()
            report = replace(report, duration_ms=watch.elapsed_ms)
            span.set("fetched", report.fetched)
            span.set("discovered", report.discovered)
            span.set("unreachable", len(report.unreachable))
            span.set("quarantined", len(report.quarantined))
            span.set("breaker_trips", report.breaker_trips)
            metrics = get_metrics()
            metrics.counter("crawl.passes").inc()
            metrics.counter("crawl.fetched").inc(report.fetched)
            metrics.counter("crawl.quarantined").inc(len(report.quarantined))
            metrics.counter("crawl.degraded").inc(len(report.degraded))
        return report

    def _extract_weighted_links(
        self, uri: str, body: str, parse_failures: list[str]
    ) -> list[tuple[str, float]]:
        """``(target, trust weight)`` pairs from a homepage document.

        ``foaf:knows`` links without an accompanying trust statement get
        weight 0.0 (the caller applies :attr:`DEFAULT_LINK_TRUST` as the
        floor); reified trust statements supply their stated value.

        Crawled documents are untrusted input (§3.2, §4): stated weights
        are clamped onto the paper's ``[-1, +1]`` scale via
        :func:`repro.core.models.clamp_score`, and NaN weights are
        dropped like any other malformed statement.
        """
        from ..semweb.namespace import TRUST
        from ..semweb.rdf import Literal

        try:
            graph = parse_ntriples(body)
        except ParseError:
            parse_failures.append(uri)
            return []
        weights: dict[str, float] = {
            str(obj): 0.0
            for _, _, obj in graph.triples((None, FOAF.knows, None))
            if isinstance(obj, URIRef)
        }
        for _, _, statement in graph.triples((None, TRUST.trusts, None)):
            target = graph.value(subject=statement, predicate=TRUST.target)
            value = graph.value(subject=statement, predicate=TRUST.value)
            if isinstance(target, URIRef) and isinstance(value, Literal):
                try:
                    weights[str(target)] = clamp_score(
                        float(value.to_python()), kind="link trust weight"
                    )
                except (TypeError, ValueError):
                    continue
        return sorted(weights.items())

    def _fetch_document(
        self, uri: str, kind: str, stats: _PassStats
    ) -> tuple[str, int]:
        """Fetch *uri* through the resilient fetcher into the store.

        Returns ``(status, cost)``: ``"stored"`` (fresh replica, possibly
        unparseable but recorded), ``"quarantined"`` (corrupt body dropped
        to protect an existing good replica), or ``"failed"``
        (nothing transferred; the caller decides about degradation).
        *cost* is the budget charge — zero for failures.
        """
        outcome = self.fetcher.fetch(uri)
        stats.retries += outcome.retries
        stats.transient_failures += outcome.transient_failures
        stats.backoff_ticks += outcome.backoff_ticks
        if not outcome.ok:
            if outcome.error == "missing":
                stats.missing.append(uri)
            else:
                stats.unreachable.append(uri)
            return "failed", 0
        result = outcome.result
        assert result is not None
        if kind in ("agent", "taxonomy", "catalog"):
            try:
                graph = parse_ntriples(result.body)
                if kind == "agent":
                    parse_agent_homepage(graph)
            except (ParseError, ValueError):
                if uri in self.store:
                    # Never clobber a good replica with a corrupt download:
                    # drop the body and report the URI.
                    stats.quarantined.append(uri)
                    return "quarantined", outcome.cost
                # Store anyway: assembly will skip it, a later refresh may
                # pick up a repaired version.
                stats.parse_failures.append(uri)
        self.store.put(
            uri=uri,
            body=result.body,
            version=result.version,
            fetched_at=self.clock,
            kind=kind,
        )
        return "stored", outcome.cost

    def _report(
        self,
        stats: _PassStats,
        *,
        fetched: int,
        discovered: int,
        budget_exhausted: bool,
        frontier_left: tuple[str, ...] = (),
        trips_before: int = 0,
        shorts_before: int = 0,
    ) -> CrawlReport:
        return CrawlReport(
            fetched=fetched,
            discovered=discovered,
            missing=tuple(stats.missing),
            parse_failures=tuple(sorted(set(stats.parse_failures))),
            budget_exhausted=budget_exhausted,
            frontier_left=frontier_left,
            unreachable=tuple(stats.unreachable),
            degraded=tuple(stats.degraded),
            quarantined=tuple(stats.quarantined),
            retries=stats.retries,
            transient_failures=stats.transient_failures,
            backoff_ticks=stats.backoff_ticks,
            breaker_trips=self.breakers.trips - trips_before,
            breaker_short_circuits=self.breakers.short_circuits - shorts_before,
        )


def publish_community(
    web: SimulatedWeb,
    dataset: Dataset,
    taxonomy: Taxonomy,
    taxonomy_uri: str = DEFAULT_TAXONOMY_URI,
    catalog_uri: str = DEFAULT_CATALOG_URI,
) -> tuple[str, str]:
    """Publish a whole community onto *web*.

    One homepage document per agent (at the agent's own URI) plus the two
    globally shared documents.  Returns ``(taxonomy_uri, catalog_uri)``.
    """
    for uri in sorted(dataset.agents):
        agent = dataset.agents[uri]
        graph = publish_agent(agent, dataset.trust_of(uri), dataset.ratings_of(uri))
        web.publish(uri, serialize_ntriples(graph))
    web.publish(taxonomy_uri, serialize_ntriples(publish_taxonomy(taxonomy)))
    web.publish(catalog_uri, serialize_ntriples(publish_catalog(dataset.products)))
    return taxonomy_uri, catalog_uri
