"""Fault injection and resilience for the decentralized crawl.

The paper's infrastructure assumes an unreliable medium: agents "publish
or update documents" on remote hosts, and "tailored crawlers search the
Web for weblogs and ensure data freshness" (§4.1).  Real hosts time out,
go down, and serve truncated files — so the consumer side needs failure
semantics, not just a happy path.  This module provides both halves:

* **Injection** — :class:`FaultPlan` / :class:`FaultyWeb` wrap a
  :class:`~repro.web.network.SimulatedWeb` and inject transient errors
  (:class:`TransientWebError`), permanent per-site outages
  (:class:`HostDownError`), slow fetches (extra latency ticks charged
  against the crawl budget), and corrupted or truncated bodies (served
  normally, so they flow through the real parse path and surface as
  :class:`~repro.semweb.serializer.ParseError`).  Every decision derives
  from a stable hash of ``(seed, site-or-uri, attempt)``, so a run is
  bit-for-bit reproducible for a fixed seed — across processes, since no
  Python hash randomization is involved.

* **Resilience** — :class:`RetryPolicy` (bounded retries, exponential
  backoff in simulated ticks, seeded jitter), a per-site
  :class:`CircuitBreakerRegistry` (closed → open → half-open), and
  :class:`ResilientFetcher`, which combines the two into the single
  fetch primitive the crawler and replicator use.

Because every agent hosts its own documents in a decentralized
community, "host" granularity is the *site* — the URI's authority plus
its first path segment (:func:`site_of`) — so one agent's outage never
blacks out its neighbors, while an agent's homepage and weblog share a
breaker.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..obs import get_metrics
from .network import FetchResult, SimulatedWeb, WebError

__all__ = [
    "CircuitBreakerRegistry",
    "FaultPlan",
    "FaultyWeb",
    "FetchOutcome",
    "HostDownError",
    "ResilientFetcher",
    "RetryPolicy",
    "TransientWebError",
    "site_of",
]


class TransientWebError(WebError):
    """A retryable 5xx-style failure: the fetch may succeed if repeated.

    Subclasses :class:`WebError` so fault-unaware consumers degrade to
    treating the document as missing instead of crashing.
    """


class HostDownError(WebError):
    """The document's site is permanently down; retrying cannot help."""


def site_of(uri: str) -> str:
    """The failure domain of *uri*: authority plus first path segment.

    In a decentralized community each agent hosts its own homepage and
    weblog under one URI prefix, so this groups exactly the documents
    that live and die together (``…/a0001`` and ``…/a0001/weblog``).
    """
    parts = urlsplit(uri)
    if not parts.netloc:
        return uri
    segments = [piece for piece in parts.path.split("/") if piece]
    return f"{parts.netloc}/{segments[0]}" if segments else parts.netloc


def _stable_hash(*parts: object) -> int:
    """A process-stable 64-bit hash of the joined parts."""
    key = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _corrupt_body(body: str, seed: int, uri: str, attempt: int) -> str:
    """Deterministically damage *body* so it cannot parse as N-Triples.

    Truncates at a seeded offset (a torn download) and appends an
    unterminated term, guaranteeing the real parse path raises
    :class:`~repro.semweb.serializer.ParseError` rather than silently
    accepting a valid prefix of the document.
    """
    rng = random.Random(_stable_hash(seed, "corrupt", uri, attempt))
    keep = int(len(body) * rng.uniform(0.2, 0.8))
    return body[:keep] + "\n<corrupted-after-" + str(keep) + "-bytes\n"


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Seeded description of which faults a :class:`FaultyWeb` injects.

    Rates are independent per-attempt probabilities except
    ``outage_rate``, which is a per-*site* coin flipped once: a down
    site stays down for the whole run (a permanent outage).
    """

    transient_rate: float = 0.0
    outage_rate: float = 0.0
    corruption_rate: float = 0.0
    slow_rate: float = 0.0
    slow_ticks: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "outage_rate", "corruption_rate", "slow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_ticks < 0:
            raise ValueError("slow_ticks must be non-negative")

    def site_down(self, site: str) -> bool:
        """Whether *site* is permanently down under this plan."""
        if self.outage_rate <= 0.0:
            return False
        rng = random.Random(_stable_hash(self.seed, "outage", site))
        return rng.random() < self.outage_rate

    def rolls(self, uri: str, attempt: int) -> tuple[bool, bool, bool]:
        """``(transient, slow, corrupt)`` decisions for one fetch attempt."""
        rng = random.Random(_stable_hash(self.seed, uri, attempt))
        return (
            rng.random() < self.transient_rate,
            rng.random() < self.slow_rate,
            rng.random() < self.corruption_rate,
        )


class FaultyWeb:
    """A :class:`SimulatedWeb` proxy that injects the faults of a plan.

    Hosting (publish / stage / deliver) and probes pass straight
    through; :meth:`fetch` may instead raise :class:`HostDownError` or
    :class:`TransientWebError`, serve a corrupted body, or charge extra
    latency ticks (exposed as :attr:`last_fetch_cost` for budget
    accounting).  All injected error traffic is charged to the inner
    web's ``error_count`` so budgets and benchmarks see honest totals.
    """

    def __init__(self, inner: SimulatedWeb, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.last_fetch_cost = 1
        self.transient_failures = 0
        self.outages_hit = 0
        self.corrupted_served = 0
        self.slow_fetches = 0
        self.latency_ticks = 0
        self._attempts: dict[str, int] = {}

    # -- hosting passthrough ---------------------------------------------------

    def publish(self, uri: str, body: str) -> None:
        self.inner.publish(uri, body)

    def stage_update(self, uri: str, body: str) -> None:
        self.inner.stage_update(uri, body)

    def deliver(self) -> int:
        return self.inner.deliver()

    def pending_updates(self) -> int:
        return self.inner.pending_updates()

    # -- consumption -----------------------------------------------------------

    def fetch(self, uri: str) -> FetchResult:
        """Fetch through the fault plan; see class docstring for outcomes."""
        attempt = self._attempts.get(uri, 0) + 1
        self._attempts[uri] = attempt
        if self.plan.site_down(site_of(uri)):
            self.outages_hit += 1
            self.inner.error_count += 1
            raise HostDownError(uri)
        transient, slow, corrupt = self.plan.rolls(uri, attempt)
        if transient:
            self.transient_failures += 1
            self.inner.error_count += 1
            raise TransientWebError(uri)
        result = self.inner.fetch(uri)
        cost = 1
        if slow:
            cost += self.plan.slow_ticks
            self.slow_fetches += 1
            self.latency_ticks += self.plan.slow_ticks
        self.last_fetch_cost = cost
        if corrupt:
            self.corrupted_served += 1
            body = _corrupt_body(result.body, self.plan.seed, uri, attempt)
            return FetchResult(uri=uri, body=body, version=result.version)
        return result

    def exists(self, uri: str) -> bool:
        return self.inner.exists(uri)

    def version(self, uri: str) -> int:
        return self.inner.version(uri)

    def uris(self) -> Iterator[str]:
        return self.inner.uris()

    # -- traffic counters (single source of truth: the inner web) --------------

    @property
    def fetch_count(self) -> int:
        return self.inner.fetch_count

    @property
    def error_count(self) -> int:
        return self.inner.error_count

    @property
    def probe_count(self) -> int:
        return self.inner.probe_count

    @property
    def total_traffic(self) -> int:
        return self.inner.total_traffic

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, uri: str) -> bool:
        return uri in self.inner


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff in simulated ticks.

    ``max_retries`` is the number of *re*-attempts after the first try;
    ``max_retries=0`` means fetch exactly once (the fault-unaware
    default).  Backoff for retry *n* is
    ``min(max_backoff, base_backoff * multiplier**n)`` ticks, widened by
    up to ±``jitter`` (a fraction) from a seeded, per-URI RNG so
    synchronized retry storms decorrelate deterministically.
    """

    max_retries: int = 3
    base_backoff: int = 1
    multiplier: float = 2.0
    max_backoff: int = 8
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_ticks(self, uri: str, attempt: int) -> int:
        """Ticks to wait before retry number *attempt* (0-based) of *uri*."""
        raw = min(float(self.max_backoff), self.base_backoff * self.multiplier**attempt)
        rng = random.Random(_stable_hash(self.seed, "backoff", uri, attempt))
        spread = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0, round(raw * spread))


@dataclass
class CircuitBreakerRegistry:
    """Per-site circuit breakers: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open a site's breaker;
    while open, :meth:`allow` denies (a *short circuit*, counted but
    free) until ``cooldown_ticks`` have passed, after which the breaker
    half-opens and admits one probe: success re-closes it, failure
    re-opens it for another cooldown.
    """

    failure_threshold: int = 5
    cooldown_ticks: int = 8
    trips: int = 0
    short_circuits: int = 0
    _states: dict[str, str] = field(default_factory=dict)
    _failures: dict[str, int] = field(default_factory=dict)
    _opened_at: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_ticks < 1:
            raise ValueError("cooldown_ticks must be >= 1")

    def state(self, site: str) -> str:
        """Current state of *site*'s breaker: closed, open, or half_open."""
        return self._states.get(site, "closed")

    def allow(self, site: str, now: int) -> bool:
        """Whether a fetch against *site* may proceed at tick *now*."""
        if self.state(site) == "open":
            if now - self._opened_at[site] >= self.cooldown_ticks:
                self._states[site] = "half_open"
                get_metrics().counter("breaker.half_open_probes").inc()
                return True
            self.short_circuits += 1
            get_metrics().counter("breaker.short_circuits").inc()
            return False
        return True

    def record_success(self, site: str) -> None:
        self._failures[site] = 0
        self._states[site] = "closed"

    def record_failure(self, site: str, now: int) -> None:
        if self.state(site) == "half_open":
            self._states[site] = "open"
            self._opened_at[site] = now
            self.trips += 1
            get_metrics().counter("breaker.trips").inc()
            return
        failures = self._failures.get(site, 0) + 1
        self._failures[site] = failures
        if failures >= self.failure_threshold and self.state(site) != "open":
            self._states[site] = "open"
            self._opened_at[site] = now
            self.trips += 1
            get_metrics().counter("breaker.trips").inc()


@dataclass(frozen=True, slots=True)
class FetchOutcome:
    """What one resilient fetch produced, successful or not.

    ``error`` is ``None`` on success, else one of ``"missing"`` (404),
    ``"transient"`` (retries exhausted), ``"outage"`` (site down), or
    ``"short_circuit"`` (open breaker, no attempt made).  ``cost`` is
    the budget charge: 1 per completed transfer plus any latency ticks;
    failed attempts cost no budget (their traffic shows up in the web's
    ``error_count``).
    """

    uri: str
    result: FetchResult | None
    error: str | None
    attempts: int = 0
    retries: int = 0
    transient_failures: int = 0
    backoff_ticks: int = 0
    cost: int = 0

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class ResilientFetcher:
    """The retry/backoff/breaker wiring around ``web.fetch``.

    Maintains a monotonic tick counter (one tick per call, plus backoff
    and latency ticks) that drives breaker cooldowns; all randomness is
    the policy's seeded jitter, so runs are reproducible.
    """

    web: SimulatedWeb | FaultyWeb
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_retries=0))
    breakers: CircuitBreakerRegistry = field(default_factory=CircuitBreakerRegistry)
    ticks: int = 0

    def fetch(self, uri: str) -> FetchOutcome:
        outcome = self._fetch(uri)
        metrics = get_metrics()
        metrics.counter(f"fetch.outcome.{outcome.error or 'ok'}").inc()
        if outcome.retries:
            metrics.counter("fetch.retries").inc(outcome.retries)
        if outcome.backoff_ticks:
            metrics.counter("fetch.backoff_ticks").inc(outcome.backoff_ticks)
        return outcome

    def _fetch(self, uri: str) -> FetchOutcome:
        site = site_of(uri)
        self.ticks += 1
        if not self.breakers.allow(site, self.ticks):
            return FetchOutcome(uri=uri, result=None, error="short_circuit")
        retries = 0
        transients = 0
        backoff_total = 0
        attempt = 0
        while True:
            try:
                result = self.web.fetch(uri)
            except TransientWebError:
                transients += 1
                self.breakers.record_failure(site, self.ticks)
                retry_allowed = attempt < self.retry.max_retries and self.breakers.allow(
                    site, self.ticks
                )
                if not retry_allowed:
                    return FetchOutcome(
                        uri=uri,
                        result=None,
                        error="transient",
                        attempts=attempt + 1,
                        retries=retries,
                        transient_failures=transients,
                        backoff_ticks=backoff_total,
                    )
                backoff = self.retry.backoff_ticks(uri, attempt)
                backoff_total += backoff
                self.ticks += 1 + backoff
                retries += 1
                attempt += 1
            except HostDownError:
                self.breakers.record_failure(site, self.ticks)
                return FetchOutcome(
                    uri=uri,
                    result=None,
                    error="outage",
                    attempts=attempt + 1,
                    retries=retries,
                    transient_failures=transients,
                    backoff_ticks=backoff_total,
                )
            except WebError:
                # A clean 404: the site answered, so the breaker sees health.
                self.breakers.record_success(site)
                return FetchOutcome(
                    uri=uri,
                    result=None,
                    error="missing",
                    attempts=attempt + 1,
                    retries=retries,
                    transient_failures=transients,
                    backoff_ticks=backoff_total,
                )
            else:
                self.breakers.record_success(site)
                cost = getattr(self.web, "last_fetch_cost", 1)
                self.ticks += cost - 1
                return FetchOutcome(
                    uri=uri,
                    result=result,
                    error=None,
                    attempts=attempt + 1,
                    retries=retries,
                    transient_failures=transients,
                    backoff_ticks=backoff_total,
                    cost=cost,
                )
