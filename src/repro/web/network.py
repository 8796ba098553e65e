"""A simulated decentralized Web of documents.

The Semantic Web "constitutes an inherently data-centric environment
model.  Messages are exchanged by publishing or updating documents …
communication becomes restricted to asynchronous message exchange" (§2).
:class:`SimulatedWeb` models exactly that: a URI-addressed document space
where publishers *stage* updates that only become visible once delivered,
so consumers (crawlers) routinely observe stale state — the property EX11
measures.

Documents are stored and fetched as *serialized text*, not parsed graphs:
consumers must run the real parse path, including its error handling.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

__all__ = ["FetchResult", "SimulatedWeb", "WebError"]


class WebError(KeyError):
    """Raised when fetching a URI that hosts no document (a 404)."""


@dataclass(frozen=True, slots=True)
class FetchResult:
    """One successful fetch: the document body and its version number."""

    uri: str
    body: str
    version: int


class SimulatedWeb:
    """URI → document hosting with staged (asynchronous) updates.

    * :meth:`publish` makes a document immediately visible (initial
      hosting).
    * :meth:`stage_update` records a new version that stays *invisible*
      until :meth:`deliver` runs — modelling the publish/crawl lag of a
      decentralized system.  Staging several updates for one URI keeps
      only the newest.
    * :meth:`fetch` returns the visible version and counts traffic, so
      experiments can charge crawlers a fetch budget.

    All traffic is counted, not just successes: ``fetch_count`` tallies
    delivered documents, ``error_count`` failed fetches (404s, plus any
    fault a wrapping :class:`~repro.web.faults.FaultyWeb` injects), and
    ``probe_count`` the cheap :meth:`version` HEAD probes a crawler's
    refresh pass makes — so budgets and benchmarks charge every request.
    """

    def __init__(self) -> None:
        self._visible: dict[str, tuple[str, int]] = {}
        self._staged: dict[str, str] = {}
        self.fetch_count = 0
        self.error_count = 0
        self.probe_count = 0

    # -- hosting -------------------------------------------------------------

    def publish(self, uri: str, body: str) -> None:
        """Host *body* at *uri*, immediately visible (version 1 or bumped)."""
        if not uri:
            raise ValueError("document URI must be non-empty")
        _, version = self._visible.get(uri, ("", 0))
        self._visible[uri] = (body, version + 1)

    def stage_update(self, uri: str, body: str) -> None:
        """Record a new version of *uri*, visible only after :meth:`deliver`.

        Staging an update for an unhosted URI is allowed: delivery then
        makes the document appear (a newly created homepage).
        """
        if not uri:
            raise ValueError("document URI must be non-empty")
        self._staged[uri] = body

    def deliver(self) -> int:
        """Make all staged updates visible; return how many were applied."""
        applied = len(self._staged)
        for uri, body in self._staged.items():
            self.publish(uri, body)
        self._staged.clear()
        return applied

    def pending_updates(self) -> int:
        """Number of staged-but-undelivered updates."""
        return len(self._staged)

    # -- consumption -----------------------------------------------------------

    def fetch(self, uri: str) -> FetchResult:
        """Fetch the visible document at *uri*; raises :class:`WebError` on 404."""
        entry = self._visible.get(uri)
        if entry is None:
            self.error_count += 1
            raise WebError(uri)
        self.fetch_count += 1
        body, version = entry
        return FetchResult(uri=uri, body=body, version=version)

    def exists(self, uri: str) -> bool:
        """Whether a visible document is hosted at *uri*."""
        return uri in self._visible

    def version(self, uri: str) -> int:
        """Visible version of *uri* (0 when unhosted) — cheap HEAD request."""
        self.probe_count += 1
        entry = self._visible.get(uri)
        return entry[1] if entry else 0

    @property
    def total_traffic(self) -> int:
        """Every request this web ever answered: fetches, errors, probes."""
        return self.fetch_count + self.error_count + self.probe_count

    def uris(self) -> Iterator[str]:
        """All URIs currently hosting visible documents."""
        return iter(self._visible)

    def __len__(self) -> int:
        return len(self._visible)

    def __contains__(self, uri: str) -> bool:
        return uri in self._visible
