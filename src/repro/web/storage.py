"""The crawler's local replica: an embedded document store.

"Tailored crawlers search the Web for weblogs and ensure data freshness"
(§4.1).  The store keeps the fetched documents (raw text plus version and
fetch tick), parses them on demand, and assembles the partial
:class:`~repro.core.models.Dataset` the recommender computes from — which
is the paper's central architectural point: recommendations are computed
*locally* from a replica, never against the live Web.

The replica lives in memory for the life of its crawler or agent.  The
crawler drops a corrupt download of a URI the store already holds, so a
torn fetch never clobbers a good replica.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

from ..core.models import Dataset, Product
from ..core.taxonomy import Taxonomy
from ..semweb.foaf import parse_agent_homepage, parse_catalog, parse_taxonomy
from ..semweb.serializer import ParseError, parse_ntriples

__all__ = ["DocumentStore", "StoredDocument"]


@dataclass(frozen=True, slots=True)
class StoredDocument:
    """One replicated document with its provenance metadata.

    ``degraded`` marks a replica that is being served although its last
    refresh attempt failed (stale fallback) — consumers keep working
    from it, and the next refresh retries it.
    """

    uri: str
    body: str
    version: int
    fetched_at: int
    degraded: bool = False


class DocumentStore:
    """URI-keyed replica of fetched documents with dataset assembly.

    ``kind`` hints ("agent", "taxonomy", "catalog", "weblog") are
    recorded at put time by the crawler so assembly does not have to
    sniff document contents.  Weblog documents are opaque to
    :meth:`assemble_dataset` (they are HTML, not RDF); the replicator
    mines them separately via :class:`repro.web.weblog.LinkMiner`.
    """

    def __init__(self) -> None:
        self._documents: dict[str, StoredDocument] = {}
        self._kinds: dict[str, str] = {}

    # -- replica maintenance ---------------------------------------------------

    def put(
        self,
        uri: str,
        body: str,
        version: int,
        fetched_at: int,
        kind: str = "agent",
    ) -> None:
        """Store (or refresh) the replica of *uri*, clearing any degraded stamp."""
        if kind not in ("agent", "taxonomy", "catalog", "weblog"):
            raise ValueError(f"unknown document kind {kind!r}")
        self._documents[uri] = StoredDocument(
            uri=uri, body=body, version=version, fetched_at=fetched_at
        )
        self._kinds[uri] = kind

    def get(self, uri: str) -> StoredDocument | None:
        return self._documents.get(uri)

    def kind(self, uri: str) -> str | None:
        return self._kinds.get(uri)

    def mark_degraded(self, uri: str) -> None:
        """Stamp the replica of *uri* as degraded (stale fallback in use)."""
        document = self._documents.get(uri)
        if document is not None and not document.degraded:
            self._documents[uri] = replace(document, degraded=True)

    def degraded_uris(self) -> Iterator[str]:
        """URIs whose replica is currently stamped degraded."""
        for uri, document in self._documents.items():
            if document.degraded:
                yield uri

    def __contains__(self, uri: str) -> bool:
        return uri in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def uris(self, kind: str | None = None) -> Iterator[str]:
        """URIs in the replica, optionally filtered by document kind."""
        for uri in self._documents:
            if kind is None or self._kinds.get(uri) == kind:
                yield uri

    # -- dataset assembly ----------------------------------------------------------

    def assemble_dataset(self) -> tuple[Dataset, list[str]]:
        """Parse every replicated document into one partial :class:`Dataset`.

        Returns ``(dataset, failures)`` where *failures* lists URIs whose
        documents failed to parse (they are skipped, as a real crawler
        must).  Trust statements pointing at agents whose homepages were
        never crawled are kept — the trust metrics simply see them as
        fringe nodes — but ratings of unknown products are kept too, since
        the catalog document may legitimately lag the community.  The
        returned dataset is therefore *not* validated.
        """
        dataset = Dataset()
        failures: list[str] = []
        for uri in sorted(self.uris(kind="catalog")):
            products = self._parse_catalog(uri, failures)
            for product in products.values():
                dataset.add_product(product)
        for uri in sorted(self.uris(kind="agent")):
            document = self._documents[uri]
            try:
                graph = parse_ntriples(document.body)
                agent, trust, ratings = parse_agent_homepage(graph)
            except (ParseError, ValueError):
                failures.append(uri)
                continue
            dataset.add_agent(agent)
            for statement in trust:
                dataset.add_trust(statement)
            for rating in ratings:
                dataset.add_rating(rating)
        return dataset, failures

    def assemble_taxonomy(self) -> Taxonomy | None:
        """Parse the replicated taxonomy document, if any."""
        for uri in sorted(self.uris(kind="taxonomy")):
            document = self._documents[uri]
            try:
                return parse_taxonomy(parse_ntriples(document.body))
            except (ParseError, ValueError):
                continue
        return None

    def _parse_catalog(self, uri: str, failures: list[str]) -> dict[str, Product]:
        document = self._documents[uri]
        try:
            return parse_catalog(parse_ntriples(document.body))
        except (ParseError, ValueError):
            failures.append(uri)
            return {}
