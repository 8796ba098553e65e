"""Simulated decentralized Web: hosting, crawling, local replicas."""

from .crawler import CrawlReport, Crawler, publish_community
from .faults import (
    CircuitBreakerRegistry,
    FaultPlan,
    FaultyWeb,
    FetchOutcome,
    HostDownError,
    ResilientFetcher,
    RetryPolicy,
    TransientWebError,
    site_of,
)
from .network import FetchResult, SimulatedWeb, WebError
from .replicator import (
    CommunityReplicator,
    ReplicationReport,
    publish_split_community,
)
from .storage import DocumentStore, StoredDocument
from .weblog import LinkMiner, WeblogPost, publish_weblogs, render_weblog, weblog_uri

__all__ = [
    "CircuitBreakerRegistry",
    "CommunityReplicator",
    "CrawlReport",
    "Crawler",
    "DocumentStore",
    "FaultPlan",
    "FaultyWeb",
    "FetchOutcome",
    "FetchResult",
    "HostDownError",
    "LinkMiner",
    "ReplicationReport",
    "ResilientFetcher",
    "RetryPolicy",
    "SimulatedWeb",
    "StoredDocument",
    "TransientWebError",
    "WebError",
    "WeblogPost",
    "publish_community",
    "publish_split_community",
    "publish_weblogs",
    "render_weblog",
    "site_of",
    "weblog_uri",
]
