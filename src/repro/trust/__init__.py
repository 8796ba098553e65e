"""Trust metrics substrate: the web of trust and group/scalar metrics."""

from .advogato import Advogato, AdvogatoResult
from .appleseed import Appleseed, AppleseedResult
from .engine import pack_graph, rank_many
from .graph import TrustGraph
from .maxflow import FlowNetwork
from .pagerank import PageRankResult, PersonalizedPageRank
from .scalar import multiplicative_path_trust, scalar_neighborhood

__all__ = [
    "Advogato",
    "AdvogatoResult",
    "Appleseed",
    "AppleseedResult",
    "FlowNetwork",
    "PageRankResult",
    "PersonalizedPageRank",
    "TrustGraph",
    "multiplicative_path_trust",
    "pack_graph",
    "rank_many",
    "scalar_neighborhood",
]
