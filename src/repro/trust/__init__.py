"""Trust metrics substrate: the web of trust and group/scalar metrics.

Every group metric (:class:`Appleseed`, :class:`Advogato`,
:class:`PersonalizedPageRank`) takes an ``engine`` switch with the two
values of :data:`repro.core.similarity.ENGINES`, and holds both of its
paths side by side:

* ``"auto"`` (the default) — its ``_compute_packed`` driver, running the
  CSR kernels of :mod:`repro.perf.trustmatrix` on the graph's pack
  (:meth:`TrustGraph.packed`);
* ``"python"`` — its ``_compute_python`` dict loops, the reference the
  kernels are property-tested against.

Both agree within 1e-9 on continuous ranks and *exactly* on discrete
outputs (Advogato's accepted set, neighborhood membership at threshold
0.0) — choosing an engine is a performance decision, never a semantic
one.  :func:`rank_many` sweeps many sources through
:meth:`Appleseed.compute`.
"""

from .advogato import Advogato, AdvogatoResult
from .appleseed import Appleseed, AppleseedResult
from .engine import rank_many
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
    "rank_many",
    "scalar_neighborhood",
]
