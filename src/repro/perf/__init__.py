"""Performance subsystem: packed numpy kernels.

The community-scale hot path — all-pairs profile similarity and the
group trust metrics — phrases as numpy array operations without
changing a single numeric result.  See :mod:`repro.perf.matrix` (packed
profiles), :mod:`repro.perf.kernels` (vectorized Pearson/cosine, one
target against many rows) and :mod:`repro.perf.trustmatrix` (CSR-packed
web of trust + Appleseed, PageRank and Advogato kernels).

These kernels are the one production path: every ``engine="auto"``
switch runs them, and ``engine="python"`` selects the dict reference
implementations they are tested against (:data:`repro.core.similarity.ENGINES`).
The trust kernels run on :meth:`TrustGraph.packed
<repro.trust.graph.TrustGraph.packed>`, driven by each trust metric's
``_compute_packed`` method.
"""

from __future__ import annotations

from .kernels import cosine_many, pearson_many, similarity_many
from .matrix import ProfileMatrix, TopicVocabulary
from .trustmatrix import TrustMatrix

__all__ = [
    "ProfileMatrix",
    "TopicVocabulary",
    "TrustMatrix",
    "cosine_many",
    "pearson_many",
    "similarity_many",
]
