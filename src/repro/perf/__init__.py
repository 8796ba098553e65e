"""Performance subsystem: packed numpy kernels + parallel experiment fan-out.

The community-scale hot path — all-pairs profile similarity, the group
trust metrics and the experiment sweeps over principals — phrases as
numpy array operations and a process-pool map without changing a single
numeric result.  See :mod:`repro.perf.matrix` (packed profiles),
:mod:`repro.perf.kernels` (vectorized Pearson/cosine + heap top-k),
:mod:`repro.perf.trustmatrix` (CSR-packed web of trust + Appleseed,
PageRank and Advogato kernels) and :mod:`repro.perf.parallel`
(deterministic multi-core sweeps).

These kernels are the one production path: every ``engine="auto"``
switch runs them, and ``engine="python"`` selects the dict reference
implementations they are tested against (:data:`repro.core.similarity.ENGINES`).
"""

from __future__ import annotations

from .kernels import (
    community_scores,
    cosine_many,
    pearson_many,
    rank_profiles,
    similarity_many,
    top_k,
    top_k_pairs,
)
from .matrix import ProfileMatrix, TopicVocabulary
from .parallel import ParallelExperimentRunner, derive_seed, split_evenly
from .trustmatrix import TrustMatrix

__all__ = [
    "ParallelExperimentRunner",
    "ProfileMatrix",
    "TopicVocabulary",
    "TrustMatrix",
    "community_scores",
    "cosine_many",
    "derive_seed",
    "pearson_many",
    "rank_profiles",
    "similarity_many",
    "split_evenly",
    "top_k",
    "top_k_pairs",
]
