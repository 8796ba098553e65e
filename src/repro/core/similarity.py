"""Similarity measures over sparse interest profiles (§3.3).

The paper applies "common nearest-neighbor techniques, namely Pearson's
coefficient and cosine distance from Information Retrieval", with profile
vectors mapping *category score vectors* from the taxonomy instead of
plain product-rating vectors.

Both measures operate on sparse ``dict[str, float]`` vectors.  Two domain
conventions are supported:

* ``"union"`` — missing coordinates count as 0.  This is the right
  convention for taxonomy profiles, which are dense over the topics an
  agent cares about and genuinely zero elsewhere.
* ``"intersection"`` — only co-rated coordinates enter the computation,
  the classic CF convention for product-rating vectors (an unrated product
  is unknown, not disliked).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from typing import Literal

from ..obs import get_metrics

__all__ = [
    "ENGINES",
    "SCORE_TOLERANCE",
    "check_engine",
    "cosine",
    "engine_path",
    "isclose",
    "overlap_keys",
    "pearson",
    "profile_overlap",
    "top_similar",
]

Domain = Literal["union", "intersection"]

#: The engine-equivalence tolerance: the numpy kernels reproduce this
#: module's results within this absolute bound (see
#: :mod:`repro.perf.kernels`).  Every comparison of similarity/trust/
#: score values anywhere in the reproduction should go through
#: :func:`isclose` with this default rather than a float ``==``.
SCORE_TOLERANCE = 1e-9


def isclose(left: float, right: float, *, tol: float = SCORE_TOLERANCE) -> bool:
    """Whether two score values agree within the engine contract.

    The single source of truth for the 1e-9 dual-engine equivalence
    bound: absolute tolerance, so values near 0.0 (the "no evidence"
    convention) compare sanely, and NaN never equals anything — a NaN
    score is a bug upstream, not a value to match.
    """
    return abs(left - right) <= tol


#: The two values every ``engine`` switch takes.  ``"auto"``, the default
#: everywhere, runs the packed numpy kernels of :mod:`repro.perf` — the one
#: production path.  ``"python"`` runs the dict reference implementations,
#: which the parity tests and the engine-contrast experiments (EX08, EX19)
#: call explicitly.  Both agree within :data:`SCORE_TOLERANCE`.
ENGINES = ("auto", "python")


def check_engine(engine: str) -> str:
    """*engine* unchanged, or ``ValueError`` unless it is in :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (expected one of {ENGINES})")
    return engine


def engine_path(engine: str, family: str = "engine") -> str:
    """The path *engine* runs — ``"numpy"`` or ``"python"`` — counted.

    Call once per computation: it increments ``{family}.selected.numpy``
    or ``{family}.selected.python`` (*family* is ``"engine"`` for
    similarity, ``"trust.engine"`` for the trust metrics), the counters
    that report the packed path's share of the work.
    """
    path = "numpy" if check_engine(engine) == "auto" else "python"
    get_metrics().counter(f"{family}.selected.{path}").inc()
    return path


#: Pairs with fewer co-rated coordinates than this yield similarity 0 in
#: intersection mode — a single shared coordinate makes Pearson degenerate.
MIN_INTERSECTION = 2


def _domain_keys(
    left: Mapping[str, float], right: Mapping[str, float], domain: Domain
) -> list[str]:
    # sorted(): set-algebra order depends on PYTHONHASHSEED, and float
    # summation order shifts the low bits; sorted keys keep reruns
    # byte-identical across PYTHONHASHSEED values.
    if domain == "union":
        return sorted(left.keys() | right.keys())
    if domain == "intersection":
        return sorted(left.keys() & right.keys())
    raise ValueError(f"unknown domain {domain!r}")


def pearson(
    left: Mapping[str, float],
    right: Mapping[str, float],
    domain: Domain = "union",
) -> float:
    """Pearson's correlation coefficient over the chosen key *domain*.

    Returns a value in ``[-1, +1]``; degenerate cases (empty domain, too
    few co-rated items in intersection mode, zero variance) return 0.0,
    meaning "no evidence of correlation" — the same convention GroupLens
    uses for undefined correlations.
    """
    keys = _domain_keys(left, right, domain)
    if not keys:
        return 0.0
    if domain == "intersection" and len(keys) < MIN_INTERSECTION:
        return 0.0
    n = len(keys)
    left_values = [left.get(k, 0.0) for k in keys]
    right_values = [right.get(k, 0.0) for k in keys]
    mean_left = sum(left_values) / n
    mean_right = sum(right_values) / n
    cov = 0.0
    var_left = 0.0
    var_right = 0.0
    for lv, rv in zip(left_values, right_values):
        dl = lv - mean_left
        dr = rv - mean_right
        cov += dl * dr
        var_left += dl * dl
        var_right += dr * dr
    if var_left <= 0.0 or var_right <= 0.0:
        return 0.0
    # sqrt each factor separately: the product of two tiny variances can
    # underflow to 0.0 even when both are representable.
    denominator = math.sqrt(var_left) * math.sqrt(var_right)
    if denominator <= 0.0:
        return 0.0
    value = cov / denominator
    # Guard against floating-point drift past the mathematical bounds.
    return max(-1.0, min(1.0, value))


def cosine(
    left: Mapping[str, float],
    right: Mapping[str, float],
    domain: Domain = "union",
) -> float:
    """Cosine similarity over the chosen key *domain*.

    In union mode only shared keys contribute to the dot product, so the
    implementation iterates the smaller vector; norms always use each
    vector's own coordinates.  Degenerate cases return 0.0.
    """
    if not left or not right:
        return 0.0
    if domain == "intersection":
        keys = left.keys() & right.keys()
        if len(keys) < MIN_INTERSECTION:
            return 0.0
        dot = sum(left[k] * right[k] for k in keys)
        norm_left = math.sqrt(sum(left[k] ** 2 for k in keys))
        norm_right = math.sqrt(sum(right[k] ** 2 for k in keys))
    else:
        small, large = (left, right) if len(left) <= len(right) else (right, left)
        dot = sum(v * large[k] for k, v in small.items() if k in large)
        norm_left = math.sqrt(sum(v * v for v in left.values()))
        norm_right = math.sqrt(sum(v * v for v in right.values()))
    if norm_left <= 0.0 or norm_right <= 0.0:
        return 0.0
    value = dot / (norm_left * norm_right)
    return max(-1.0, min(1.0, value))


def overlap_keys(
    left: Mapping[str, float], right: Mapping[str, float]
) -> set[str]:
    """Coordinates present in both vectors."""
    return set(left.keys() & right.keys())


def profile_overlap(
    left: Mapping[str, float], right: Mapping[str, float]
) -> float:
    """Jaccard overlap of the two vectors' supports.

    This is the quantity behind the paper's "low profile overlap" research
    issue (§2): for raw product vectors over a large catalogue it is almost
    always 0, while taxonomy propagation pushes it toward 1 (every profile
    touches the root's neighborhood).
    """
    if not left and not right:
        return 0.0
    union = len(left.keys() | right.keys())
    if union == 0:
        return 0.0
    return len(left.keys() & right.keys()) / union


def top_similar(
    target: Mapping[str, float],
    candidates: Mapping[str, Mapping[str, float]],
    measure: str = "pearson",
    domain: Domain = "union",
    limit: int | None = None,
    engine: str = "auto",
) -> list[tuple[str, float]]:
    """Rank *candidates* (id -> profile) by similarity to *target*.

    Ties break on the candidate identifier for determinism; a *limit* of
    0 or below selects nothing.  ``engine="auto"`` packs the candidates
    into a :class:`~repro.perf.matrix.ProfileMatrix` and scores them with
    one vectorized kernel call; ``"python"`` computes one dict pair at a
    time with this module's functions (the reference).  Both agree on
    rankings and values to within 1e-9 (see ``tests/test_perf_kernels.py``).
    """
    if measure == "pearson":
        func = pearson
    elif measure == "cosine":
        func = cosine
    else:
        raise ValueError(f"unknown similarity measure {measure!r}")
    if domain not in ("union", "intersection"):
        raise ValueError(f"unknown domain {domain!r}")
    check_engine(engine)
    if limit is not None and limit <= 0:
        return []
    if engine_path(engine) == "numpy":
        # Imported lazily: repro.perf.kernels imports this module.
        from ..perf.kernels import similarity_many
        from ..perf.matrix import ProfileMatrix

        matrix = ProfileMatrix.from_profiles(candidates)
        values = similarity_many(target, matrix, measure=measure, domain=domain)
        scored = list(zip(matrix.ids, values.tolist()))
    else:
        scored = [
            (identifier, func(target, profile, domain))
            for identifier, profile in candidates.items()
        ]
    if limit is not None and limit < len(scored):
        # Heap selection: don't sort the whole community for a top-N ask.
        return heapq.nsmallest(limit, scored, key=lambda item: (-item[1], item[0]))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored
