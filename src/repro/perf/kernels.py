"""Vectorized similarity kernels over :class:`~repro.perf.matrix.ProfileMatrix`.

Each kernel scores one *target* profile against many candidate rows at
once and reproduces the conventions of :mod:`repro.core.similarity`
bit-for-bit in every exactly-representable case and to ~1e-12 otherwise:

* ``"union"`` domain — missing coordinates count as 0, the per-pair mean
  runs over the *union* of the two supports (not the full vocabulary);
* ``"intersection"`` domain — only co-rated coordinates enter, pairs
  with fewer than :data:`~repro.core.similarity.MIN_INTERSECTION` shared
  keys score 0.0;
* every degenerate case (empty domain, zero variance, zero norm) scores
  0.0, and results are clamped to ``[-1, +1]``.

The union-domain algebra: with ``n = |supp(t) ∪ supp(c)|``,

    cov   = t·c − Σt·Σc / n
    var_t = Σt² − (Σt)² / n        (and symmetrically for c)

where ``Σc``, ``Σc²`` and ``|supp(c)|`` are the matrix's precomputed row
aggregates and ``t·c`` runs over the shared keys only.  Intersection-domain
sums run over the shared keys alone, e.g. ``Σ_{k∈∩} t_k``.  Every such
sum is one ``np.bincount`` over the candidate rows' entries that the
target also holds, gathered row after row, so each row sums in its own
entry order: a row's score does not depend on which columns its topics
were given, nor on which other rows are scored with it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from ..core.similarity import MIN_INTERSECTION
from ..obs import get_metrics
from .matrix import ProfileMatrix
from .trustmatrix import _row_positions

__all__ = [
    "community_scores",
    "cosine_many",
    "pearson_many",
    "rank_profiles",
    "similarity_many",
    "top_k",
    "top_k_pairs",
]


def _target_stats(
    target: Mapping[str, float], matrix: ProfileMatrix
) -> tuple[np.ndarray, np.ndarray, int, float, float]:
    """Scatter *target* over the matrix's columns.

    Returns ``(values, held, support, total, sumsq)``.  Coordinates whose
    topic the matrix has no column for still count toward the target's
    own support/total/sumsq (they belong to every union domain and to the
    target's own norm) but can never overlap a candidate.
    """
    width = matrix.width
    values = np.zeros(width)
    held = np.zeros(width, dtype=bool)
    support = 0
    total = 0.0
    sumsq = 0.0
    for topic, raw in target.items():
        value = float(raw)
        support += 1
        total += value
        sumsq += value * value
        col = matrix.vocabulary.index_of(topic)
        if col is not None and col < width:
            values[col] = value
            held[col] = True
    return values, held, support, total, sumsq


def _shared(
    matrix: ProfileMatrix,
    rows: np.ndarray | None,
    values: np.ndarray,
    held: np.ndarray,
) -> tuple[Callable[..., np.ndarray], np.ndarray, np.ndarray]:
    """The selected rows' entries on keys the target holds.

    Returns ``(per_row, theirs, mine)``: the candidates' values and the
    target's values on those entries, and ``per_row(weights)``, which
    sums weights aligned with them per selected row (counts without
    weights).  Entries stay in row order, each row's in its entry order.
    """
    positions: np.ndarray | None = None
    if rows is None:
        columns, slots, selected = matrix.indices, matrix.entry_row, len(matrix)
    else:
        positions, lengths = _row_positions(matrix.indptr, rows)
        columns = matrix.indices[positions]
        slots = np.repeat(np.arange(rows.size, dtype=np.int64), lengths)
        selected = rows.size
    keep = np.flatnonzero(held[columns])
    slot = slots[keep]

    def per_row(weights: np.ndarray | None = None) -> np.ndarray:
        return np.bincount(slot, weights=weights, minlength=selected)

    theirs = matrix.values[keep if positions is None else positions[keep]]
    return per_row, theirs, values[columns[keep]]


def _finish(out: np.ndarray) -> np.ndarray:
    np.clip(out, -1.0, 1.0, out=out)
    out += 0.0  # normalize -0.0 to +0.0, matching the scalar oracle
    return out


def pearson_many(
    target: Mapping[str, float],
    matrix: ProfileMatrix,
    rows: np.ndarray | None = None,
    domain: str = "union",
) -> np.ndarray:
    """Pearson correlation of *target* against the selected rows.

    Mirrors :func:`repro.core.similarity.pearson`: the returned array is
    aligned with *rows* (all rows when ``None``).
    """
    if domain not in ("union", "intersection"):
        raise ValueError(f"unknown domain {domain!r}")
    values, held, t_support, t_total, t_sumsq = _target_stats(target, matrix)
    per_row, theirs, mine = _shared(matrix, rows, values, held)
    shared = per_row()
    dot = per_row(theirs * mine)
    if domain == "union":
        support = matrix.support if rows is None else matrix.support[rows]
        totals = matrix.row_sum if rows is None else matrix.row_sum[rows]
        sumsqs = matrix.row_sumsq if rows is None else matrix.row_sumsq[rows]
        n = t_support + support - shared
        minimum = 1.0  # an empty union is the only degenerate count
        t_sum, c_sum = t_total, totals
        t_sq, c_sq = t_sumsq, sumsqs
    else:
        n = shared
        minimum = float(MIN_INTERSECTION)
        t_sum = per_row(mine)
        c_sum = per_row(theirs)
        t_sq = per_row(mine * mine)
        c_sq = per_row(theirs * theirs)
    safe_n = np.where(n >= minimum, n, 1.0)
    cov = dot - t_sum * c_sum / safe_n
    var_t = t_sq - t_sum * t_sum / safe_n
    var_c = c_sq - c_sum * c_sum / safe_n
    # sqrt each factor separately, like the oracle: the product of two
    # tiny variances can underflow even when both are representable.
    denominator = np.sqrt(np.maximum(var_t, 0.0)) * np.sqrt(np.maximum(var_c, 0.0))
    valid = (n >= minimum) & (var_t > 0.0) & (var_c > 0.0) & (denominator > 0.0)
    out = np.zeros(dot.size)
    out[valid] = cov[valid] / denominator[valid]
    return _finish(out)


def cosine_many(
    target: Mapping[str, float],
    matrix: ProfileMatrix,
    rows: np.ndarray | None = None,
    domain: str = "union",
) -> np.ndarray:
    """Cosine similarity of *target* against the selected rows.

    Mirrors :func:`repro.core.similarity.cosine` including the "either
    profile empty scores 0.0" convention.
    """
    if domain not in ("union", "intersection"):
        raise ValueError(f"unknown domain {domain!r}")
    values, held, t_support, _, t_sumsq = _target_stats(target, matrix)
    per_row, theirs, mine = _shared(matrix, rows, values, held)
    dot = per_row(theirs * mine)
    if t_support == 0:
        return np.zeros(dot.size)
    if domain == "union":
        support = matrix.support if rows is None else matrix.support[rows]
        norms = matrix.row_norm if rows is None else matrix.row_norm[rows]
        denominator = np.sqrt(t_sumsq) * norms
        valid = (support > 0) & (denominator > 0.0)
    else:
        n = per_row()
        denominator = np.sqrt(per_row(mine * mine)) * np.sqrt(per_row(theirs * theirs))
        valid = (n >= MIN_INTERSECTION) & (denominator > 0.0)
    out = np.zeros(dot.size)
    out[valid] = dot[valid] / denominator[valid]
    return _finish(out)


def similarity_many(
    target: Mapping[str, float],
    matrix: ProfileMatrix,
    measure: str = "pearson",
    domain: str = "union",
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch to :func:`pearson_many` / :func:`cosine_many` by name."""
    if measure == "pearson":
        return pearson_many(target, matrix, rows=rows, domain=domain)
    if measure == "cosine":
        return cosine_many(target, matrix, rows=rows, domain=domain)
    raise ValueError(f"unknown similarity measure {measure!r}")


def _prunable(measure: str, domain: str) -> bool:
    """Whether zero support overlap implies similarity exactly 0.0.

    True for cosine in both domains (the dot product is 0) and for
    intersection-domain Pearson (fewer than ``MIN_INTERSECTION`` shared
    keys).  Union-domain Pearson is *not* prunable: disjoint supports
    genuinely anticorrelate there.
    """
    return not (measure == "pearson" and domain == "union")


def community_scores(
    target: Mapping[str, float],
    matrix: ProfileMatrix,
    measure: str = "pearson",
    domain: str = "union",
) -> np.ndarray:
    """Similarity of *target* to every row, pruning where that is exact.

    For prunable measure/domain combinations the inverted topic index
    restricts kernel work to rows sharing at least one key with the
    target; everyone else scores 0.0 by construction.
    """
    metrics = get_metrics()
    if _prunable(measure, domain):
        rows = matrix.overlapping_rows(target)
        metrics.counter("similarity.index_scored").inc(len(rows))
        metrics.counter("similarity.index_pruned").inc(len(matrix) - len(rows))
        out = np.zeros(len(matrix))
        if len(rows):
            out[rows] = similarity_many(
                target, matrix, measure=measure, domain=domain, rows=rows
            )
        return out
    metrics.counter("similarity.index_scored").inc(len(matrix))
    return similarity_many(target, matrix, measure=measure, domain=domain)


def rank_profiles(
    target: Mapping[str, float],
    candidates: Mapping[str, Mapping[str, float]],
    measure: str = "pearson",
    domain: str = "union",
    limit: int | None = None,
) -> list[tuple[str, float]]:
    """One-shot ranking: pack, score, heap-select.

    The packed path of :func:`repro.core.similarity.top_similar`; the
    candidate matrix lives only for this call.
    """
    matrix = ProfileMatrix.from_profiles(candidates)
    scores = community_scores(target, matrix, measure=measure, domain=domain)
    return top_k(matrix.ids, scores, limit)


def top_k(
    identifiers: Sequence[str],
    scores: np.ndarray | Sequence[float],
    limit: int | None = None,
) -> list[tuple[str, float]]:
    """The *limit* best ``(identifier, score)`` pairs, best first.

    Exactly equivalent to sorting all pairs by ``(-score, identifier)``
    and truncating, but selects with a partition/heap instead of sorting
    the whole community.  Boundary ties are resolved by identifier, so
    the result is deterministic and identical to the full sort.
    """
    scores = np.asarray(scores, dtype=float)
    n = len(identifiers)
    if limit is not None and limit <= 0:
        return []
    if limit is None or limit >= n:
        order = sorted(range(n), key=lambda i: (-scores[i], identifiers[i]))
        return [(identifiers[i], float(scores[i])) for i in order]
    # Partition on score alone, then pull in *every* row tied with the
    # k-th score so identifier tie-breaks can't be cut off arbitrarily.
    boundary = np.argpartition(-scores, limit - 1)[:limit]
    threshold = scores[boundary].min()
    candidates = np.flatnonzero(scores >= threshold).tolist()
    candidates.sort(key=lambda i: (-scores[i], identifiers[i]))
    return [(identifiers[i], float(scores[i])) for i in candidates[:limit]]


def top_k_pairs(
    pairs: Sequence[tuple[str, float]], limit: int | None = None
) -> list[tuple[str, float]]:
    """Heap-based top-*limit* over ``(identifier, score)`` pairs.

    The pure-Python counterpart of :func:`top_k` for callers that already
    hold scored pairs; equivalent to the full ``(-score, id)`` sort.
    """
    if limit is None or limit >= len(pairs):
        return sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
    if limit <= 0:
        return []
    return heapq.nsmallest(limit, pairs, key=lambda kv: (-kv[1], kv[0]))
