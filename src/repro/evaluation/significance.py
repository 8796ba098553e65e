"""Statistical significance for recommender comparisons.

When two methods sit close, the question is whether the difference
survives the per-user pairing.  This module provides the two standard
dependency-free answers:

* :func:`paired_permutation_test` — exact-in-the-limit test of the null
  "both methods are exchangeable per user": randomly flips the sign of
  each user's per-user difference and counts how often the permuted mean
  difference is at least as extreme as the observed one.
* :func:`bootstrap_confidence_interval` — percentile bootstrap CI of the
  mean per-user difference.

Both operate on *paired* per-user metric sequences (same users, same
order), such as the precision column of
:func:`~repro.evaluation.protocol.per_user_scores`.
:func:`compare_epoch_series` applies both to every epoch of an EX20–EX23
timeline and Holm-corrects the per-epoch family.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .metrics import mean

__all__ = [
    "ComparisonResult",
    "SeriesComparison",
    "bootstrap_confidence_interval",
    "compare_epoch_series",
    "derive_seed",
    "holm_bonferroni",
    "paired_permutation_test",
]


def derive_seed(seed: int, index: int) -> int:
    """A per-index seed derived from *seed*, e.g. one per epoch.

    String seeding keeps this independent of ``PYTHONHASHSEED`` (the same
    trick :class:`repro.core.recommender.RandomRecommender` uses).
    """
    return random.Random(f"{seed}:{index}").getrandbits(63)


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Outcome of one paired comparison between two methods."""

    mean_difference: float
    p_value: float
    ci_low: float
    ci_high: float
    n_users: int

    @property
    def significant(self) -> bool:
        """Two-sided significance at the conventional 0.05 level."""
        return self.p_value < 0.05


def paired_permutation_test(
    first: Sequence[float],
    second: Sequence[float],
    rounds: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-sided paired sign-flip permutation test; returns the p-value.

    Uses the add-one estimator (never returns exactly 0), which is the
    unbiased choice for Monte Carlo permutation tests.
    """
    if len(first) != len(second):
        raise ValueError("paired sequences must have equal length")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    differences = [a - b for a, b in zip(first, second)]
    if not differences:
        return 1.0
    observed = abs(mean(differences))
    if all(d == 0 for d in differences):
        return 1.0
    rng = random.Random(seed)
    hits = 0
    n = len(differences)
    for _ in range(rounds):
        total = 0.0
        for d in differences:
            total += d if rng.random() < 0.5 else -d
        if abs(total / n) >= observed - 1e-15:
            hits += 1
    return (hits + 1) / (rounds + 1)


def bootstrap_confidence_interval(
    first: Sequence[float],
    second: Sequence[float],
    rounds: int = 10_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean paired difference."""
    if len(first) != len(second):
        raise ValueError("paired sequences must have equal length")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly in (0, 1)")
    differences = [a - b for a, b in zip(first, second)]
    if not differences:
        return (0.0, 0.0)
    rng = random.Random(seed)
    n = len(differences)
    means = sorted(
        mean([differences[rng.randrange(n)] for _ in range(n)])
        for _ in range(rounds)
    )
    tail = (1.0 - confidence) / 2.0
    low_index = max(0, min(len(means) - 1, int(tail * rounds)))
    high_index = max(0, min(len(means) - 1, int((1.0 - tail) * rounds) - 1))
    return (means[low_index], means[high_index])


def holm_bonferroni(p_values: Sequence[float]) -> list[float]:
    """Holm step-down adjusted p-values for a family of tests.

    The classic sequentially-rejective correction: sort the raw p-values,
    multiply the *k*-th smallest by ``m - k`` (one-based: ``m``, ``m-1``,
    …, ``1``), clamp into ``[0, 1]`` and enforce monotonicity so a later
    hypothesis is never "more significant" than an earlier one.  Controls
    the family-wise error rate at the same level as plain Bonferroni but
    uniformly more powerful.  Returned list matches the input order.
    """
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p!r} outside [0, 1]")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    adjusted = [0.0] * m
    running = 0.0
    for rank, index in enumerate(order):
        running = max(running, min(1.0, (m - rank) * p_values[index]))
        adjusted[index] = running
    return adjusted


@dataclass(frozen=True, slots=True)
class SeriesComparison:
    """Outcome of comparing two methods across a whole epoch series.

    ``epochs[i]`` carries the raw per-epoch comparison; because one
    timeline yields one hypothesis test *per epoch*, the per-epoch
    p-values form a family and :attr:`adjusted_p_values` holds their
    Holm–Bonferroni correction.  :attr:`pooled` tests the concatenated
    per-user differences of every epoch at once — the single omnibus
    answer to "does the method win over the run".
    """

    epochs: tuple[ComparisonResult, ...]
    adjusted_p_values: tuple[float, ...]
    pooled: ComparisonResult

    @property
    def n_significant(self) -> int:
        """Epochs still significant at 0.05 after Holm correction."""
        return sum(1 for p in self.adjusted_p_values if p < 0.05)


def compare_epoch_series(
    first: Sequence[Sequence[float]],
    second: Sequence[Sequence[float]],
    rounds: int = 2_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> SeriesComparison:
    """Paired comparison of two per-epoch score series.

    *first* and *second* hold one per-user score sequence per epoch
    (same users, same order within each epoch).  Each epoch gets its own
    permutation test and bootstrap CI (seeded via :func:`derive_seed` so
    epochs are independent but reproducible); the family of per-epoch
    p-values is Holm-adjusted and the concatenation of all per-user
    differences feeds the pooled omnibus test.
    """
    if len(first) != len(second):
        raise ValueError("series must have one entry per epoch on both sides")
    if not first:
        raise ValueError("series must contain at least one epoch")
    epochs: list[ComparisonResult] = []
    pooled_first: list[float] = []
    pooled_second: list[float] = []
    for index, (a, b) in enumerate(zip(first, second)):
        epoch_seed = derive_seed(seed, index)
        differences = [x - y for x, y in zip(a, b)]
        low, high = bootstrap_confidence_interval(
            a, b, rounds=rounds, confidence=confidence, seed=epoch_seed
        )
        epochs.append(
            ComparisonResult(
                mean_difference=mean(differences) if differences else 0.0,
                p_value=paired_permutation_test(a, b, rounds=rounds, seed=epoch_seed),
                ci_low=low,
                ci_high=high,
                n_users=len(differences),
            )
        )
        pooled_first.extend(a)
        pooled_second.extend(b)
    pooled_differences = [x - y for x, y in zip(pooled_first, pooled_second)]
    pooled_seed = derive_seed(seed, len(epochs))
    pooled_low, pooled_high = bootstrap_confidence_interval(
        pooled_first, pooled_second, rounds=rounds, confidence=confidence, seed=pooled_seed
    )
    pooled = ComparisonResult(
        mean_difference=mean(pooled_differences) if pooled_differences else 0.0,
        p_value=paired_permutation_test(
            pooled_first, pooled_second, rounds=rounds, seed=pooled_seed
        ),
        ci_low=pooled_low,
        ci_high=pooled_high,
        n_users=len(pooled_differences),
    )
    return SeriesComparison(
        epochs=tuple(epochs),
        adjusted_p_values=tuple(holm_bonferroni([e.p_value for e in epochs])),
        pooled=pooled,
    )
