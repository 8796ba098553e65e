"""Unit tests for significance testing."""

from __future__ import annotations

import random

import pytest

from repro.core.similarity import isclose
from repro.evaluation.significance import (
    bootstrap_confidence_interval,
    compare_epoch_series,
    derive_seed,
    holm_bonferroni,
    paired_permutation_test,
)


class TestDeriveSeed:
    def test_deterministic_and_index_sensitive(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(7, 3) != derive_seed(8, 3)

    def test_values_are_pinned(self):
        # EX20–EX23 seed every epoch through this function, so its values
        # are part of their tables.
        assert derive_seed(7, 3) == 3285148929586137414
        assert derive_seed(0, 0) == 6227894223152016962


class TestPermutationTest:
    def test_identical_sequences_not_significant(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert isclose(paired_permutation_test(values, values), 1.0)

    def test_large_consistent_difference_significant(self):
        rng = random.Random(1)
        base = [rng.uniform(0.0, 0.2) for _ in range(30)]
        better = [v + 0.5 for v in base]
        p = paired_permutation_test(better, base, rounds=2000, seed=2)
        assert p < 0.01

    def test_pure_noise_not_significant(self):
        rng = random.Random(3)
        first = [rng.gauss(0.5, 0.1) for _ in range(30)]
        second = [rng.gauss(0.5, 0.1) for _ in range(30)]
        p = paired_permutation_test(first, second, rounds=2000, seed=4)
        assert p > 0.05

    def test_symmetry(self):
        first = [0.9, 0.8, 0.7, 0.95, 0.85]
        second = [0.1, 0.2, 0.15, 0.1, 0.2]
        p_forward = paired_permutation_test(first, second, rounds=1000, seed=5)
        p_backward = paired_permutation_test(second, first, rounds=1000, seed=5)
        assert p_forward == p_backward

    def test_p_never_exactly_zero(self):
        first = [1.0] * 20
        second = [0.0] * 20
        p = paired_permutation_test(first, second, rounds=500, seed=6)
        assert 0.0 < p < 0.01

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_permutation_test([1.0], [1.0, 2.0])

    def test_empty(self):
        assert isclose(paired_permutation_test([], []), 1.0)

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            paired_permutation_test([1.0], [0.5], rounds=0)


class TestBootstrapCI:
    def test_interval_covers_true_difference(self):
        rng = random.Random(7)
        base = [rng.uniform(0.0, 1.0) for _ in range(50)]
        shifted = [v + 0.3 + rng.gauss(0.0, 0.05) for v in base]
        low, high = bootstrap_confidence_interval(shifted, base, rounds=2000, seed=8)
        assert low <= 0.3 + 0.03  # mean shift inside/near the interval
        assert high >= 0.3 - 0.03
        assert low > 0.0  # clearly positive difference
        assert low < high  # a genuine interval

    def test_zero_difference_interval_straddles_zero(self):
        rng = random.Random(9)
        first = [rng.gauss(0.5, 0.2) for _ in range(40)]
        second = [v + rng.gauss(0.0, 0.2) for v in first]
        low, high = bootstrap_confidence_interval(first, second, rounds=2000, seed=10)
        assert low <= 0.0 <= high or abs(low) < 0.15

    def test_empty(self):
        assert bootstrap_confidence_interval([], []) == (0.0, 0.0)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([1.0], [0.5], confidence=1.0)

    def test_deterministic(self):
        first = [0.5, 0.6, 0.7]
        second = [0.4, 0.5, 0.6]
        a = bootstrap_confidence_interval(first, second, rounds=500, seed=11)
        b = bootstrap_confidence_interval(first, second, rounds=500, seed=11)
        assert a == b


class TestHolmBonferroni:
    def test_hand_computed_family(self):
        """Holm (1979) step-down on a four-test family, worked by hand.

        Sorted: .005, .01, .03, .04 → multipliers 4, 3, 2, 1 →
        .02, .03, .06, .04 → running max → .02, .03, .06, .06.
        """
        adjusted = holm_bonferroni([0.01, 0.04, 0.03, 0.005])
        assert adjusted == pytest.approx([0.03, 0.06, 0.06, 0.02])

    def test_single_p_unchanged(self):
        assert holm_bonferroni([0.03]) == pytest.approx([0.03])

    def test_ties_share_the_largest_multiplier(self):
        assert holm_bonferroni([0.05, 0.05, 0.05]) == pytest.approx(
            [0.15, 0.15, 0.15]
        )

    def test_capped_at_one(self):
        assert holm_bonferroni([0.6, 0.7]) == pytest.approx([1.0, 1.0])

    def test_adjusted_never_below_raw(self):
        raw = [0.001, 0.2, 0.04, 0.7, 0.03]
        adjusted = holm_bonferroni(raw)
        assert all(a >= r for a, r in zip(adjusted, raw))

    def test_monotone_in_raw_order(self):
        """A smaller raw p never gets a larger adjusted p."""
        raw = [0.01, 0.04, 0.03, 0.005, 0.2]
        adjusted = holm_bonferroni(raw)
        for i, p_i in enumerate(raw):
            for j, p_j in enumerate(raw):
                if p_i < p_j:
                    assert adjusted[i] <= adjusted[j]

    def test_empty_family(self):
        assert holm_bonferroni([]) == []

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            holm_bonferroni([0.5, 1.5])
        with pytest.raises(ValueError):
            holm_bonferroni([-0.1])


class TestCompareEpochSeries:
    def consistent_series(self, n_epochs=3, n_users=16, gap=0.3):
        rng = random.Random(99)
        first, second = [], []
        for _ in range(n_epochs):
            base = [rng.uniform(0.2, 0.4) for _ in range(n_users)]
            first.append([b + gap for b in base])
            second.append(base)
        return first, second

    def test_consistent_gap_is_significant_everywhere(self):
        first, second = self.consistent_series()
        result = compare_epoch_series(first, second, rounds=500, seed=1)
        assert result.pooled.significant
        assert result.pooled.mean_difference == pytest.approx(0.3, abs=1e-9)
        assert result.n_significant == len(result.epochs) == 3

    def test_self_comparison_not_significant(self):
        series = [[0.1, 0.2, 0.3, 0.4]] * 2
        result = compare_epoch_series(series, series, rounds=200, seed=1)
        assert not result.pooled.significant
        assert result.n_significant == 0

    def test_adjusted_at_least_raw(self):
        first, second = self.consistent_series(n_epochs=4, gap=0.05)
        result = compare_epoch_series(first, second, rounds=300, seed=2)
        for epoch, adjusted in zip(result.epochs, result.adjusted_p_values):
            assert adjusted >= epoch.p_value

    def test_pooled_counts_all_users(self):
        first, second = self.consistent_series(n_epochs=3, n_users=10)
        result = compare_epoch_series(first, second, rounds=200, seed=3)
        assert result.pooled.n_users == 30

    def test_deterministic(self):
        first, second = self.consistent_series()
        a = compare_epoch_series(first, second, rounds=300, seed=4)
        b = compare_epoch_series(first, second, rounds=300, seed=4)
        assert a == b

    def test_epoch_count_mismatch(self):
        with pytest.raises(ValueError):
            compare_epoch_series([[0.1]], [[0.1], [0.2]])

    def test_empty_series(self):
        with pytest.raises(ValueError):
            compare_epoch_series([], [])
