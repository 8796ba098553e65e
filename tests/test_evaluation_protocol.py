"""Unit tests for the evaluation protocol and table rendering."""

from __future__ import annotations

import pytest

from repro.core.recommender import PopularityRecommender, RandomRecommender
from repro.evaluation.protocol import (
    Table,
    evaluate_recommender,
    holdout_split,
)


class TestHoldoutSplit:
    def test_withholds_exactly_per_user(self, small_community):
        dataset = small_community.dataset
        split = holdout_split(dataset, per_user=3, min_ratings=8, seed=1)
        assert split.held_out
        for agent, withheld in split.held_out.items():
            assert len(withheld) == 3
            for product in withheld:
                assert (agent, product) not in split.train.ratings
                assert (agent, product) in dataset.ratings

    def test_train_keeps_other_ratings(self, small_community):
        dataset = small_community.dataset
        split = holdout_split(dataset, per_user=3, min_ratings=8, seed=1)
        withheld_total = sum(len(w) for w in split.held_out.values())
        assert len(split.train.ratings) == len(dataset.ratings) - withheld_total

    def test_original_untouched(self, small_community):
        dataset = small_community.dataset
        before = dict(dataset.ratings)
        holdout_split(dataset, per_user=3, min_ratings=8, seed=1)
        assert dataset.ratings == before

    def test_min_ratings_respected(self, small_community):
        dataset = small_community.dataset
        split = holdout_split(dataset, per_user=3, min_ratings=20, seed=1)
        for agent in split.held_out:
            positives = [
                v for v in dataset.ratings_of(agent).values() if v > 0
            ]
            assert len(positives) >= 20

    def test_max_users(self, small_community):
        split = holdout_split(
            small_community.dataset, per_user=3, min_ratings=8, max_users=5, seed=1
        )
        assert len(split.held_out) == 5

    def test_deterministic(self, small_community):
        first = holdout_split(small_community.dataset, per_user=3, min_ratings=8, seed=4)
        second = holdout_split(small_community.dataset, per_user=3, min_ratings=8, seed=4)
        assert first.held_out == second.held_out

    def test_seed_changes_split(self, small_community):
        first = holdout_split(small_community.dataset, per_user=3, min_ratings=8, seed=1)
        second = holdout_split(small_community.dataset, per_user=3, min_ratings=8, seed=2)
        assert first.held_out != second.held_out

    def test_invalid_parameters(self, small_community):
        with pytest.raises(ValueError):
            holdout_split(small_community.dataset, per_user=0)
        with pytest.raises(ValueError):
            holdout_split(small_community.dataset, per_user=5, min_ratings=5)


class TestEvaluateRecommender:
    def test_popularity_beats_random(self, small_community):
        split = holdout_split(
            small_community.dataset, per_user=3, min_ratings=8, max_users=25, seed=2
        )
        popularity = evaluate_recommender(
            "popularity", PopularityRecommender(dataset=split.train), split
        )
        randomized = evaluate_recommender(
            "random", RandomRecommender(dataset=split.train), split
        )
        assert popularity.users == randomized.users == 25
        assert popularity.recall >= randomized.recall

    def test_report_fields_consistent(self, small_community):
        split = holdout_split(
            small_community.dataset, per_user=3, min_ratings=8, max_users=10, seed=3
        )
        report = evaluate_recommender(
            "popularity", PopularityRecommender(dataset=split.train), split, top_n=5
        )
        assert report.top_n == 5
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.hit_rate <= 1.0
        row = report.as_row()
        assert row[0] == "popularity"
        assert len(row) == len(report.headers())


class TestTable:
    def test_render_alignment(self):
        table = Table(title="T", headers=["name", "value"])
        table.add_row("a", 1)
        table.add_row("long-name", 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        # All data lines share the same width.
        assert len(set(len(line.rstrip()) for line in lines[2:3])) == 1
        assert "long-name" in text

    def test_wrong_arity_rejected(self):
        table = Table(title="T", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_notes_rendered(self):
        table = Table(title="T", headers=["a"])
        table.add_row("x")
        table.add_note("something important")
        assert "note: something important" in table.render()

    def test_str_is_render(self):
        table = Table(title="T", headers=["a"])
        assert str(table) == table.render()
