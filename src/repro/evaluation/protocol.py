"""Evaluation protocol: holdout splits, per-user evaluation, result tables.

The protocol follows the standard top-N evaluation for implicit-feedback
recommenders (the paper's data is implicit weblog votes): withhold a few
positively rated products per qualifying user, recommend from the
remaining data, and score the recommendation list against the withheld
items.  Aggregates report mean ± standard error over evaluated users.

:class:`Table` is the shared presentation layer: every experiment
renders through it, so EXPERIMENTS.md, ``repro experiment`` and test
assertions all see identical numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.models import Dataset
from ..core.recommender import Recommender
from .metrics import f1_score, hit_rate, mean, precision_at, recall_at, standard_error

__all__ = [
    "HoldoutSplit",
    "QualityReport",
    "Table",
    "evaluate_recommender",
    "holdout_split",
    "per_user_scores",
]


@dataclass(frozen=True, slots=True)
class HoldoutSplit:
    """A train dataset plus the withheld positive items per test user."""

    train: Dataset
    held_out: dict[str, frozenset[str]]

    @property
    def test_users(self) -> list[str]:
        return sorted(self.held_out)


def holdout_split(
    dataset: Dataset,
    per_user: int = 5,
    min_ratings: int = 10,
    max_users: int | None = None,
    seed: int = 0,
) -> HoldoutSplit:
    """Withhold *per_user* positive ratings from every qualifying user.

    Users qualify with at least *min_ratings* positive ratings, so the
    training half keeps enough signal to recommend from.  *max_users*
    caps the number of test users (cheapest first by URI order after a
    seeded shuffle) to bound experiment cost.  The returned training
    dataset is a modified copy; *dataset* itself is untouched.
    """
    if per_user < 1:
        raise ValueError("per_user must be at least 1")
    if min_ratings <= per_user:
        raise ValueError("min_ratings must exceed per_user")
    rng = random.Random(seed)

    positive: dict[str, list[str]] = {}
    for rating in dataset.iter_ratings():
        if rating.is_positive:
            positive.setdefault(rating.agent, []).append(rating.product)

    qualifying = sorted(a for a, items in positive.items() if len(items) >= min_ratings)
    rng.shuffle(qualifying)
    if max_users is not None:
        qualifying = qualifying[:max_users]

    held_out: dict[str, frozenset[str]] = {}
    train = dataset.copy()
    for agent in qualifying:
        items = sorted(positive[agent])
        rng.shuffle(items)
        withheld = frozenset(items[:per_user])
        held_out[agent] = withheld
        for product in withheld:
            train.remove_rating(agent, product)
    return HoldoutSplit(train=train, held_out=held_out)


@dataclass(frozen=True, slots=True)
class QualityReport:
    """Aggregated top-N quality over the test users of one recommender."""

    name: str
    top_n: int
    users: int
    precision: float
    precision_se: float
    recall: float
    recall_se: float
    f1: float
    hit_rate: float

    def as_row(self) -> list[str]:
        return [
            self.name,
            str(self.users),
            f"{self.precision:.4f}±{self.precision_se:.4f}",
            f"{self.recall:.4f}±{self.recall_se:.4f}",
            f"{self.f1:.4f}",
            f"{self.hit_rate:.3f}",
        ]

    @staticmethod
    def headers() -> list[str]:
        return ["method", "users", "precision", "recall", "F1", "hit-rate"]


def per_user_scores(
    recommender: Recommender, split: HoldoutSplit, top_n: int = 10
) -> list[tuple[float, float, float]]:
    """One ``(precision, recall, hit)`` triple per test user of *split*.

    Triples follow ``split.test_users`` order; each scores the user's
    top-*top_n* list against their withheld items.
    """
    triples: list[tuple[float, float, float]] = []
    for agent in split.test_users:
        relevant = set(split.held_out[agent])
        recommended = [
            item.product for item in recommender.recommend(agent, limit=top_n)
        ]
        triples.append(
            (
                precision_at(recommended, relevant),
                recall_at(recommended, relevant),
                hit_rate(recommended, relevant),
            )
        )
    return triples


def evaluate_recommender(
    name: str,
    recommender: Recommender,
    split: HoldoutSplit,
    top_n: int = 10,
) -> QualityReport:
    """Score *recommender* on *split* with top-*top_n* lists.

    The recommender must have been built over ``split.train`` — this
    function only drives it and scores the lists.
    """
    triples = per_user_scores(recommender, split, top_n)
    precisions = [t[0] for t in triples]
    recalls = [t[1] for t in triples]
    hits = [t[2] for t in triples]
    mean_precision = mean(precisions)
    mean_recall = mean(recalls)
    return QualityReport(
        name=name,
        top_n=top_n,
        users=len(split.test_users),
        precision=mean_precision,
        precision_se=standard_error(precisions),
        recall=mean_recall,
        recall_se=standard_error(recalls),
        f1=f1_score(mean_precision, mean_recall),
        hit_rate=mean(hits),
    )


@dataclass
class Table:
    """A minimal aligned-text table for experiment and benchmark output."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        row = [str(cell) for cell in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: list[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

        lines = [self.title, "=" * len(self.title), fmt(self.headers)]
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt(row) for row in self.rows)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
