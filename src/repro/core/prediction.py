"""Numeric rating prediction on top of the peer-weight pipeline.

The paper's §3.4 frames recommendation as peer *voting*; communities
with explicit ratings additionally want a predicted rating value for a
given (agent, product) pair — the classic CF task.  This module adapts
the GroupLens/Resnick estimator to the trust-aware setting: the
prediction for product ``b`` is the weighted mean of the peers' ratings
of ``b``, with each peer's §3.4 overall rank weight as the weight, and
mean-centering to correct for per-peer rating bias.

``predict`` works with any weight source (trust neighborhood weights,
pure-CF similarity weights, …), so the EX12 benchmark can compare
predictors that differ only in where their weights come from.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .models import Dataset

__all__ = ["RatingPredictor", "predict_rating"]


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def predict_rating(
    dataset: Dataset,
    agent: str,
    product: str,
    weights: Mapping[str, float],
    mean_centered: bool = True,
) -> float | None:
    """Predict ``r_agent(product)`` from weighted peer ratings.

    Returns ``None`` when no positively weighted peer rated *product*
    (the paper's ⊥: no basis for a prediction).  With *mean_centered*
    the estimator is Resnick's: the agent's own rating mean plus the
    weighted mean of peer deviations; otherwise a plain weighted mean.
    Predictions are clamped to the ``[-1, +1]`` rating scale.
    """
    raters = dataset.raters_of(product)
    weighted = [
        (weights[peer], value)
        for peer, value in raters.items()
        if peer != agent and weights.get(peer, 0.0) > 0.0
    ]
    if not weighted:
        return None
    total_weight = sum(w for w, _ in weighted)
    if not mean_centered:
        estimate = sum(w * v for w, v in weighted) / total_weight
        return max(-1.0, min(1.0, estimate))

    own_mean = _mean(dataset.ratings_of(agent).values())
    deviation = 0.0
    for peer, value in raters.items():
        weight = weights.get(peer, 0.0)
        if peer == agent or weight <= 0.0:
            continue
        peer_mean = _mean(dataset.ratings_of(peer).values())
        deviation += weight * (value - peer_mean)
    estimate = own_mean + deviation / total_weight
    return max(-1.0, min(1.0, estimate))


@dataclass
class RatingPredictor:
    """Convenience wrapper binding a dataset and a weight provider.

    ``weight_provider`` maps an agent URI to its peer-weight dictionary;
    pass ``SemanticWebRecommender.peer_weights`` for the trust-aware
    predictor or ``PureCFRecommender.peer_weights`` for the baseline.
    Weights are cached per agent because one evaluation predicts many
    products for the same agent.
    """

    dataset: Dataset
    weight_provider: object  # Callable[[str], Mapping[str, float]]
    mean_centered: bool = True

    def __post_init__(self) -> None:
        self._weight_cache: dict[str, Mapping[str, float]] = {}

    def _weights(self, agent: str) -> Mapping[str, float]:
        weights = self._weight_cache.get(agent)
        if weights is None:
            weights = self.weight_provider(agent)  # type: ignore[operator]
            self._weight_cache[agent] = weights
        return weights

    def predict(self, agent: str, product: str) -> float | None:
        """Predict one rating; ``None`` when no evidence exists."""
        return predict_rating(
            self.dataset,
            agent,
            product,
            self._weights(agent),
            mean_centered=self.mean_centered,
        )

    def predict_many(
        self, agent: str, products: list[str]
    ) -> dict[str, float]:
        """Predict several ratings, dropping the ``None`` (⊥) cases."""
        out: dict[str, float] = {}
        for product in products:
            value = self.predict(agent, product)
            if value is not None:
                out[product] = value
        return out
