"""Taxonomy-based interest profile generation (§3.3, Eq. 3, Example 1).

Profiles are sparse mappings from topic identifiers to interest scores.
Generation proceeds exactly as the paper prescribes:

1. the fixed overall profile score ``s`` is divided evenly among all
   products contributing to the profile ("Score s is divided evenly among
   all products that contribute to a_i's profile makeup");
2. each product's share is divided evenly among its topic descriptors
   (Example 1: 4 books, 5 descriptors → per-descriptor budget
   ``s / (4·5) = 50``);
3. each descriptor's budget is distributed over the path from its topic up
   to the top element with geometric attenuation, Eq. 3:
   ``sco(p_m) = sco(p_{m+1}) / (sib(p_{m+1}) + 1)``.

Step 1 is what makes "high product ratings from agents with short rating
histories have higher impact" — every profile carries the same total mass.

Two baseline builders reproduce the alternatives the paper argues against:
flat category vectors (Sollenborn & Funk style, no propagation) and raw
product vectors (classic CF).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Literal as TypingLiteral
from typing import Optional

from .models import Product
from .taxonomy import Taxonomy

__all__ = [
    "DEFAULT_PROFILE_SCORE",
    "Profile",
    "TaxonomyProfileBuilder",
    "descriptor_score_path",
    "flat_category_profile",
    "product_profile",
]

#: The overall accorded profile score of Example 1.
DEFAULT_PROFILE_SCORE = 1000.0

#: A sparse interest profile: topic identifier -> accumulated score.
Profile = dict[str, float]

ProductWeighting = TypingLiteral["uniform", "rating"]
NegativeMode = TypingLiteral["ignore", "signed"]


def descriptor_score_path(
    taxonomy: Taxonomy, topic: str, budget: float
) -> dict[str, float]:
    """Distribute *budget* over the path from *topic* to the root per Eq. 3.

    Returns a mapping containing every node on the path.  The relative
    weight of the descriptor's own topic is 1; each step toward the root
    divides the weight by ``sib(child) + 1``; weights are then scaled so
    the path total equals *budget*.

    For Example 1 (budget 50, path Books→Science→Mathematics→Pure→Algebra
    with sibling counts 3/3/2/1 along the way) this yields
    ``{Algebra: 29.0909…, Pure: 14.5454…, Mathematics: 4.8484…,
    Science: 1.2121…, Books: 0.30303…}``.
    """
    path = taxonomy.path_to_root(topic)  # [topic, ..., root]
    weights = [1.0]
    for node in path[:-1]:  # attenuate from each child toward its parent
        weights.append(weights[-1] / (taxonomy.sibling_count(node) + 1))
    total = sum(weights)
    scale = budget / total if total else 0.0
    return {node: weight * scale for node, weight in zip(path, weights)}


class TaxonomyProfileBuilder:
    """Builds normalized taxonomy profiles from an agent's ratings.

    Parameters
    ----------
    taxonomy:
        The shared taxonomy ``C``.
    total_score:
        The fixed profile mass ``s`` (Example 1 uses 1000).
    product_weighting:
        ``"uniform"`` (the paper's even split) or ``"rating"`` (ablation:
        products weighted by rating magnitude before normalization).
    negative_mode:
        ``"ignore"`` drops non-positive ratings (the paper's implicit-vote
        setting mines *liked* items only); ``"signed"`` lets negative
        ratings subtract topic score, for explicit-rating communities.
    """

    def __init__(
        self,
        taxonomy: Taxonomy,
        total_score: float = DEFAULT_PROFILE_SCORE,
        product_weighting: ProductWeighting = "uniform",
        negative_mode: NegativeMode = "ignore",
    ) -> None:
        if total_score <= 0:
            raise ValueError("total_score must be positive")
        if product_weighting not in ("uniform", "rating"):
            raise ValueError(f"unknown product_weighting {product_weighting!r}")
        if negative_mode not in ("ignore", "signed"):
            raise ValueError(f"unknown negative_mode {negative_mode!r}")
        self.taxonomy = taxonomy
        self.total_score = float(total_score)
        self.product_weighting = product_weighting
        self.negative_mode = negative_mode
        # Per-topic path distributions are rating-independent, so memoize.
        self._path_cache: dict[str, dict[str, float]] = {}
        # Descriptor filtering is product-and-taxonomy-dependent only, yet
        # it used to be re-sorted for every rating of every agent; memoize
        # per product identifier (descriptor sets are frozen on Product and
        # identifiers are globally unique, the paper's ISBN assumption).
        self._descriptor_cache: dict[str, list[str]] = {}

    # -- public API -----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the memoized path distributions and descriptor lists.

        Both caches are keyed on taxonomy structure (and frozen product
        descriptors), so they survive any amount of rating churn — but a
        process that edits its taxonomy in place must call this or serve
        profiles built against the old topic tree (RL200's
        taxonomy-caches pairing).
        """
        self._path_cache.clear()
        self._descriptor_cache.clear()

    def build(
        self,
        ratings: Mapping[str, float],
        products: Mapping[str, Product],
    ) -> Profile:
        """Build the profile for an agent with rating function *ratings*.

        *products* maps product identifiers to :class:`Product` records;
        rated products missing from it, or classified with topics unknown
        to the taxonomy, are skipped (crawled data is never perfectly
        aligned with the shared taxonomy).
        """
        contributions = self._contributions(ratings, products)
        if not contributions:
            return {}
        weight_total = sum(abs(w) for _, w in contributions)
        profile: Profile = {}
        for product, weight in contributions:
            product_share = self.total_score * abs(weight) / weight_total
            sign = 1.0 if weight >= 0 else -1.0
            descriptors = self._known_descriptors(product)
            budget = product_share / len(descriptors)
            for topic in descriptors:
                for node, score in self._path_scores(topic).items():
                    profile[node] = profile.get(node, 0.0) + sign * score * budget
        return profile

    def profile_mass(self, profile: Profile) -> float:
        """Total absolute score a profile assigns (≈ ``s`` by construction)."""
        return sum(abs(v) for v in profile.values())

    # -- internals --------------------------------------------------------------

    def _contributions(
        self,
        ratings: Mapping[str, float],
        products: Mapping[str, Product],
    ) -> list[tuple[Product, float]]:
        contributions: list[tuple[Product, float]] = []
        for identifier in sorted(ratings):
            value = ratings[identifier]
            product = products.get(identifier)
            if product is None:
                continue
            if not self._known_descriptors(product):
                continue
            if value <= 0 and self.negative_mode == "ignore":
                continue
            if value == 0:
                continue
            weight = 1.0 if self.product_weighting == "uniform" else value
            if self.product_weighting == "uniform" and value < 0:
                weight = -1.0
            contributions.append((product, weight))
        return contributions

    def _known_descriptors(self, product: Product) -> list[str]:
        known = self._descriptor_cache.get(product.identifier)
        if known is None:
            known = sorted(t for t in product.descriptors if t in self.taxonomy)
            self._descriptor_cache[product.identifier] = known
        return known

    def _path_scores(self, topic: str) -> dict[str, float]:
        scores = self._path_cache.get(topic)
        if scores is None:
            scores = descriptor_score_path(self.taxonomy, topic, 1.0)
            self._path_cache[topic] = scores
        return scores


def flat_category_profile(
    ratings: Mapping[str, float],
    products: Mapping[str, Product],
    known_topics: Optional[Iterable[str]] = None,
    total_score: float = DEFAULT_PROFILE_SCORE,
) -> Profile:
    """Category-based baseline: descriptor topics only, no propagation.

    This is the "category-based collaborative filtering" alternative the
    paper criticizes (§3.3): relationships between categories are lost, so
    two agents interested in sibling topics show zero overlap.
    """
    topic_filter = set(known_topics) if known_topics is not None else None
    contributing: list[tuple[str, list[str]]] = []
    for identifier in sorted(ratings):
        if ratings[identifier] <= 0:
            continue
        product = products.get(identifier)
        if product is None:
            continue
        descriptors = sorted(
            t
            for t in product.descriptors
            if topic_filter is None or t in topic_filter
        )
        if descriptors:
            contributing.append((identifier, descriptors))
    if not contributing:
        return {}
    per_product = total_score / len(contributing)
    profile: Profile = {}
    for _, descriptors in contributing:
        per_topic = per_product / len(descriptors)
        for topic in descriptors:
            profile[topic] = profile.get(topic, 0.0) + per_topic
    return profile


def product_profile(ratings: Mapping[str, float]) -> Profile:
    """Raw product-vector baseline: the classic CF representation (§2).

    Keys are product identifiers rather than topics; values are the raw
    ratings.  Kept un-normalized because Pearson correlation is
    translation/scale invariant and cosine is scale invariant.
    """
    return dict(ratings)
