"""Topic diversification of recommendation lists (§3.4).

§3.4 motivates recommending from "categories that a_i has left untouched
until present … incentive for trying new product groups becomes
created".  Beyond the hard filter of
:class:`~repro.core.recommender.ContentBasedExplorer`, the soft version
of that idea is *topic diversification*: rerank the candidate list so
consecutive picks are taxonomically dissimilar from the items already
chosen, trading a controlled amount of accuracy for lower intra-list
similarity.  (The algorithm follows the author's later published
formulation: greedy selection by a rank-merge of the original order and
the dissimilarity order, controlled by a diversification factor Θ.)

Product-to-product similarity is taxonomy-based: each product gets a
topic profile by pushing one unit of score through Eq. 3 for each of its
descriptors; profiles are compared with cosine.  Products with no
descriptors are maximally dissimilar to everything (they carry no topic
evidence).

:func:`intra_list_similarity` (ILS) is the evaluation metric: the mean
pairwise similarity of a list — diversification must lower it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .models import Product
from .profiles import Profile, descriptor_score_path
from .recommender import Recommendation
from .similarity import cosine
from .taxonomy import Taxonomy

__all__ = ["TopicDiversifier", "intra_list_similarity", "product_topic_profile"]


def product_topic_profile(taxonomy: Taxonomy, product: Product) -> Profile:
    """The taxonomy profile of one *product* (unit mass per descriptor)."""
    profile: Profile = {}
    known = sorted(t for t in product.descriptors if t in taxonomy)
    for topic in known:
        for node, score in descriptor_score_path(taxonomy, topic, 1.0).items():
            profile[node] = profile.get(node, 0.0) + score
    return profile


def intra_list_similarity(
    products: list[str], profiles: dict[str, Profile]
) -> float:
    """Mean pairwise cosine similarity of a product list (0.0 for < 2)."""
    n = len(products)
    if n < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i in range(n):
        left = profiles.get(products[i], {})
        for j in range(i + 1, n):
            total += cosine(left, profiles.get(products[j], {}))
            pairs += 1
    return total / pairs


@dataclass
class TopicDiversifier:
    """Greedy topic-diversification reranker.

    Parameters
    ----------
    taxonomy, products:
        Shared knowledge used to compute product topic profiles (cached).
    theta:
        Diversification factor Θ in [0, 1].  Θ=0 returns the original
        order; Θ=1 ranks purely by dissimilarity to the already-selected
        set (after the top item, which is always kept first).
    """

    taxonomy: Taxonomy
    products: dict[str, Product]
    theta: float = 0.5
    _profile_cache: dict[str, Profile] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")

    def profile(self, identifier: str) -> Profile:
        """Cached topic profile of one product (empty if unknown)."""
        profile = self._profile_cache.get(identifier)
        if profile is None:
            product = self.products.get(identifier)
            profile = (
                {} if product is None else product_topic_profile(self.taxonomy, product)
            )
            self._profile_cache[identifier] = profile
        return profile

    def invalidate(self) -> None:
        """Drop cached product topic profiles.

        Required after in-place taxonomy edits (RL200's taxonomy-caches
        pairing); rating churn alone never stales this cache.
        """
        self._profile_cache.clear()

    def rerank(
        self, candidates: list[Recommendation], limit: int = 10
    ) -> list[Recommendation]:
        """Diversified top-*limit* selection from *candidates*.

        *candidates* should be longer than *limit* (e.g. the top 5·limit
        by score) so the reranker has room to trade; the candidates'
        original order is treated as the accuracy ranking.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        if not candidates:
            return []
        remaining = list(candidates)
        selected: list[Recommendation] = [remaining.pop(0)]
        while remaining and len(selected) < limit:
            selected_profiles = [self.profile(r.product) for r in selected]

            def dissimilarity(rec: Recommendation) -> float:
                profile = self.profile(rec.product)
                if not selected_profiles:
                    return 0.0
                return -sum(cosine(profile, s) for s in selected_profiles)

            # Rank positions in the accuracy order (current remaining
            # order) and in the dissimilarity order.
            dissim_order = sorted(
                range(len(remaining)),
                key=lambda i: (-dissimilarity(remaining[i]), remaining[i].product),
            )
            dissim_rank = {index: pos for pos, index in enumerate(dissim_order)}
            best_index = min(
                range(len(remaining)),
                key=lambda i: (
                    (1.0 - self.theta) * i + self.theta * dissim_rank[i],
                    remaining[i].product,
                ),
            )
            selected.append(remaining.pop(best_index))
        return selected

    def ils(self, recommendations: list[Recommendation]) -> float:
        """Intra-list similarity of a recommendation list."""
        identifiers = [r.product for r in recommendations]
        profiles = {i: self.profile(i) for i in identifiers}
        return intra_list_similarity(identifiers, profiles)
