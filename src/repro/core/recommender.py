"""End-to-end recommenders: the paper's pipeline and its baselines.

:class:`SemanticWebRecommender` realizes the full §3 pipeline for one
principal agent, computed *locally* as the paper requires:

1. **Trust neighborhood formation** (§3.2) — Appleseed ranks over the web
   of trust, thresholded/top-M (:mod:`repro.core.neighborhood`).
2. **Similarity-based filtering** (§3.3) — taxonomy profiles and
   Pearson/cosine similarity against each neighbor.
3. **Rank synthesization** (§3.4) — a pluggable merge strategy yields one
   overall rank weight per peer.
4. **Recommendation** — "every a_j voting for all its appreciated
   products b_k with its own rank weight" (the paper's primary proposal);
   products already rated by the principal are excluded.

Baselines for the experiments:

* :class:`PureCFRecommender` — centralized CF over *all* agents (no
  trust), with either taxonomy or raw product profiles.
* :class:`TrustOnlyRecommender` — Appleseed ranks as voting weights, no
  similarity at all (trust as a similarity *surrogate*, §3.2).
* :class:`ContentBasedExplorer` — the §3.4 content-based alternative:
  propose products from categories the principal "has left untouched
  until present" but that highly weighted peers appreciate.
* :class:`RandomRecommender` and :class:`PopularityRecommender` — floor
  and non-personalized references.
"""

from __future__ import annotations

import heapq
import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..perf.matrix import ProfileMatrix

from ..obs import get_metrics
from ..trust.graph import TrustGraph
from .models import Dataset
from .neighborhood import NeighborhoodFormation, TrustNeighborhood
from .profiles import Profile, TaxonomyProfileBuilder, product_profile
from .similarity import Domain, check_engine, cosine, engine_path, pearson
from .synthesis import LinearBlend, SynthesisStrategy
from .taxonomy import Taxonomy

__all__ = [
    "ContentBasedExplorer",
    "FallbackRecommender",
    "PopularityRecommender",
    "ProfileStore",
    "PureCFRecommender",
    "RandomRecommender",
    "Recommendation",
    "Recommender",
    "SemanticWebRecommender",
    "TrustOnlyRecommender",
]


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One recommended product with its aggregated score and supporters."""

    product: str
    score: float
    supporters: tuple[str, ...] = ()


class ProfileStore:
    """Lazily builds and caches taxonomy profiles for a community.

    Centralizing the cache matters: experiments recompute similarities for
    thousands of agent pairs and profile construction dominates without it.
    Call :meth:`invalidate` after mutating an agent's ratings or
    membership: once the community matrix is packed, that rebuilds the
    agent's profile and splices its one row in place, so a write costs
    one profile build, not a repack.

    Both caches are plain attributes: the store serves one writer at a
    time (DESIGN.md's concurrency contract), so a fill is an ordinary
    memo and :meth:`invalidate` updates the profile and the packed
    matrix together in one call.
    """

    def __init__(self, dataset: Dataset, builder: TaxonomyProfileBuilder) -> None:
        self.dataset = dataset
        self.builder = builder
        self._cache: dict[str, Profile] = {}
        self._matrix: "ProfileMatrix | None" = None

    def profile(self, agent: str) -> Profile:
        """The taxonomy profile of *agent* (cached)."""
        profile = self._cache.get(agent)
        if profile is None:
            ratings = self.dataset.ratings_of(agent)
            profile = self.builder.build(ratings, self.dataset.products)
            self._cache[agent] = profile
        return profile

    def matrix(self) -> "ProfileMatrix":
        """The whole community's profiles packed for the numpy engine.

        Packed on first use (the one call that pays the full
        O(community) profile construction) and from then on kept current
        by :meth:`invalidate`, so every later call is a memo read.  Only
        ``invalidate()`` with no agent drops it.
        """
        matrix = self._matrix
        if matrix is not None:
            get_metrics().counter("similarity.matrix_cache.hit").inc()
            return matrix
        from ..perf.matrix import ProfileMatrix

        get_metrics().counter("similarity.matrix_cache.miss").inc()
        profiles = {agent: self.profile(agent) for agent in self.dataset.agents}
        matrix = ProfileMatrix.from_profiles(profiles)
        self._matrix = matrix
        return matrix

    def invalidate(self, agent: str | None = None) -> None:
        """Forget cached profiles: one *agent*'s, or all when it is None.

        With no *agent* the packed matrix is dropped too.  For one
        *agent* while a matrix is packed, the agent's profile is rebuilt
        at once and its row spliced in place (inserted for a new agent,
        deleted when it has left ``dataset.agents``); the matrix then
        equals a fresh pack, and the next :meth:`matrix` call is a hit.
        """
        if agent is None:
            self._cache.clear()
            self._matrix = None
            return
        self._cache.pop(agent, None)
        matrix = self._matrix
        if matrix is None:
            return
        get_metrics().counter("similarity.matrix_cache.splice").inc()
        member = agent in self.dataset.agents
        matrix.splice(agent, self.profile(agent) if member else None)


def _similarity_function(
    measure: str,
) -> Callable[[Mapping[str, float], Mapping[str, float], Domain], float]:
    if measure == "pearson":
        return pearson
    if measure == "cosine":
        return cosine
    raise ValueError(f"unknown similarity measure {measure!r}")


def _vote_scores(
    dataset: Dataset,
    weights: dict[str, float],
    exclude: set[str],
) -> tuple[dict[str, float], dict[str, list[str]]]:
    """Accumulate weighted product votes without ranking anything yet.

    Split out of :func:`_vote` so filters (e.g. the content-based
    explorer's untouched-category constraint) can narrow the candidate
    pool *before* any ranking work happens.
    """
    scores: dict[str, float] = {}
    supporters: dict[str, list[str]] = {}
    for peer, weight in weights.items():
        if weight <= 0.0:
            continue
        for product, value in dataset.ratings_of(peer).items():
            if value <= 0.0 or product in exclude:
                continue
            scores[product] = scores.get(product, 0.0) + weight
            supporters.setdefault(product, []).append(peer)
    return scores, supporters


def _rank_votes(
    scores: dict[str, float],
    supporters: dict[str, list[str]],
    limit: int,
) -> list[Recommendation]:
    """Top-*limit* recommendations from accumulated votes.

    Heap selection instead of a full sort: identical output to sorting
    by ``(-score, product)`` and truncating.
    """
    if limit < len(scores):
        ranked = heapq.nsmallest(
            limit, scores.items(), key=lambda kv: (-kv[1], kv[0])
        )
    else:
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        Recommendation(
            product=product,
            score=score,
            supporters=tuple(sorted(supporters[product])),
        )
        for product, score in ranked
    ]


def _vote(
    dataset: Dataset,
    weights: dict[str, float],
    exclude: set[str],
    limit: int,
) -> list[Recommendation]:
    """Weighted product voting: the paper's primary §3.4 proposal."""
    scores, supporters = _vote_scores(dataset, weights, exclude)
    return _rank_votes(scores, supporters, limit)


class Recommender(ABC):
    """Common interface: top-N product recommendations for one agent."""

    @abstractmethod
    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        """Return up to *limit* recommendations for *agent*, best first."""


@dataclass
class SemanticWebRecommender(Recommender):
    """The paper's full trust + taxonomy pipeline (see module docstring).

    All heavyweight state (trust graph, profile store) is built once in
    :meth:`from_dataset` and shared across calls; :meth:`recommend` runs
    the per-principal local computation.  *engine* selects the
    similarity stage's implementation (:data:`~repro.core.similarity.ENGINES`);
    :meth:`from_dataset` hands it to the default formation too.
    """

    dataset: Dataset
    graph: TrustGraph
    profiles: ProfileStore
    formation: NeighborhoodFormation = field(default_factory=NeighborhoodFormation)
    synthesis: SynthesisStrategy = field(default_factory=LinearBlend)
    similarity_measure: str = "pearson"
    similarity_domain: Domain = "union"
    engine: str = "auto"

    def __post_init__(self) -> None:
        check_engine(self.engine)

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        taxonomy: Taxonomy,
        formation: NeighborhoodFormation | None = None,
        synthesis: SynthesisStrategy | None = None,
        similarity_measure: str = "pearson",
        similarity_domain: Domain = "union",
        builder: TaxonomyProfileBuilder | None = None,
        engine: str = "auto",
    ) -> "SemanticWebRecommender":
        """Assemble the recommender from a community snapshot."""
        builder = builder or TaxonomyProfileBuilder(taxonomy)
        return cls(
            dataset=dataset,
            graph=TrustGraph.from_dataset(dataset),
            profiles=ProfileStore(dataset, builder),
            formation=formation or NeighborhoodFormation(engine=engine),
            synthesis=synthesis or LinearBlend(),
            similarity_measure=similarity_measure,
            similarity_domain=similarity_domain,
            engine=engine,
        )

    # -- pipeline stages, exposed for inspection and experiments ------------

    def neighborhood(self, agent: str) -> TrustNeighborhood:
        """Stage 1: the principal's trust neighborhood."""
        return self.formation.form(self.graph, agent)

    def similarities(
        self, agent: str, peers: set[str]
    ) -> dict[str, float]:
        """Stage 2: taxonomy-profile similarity to each peer.

        With ``engine="auto"`` the peers are scored through the profile
        store's packed community matrix in one kernel call; ``"python"``
        computes dict pairs (the oracle).  Results agree to 1e-9.
        """
        own = self.profiles.profile(agent)
        if peers and engine_path(self.engine) == "numpy":
            from ..perf.kernels import similarity_many

            matrix = self.profiles.matrix()
            peer_list = sorted(peers)
            try:
                rows = matrix.rows_for(peer_list)
            except KeyError:
                pass  # peers outside the dataset: fall through to python
            else:
                values = similarity_many(
                    own,
                    matrix,
                    measure=self.similarity_measure,
                    domain=self.similarity_domain,
                    rows=rows,
                )
                return {
                    peer: float(value) for peer, value in zip(peer_list, values)
                }
        func = _similarity_function(self.similarity_measure)
        return {
            peer: func(own, self.profiles.profile(peer), self.similarity_domain)
            for peer in peers
        }

    def peer_weights(self, agent: str) -> dict[str, float]:
        """Stages 1-3: overall rank weight per voting peer."""
        hood = self.neighborhood(agent)
        sims = self.similarities(agent, hood.members())
        return self.synthesis.merge(hood.normalized, sims)

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        if agent not in self.dataset.agents:
            raise KeyError(f"unknown agent {agent!r}")
        weights = self.peer_weights(agent)
        exclude = set(self.dataset.ratings_of(agent))
        return _vote(self.dataset, weights, exclude, limit)

    def invalidate_cache(self, agent: str | None = None) -> None:
        """Bring the profile store up to date after a dataset mutation.

        Long-lived agents keep ingesting ratings while serving queries;
        call this after every dataset mutation — for one *agent* when a
        single rating arrived or the agent joined or left, which splices
        that agent's row of the packed matrix in place; with no argument
        after bulk changes, which drops every profile and the matrix.
        """
        self.profiles.invalidate(agent)


@dataclass
class PureCFRecommender(Recommender):
    """Centralized collaborative filtering over the whole community.

    The generic approach the paper contrasts itself against: similarity is
    computed against *every* other agent (no trust pre-filtering), the
    ``neighbors`` most similar peers vote with their similarity as weight.
    ``representation`` chooses taxonomy profiles ("taxonomy") or classic
    product-rating vectors ("product", with intersection-domain Pearson).
    """

    dataset: Dataset
    profiles: ProfileStore | None = None
    representation: str = "taxonomy"
    similarity_measure: str | None = None
    neighbors: int = 20
    engine: str = "auto"
    _product_profiles: dict[str, Profile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _product_matrix: "ProfileMatrix | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_engine(self.engine)
        if self.representation not in ("taxonomy", "product"):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.representation == "taxonomy" and self.profiles is None:
            raise ValueError("taxonomy representation requires a ProfileStore")
        if self.neighbors < 1:
            raise ValueError("neighbors must be at least 1")
        if self.similarity_measure is None:
            # Pearson suits dense taxonomy profiles; implicit +1.0 product
            # vectors have zero variance on co-rated items, which makes
            # Pearson degenerate, so product mode defaults to cosine.
            measure = "pearson" if self.representation == "taxonomy" else "cosine"
            self.similarity_measure = measure

    def _profile(self, agent: str) -> Profile:
        if self.representation == "taxonomy":
            assert self.profiles is not None
            return self.profiles.profile(agent)
        profile = self._product_profiles.get(agent)
        if profile is None:
            profile = product_profile(self.dataset.ratings_of(agent))
            self._product_profiles[agent] = profile
        return profile

    def _matrix(self) -> "ProfileMatrix":
        """The packed community matrix for the active representation."""
        if self.representation == "taxonomy":
            assert self.profiles is not None
            return self.profiles.matrix()
        matrix = self._product_matrix
        if matrix is None:
            from ..perf.matrix import ProfileMatrix

            profiles = {agent: self._profile(agent) for agent in self.dataset.agents}
            matrix = ProfileMatrix.from_profiles(profiles)
            self._product_matrix = matrix
        return matrix

    def invalidate_cache(self) -> None:
        """Drop every cached view of the dataset's ratings.

        Call after mutating the dataset.  Taxonomy-mode profiles and the
        packed community matrix live in the shared :class:`ProfileStore`,
        so it is invalidated too — dropping only the product-mode caches
        left taxonomy-mode queries serving stale scores (RL200).
        """
        self._product_profiles.clear()
        self._product_matrix = None
        if self.profiles is not None:
            self.profiles.invalidate()

    def _domain(self) -> Domain:
        if self.representation == "taxonomy":
            return "union"
        # Union-domain cosine over implicit vectors reduces to the
        # normalized co-rating count; Pearson keeps the classic
        # co-rated-items convention.
        return "union" if self.similarity_measure == "cosine" else "intersection"

    def peer_weights(self, agent: str) -> dict[str, float]:
        """Top-k most similar peers with positive similarity.

        This is the all-pairs hot path: with ``engine="auto"`` the whole
        community is scored in one kernel call against the cached
        :class:`~repro.perf.matrix.ProfileMatrix`, with inverted-index
        pruning of zero-overlap candidates where that is exact.
        """
        assert self.similarity_measure is not None
        domain = self._domain()
        own = self._profile(agent)
        if engine_path(self.engine) == "numpy":
            from ..perf.kernels import community_scores

            matrix = self._matrix()
            values = community_scores(
                own, matrix, measure=self.similarity_measure, domain=domain
            )
            scored = [
                (peer, float(value))
                for peer, value in zip(matrix.ids, values)
                if peer != agent and value > 0.0
            ]
        else:
            func = _similarity_function(self.similarity_measure)
            scored = []
            for peer in self.dataset.agents:
                if peer == agent:
                    continue
                value = func(own, self._profile(peer), domain)
                if value > 0.0:
                    scored.append((peer, value))
        # Heap-select the k best instead of sorting every positive peer.
        ranked = heapq.nsmallest(
            self.neighbors, scored, key=lambda kv: (-kv[1], kv[0])
        )
        return dict(ranked)

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        weights = self.peer_weights(agent)
        exclude = set(self.dataset.ratings_of(agent))
        return _vote(self.dataset, weights, exclude, limit)


@dataclass
class TrustOnlyRecommender(Recommender):
    """Trust ranks as voting weights, no similarity computation at all."""

    dataset: Dataset
    graph: TrustGraph
    formation: NeighborhoodFormation = field(default_factory=NeighborhoodFormation)

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        hood = self.formation.form(self.graph, agent)
        exclude = set(self.dataset.ratings_of(agent))
        return _vote(self.dataset, hood.normalized, exclude, limit)


@dataclass
class ContentBasedExplorer(Recommender):
    """§3.4's exploratory scheme: recommend from *untouched* categories.

    "One might propose agent a_i products from categories that a_i has
    left untouched until present … incentive for trying new product groups
    becomes created."  Peers vote as in the main pipeline, but only
    products whose descriptors are all outside the principal's profile
    support survive the filter.
    """

    inner: SemanticWebRecommender

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        weights = self.inner.peer_weights(agent)
        exclude = set(self.inner.dataset.ratings_of(agent))
        touched = set(self.inner.profiles.profile(agent))
        # Filter to untouched-category products *before* ranking: the
        # freshness test commutes with ranking, so this returns exactly
        # what ranking the full catalogue and filtering afterwards would,
        # without materializing (or sorting) the whole vote ranking.
        scores, supporters = _vote_scores(self.inner.dataset, weights, exclude)
        products = self.inner.dataset.products
        fresh_scores: dict[str, float] = {}
        for identifier, score in scores.items():
            product = products.get(identifier)
            if product is None or not product.descriptors:
                continue
            if product.descriptors.isdisjoint(touched):
                fresh_scores[identifier] = score
        return _rank_votes(fresh_scores, supporters, limit)


@dataclass
class RandomRecommender(Recommender):
    """Uniformly random unrated products — the floor every method must beat."""

    dataset: Dataset
    seed: int = 0

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        exclude = set(self.dataset.ratings_of(agent))
        pool = sorted(p for p in self.dataset.products if p not in exclude)
        # Seeding with a string is deterministic across processes (unlike
        # hash() of a str, which PYTHONHASHSEED randomizes).
        rng = random.Random(f"{self.seed}:{agent}")
        rng.shuffle(pool)
        return [Recommendation(product=p, score=0.0) for p in pool[:limit]]


@dataclass
class FallbackRecommender(Recommender):
    """Cold-start combinator: try *primary*, fall back when it is short.

    New agents have no trust statements and often no ratings, so the
    trust-aware pipeline legitimately returns nothing for them (§3.2's
    subjectivity cuts both ways).  A deployment still has to answer; the
    standard answer is a non-personalized fallback.  The combinator fills
    the remainder of the list from *fallback*, skipping duplicates, and
    marks nothing — callers can distinguish provenance via supporters
    (fallback items from :class:`PopularityRecommender`/
    :class:`RandomRecommender` carry no supporters).
    """

    primary: Recommender
    fallback: Recommender

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        items = list(self.primary.recommend(agent, limit=limit))
        if len(items) >= limit:
            return items[:limit]
        have = {item.product for item in items}
        # A single fetch of limit + len(have) can under-fill when the
        # fallback's list overlaps `have` more than len(have) times (e.g.
        # a merging fallback that emits duplicate products).  Re-fetch
        # with a doubled limit until the list fills or the fallback is
        # exhausted; deterministic fallbacks return prefix-consistent
        # lists, so `have` dedups across fetches.
        fetch = limit + len(have)
        while len(items) < limit:
            batch = self.fallback.recommend(agent, limit=fetch)
            for item in batch:
                if item.product not in have:
                    items.append(item)
                    have.add(item.product)
                    if len(items) >= limit:
                        break
            if len(batch) < fetch:
                break  # the fallback has nothing more to offer
            fetch *= 2
        return items


@dataclass
class PopularityRecommender(Recommender):
    """Most-rated products first — the non-personalized reference."""

    dataset: Dataset

    def recommend(self, agent: str, limit: int = 10) -> list[Recommendation]:
        counts: dict[str, int] = {}
        for rating in self.dataset.iter_ratings():
            if rating.is_positive and rating.agent != agent:
                counts[rating.product] = counts.get(rating.product, 0) + 1
        exclude = set(self.dataset.ratings_of(agent))
        ranked = sorted(
            ((p, c) for p, c in counts.items() if p not in exclude),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return [
            Recommendation(product=p, score=float(c)) for p, c in ranked[:limit]
        ]
