"""Extended experiments: EX12–EX15.

These go beyond the paper's §3 core to cover its open questions and
deployment claims with the machinery this library adds:

* **EX12 — rating prediction MAE** (classic CF task on explicit-rating
  communities): trust-aware weights vs pure-CF weights vs global mean.
* **EX13 — stereotype generation** (§6 future work): do k-means
  stereotypes over taxonomy profiles recover the generator's planted
  interest clusters, and how does the cheap stereotype recommender
  compare?
* **EX14 — ablations** of the design decisions DESIGN.md marks ♦:
  Appleseed backward propagation, nonlinear edge normalization, Eq. 3
  propagation vs flat categories, uniform vs rating-weighted splits.
* **EX15 — weblog mining** (§4): publish ratings as weblog hyperlinks,
  mine them back, and verify the recovered dataset supports the same
  recommendations.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from ..core.models import Dataset, Product
from ..core.neighborhood import NeighborhoodFormation
from ..core.prediction import RatingPredictor
from ..core.profiles import Profile, TaxonomyProfileBuilder
from ..core.recommender import (
    ProfileStore,
    PureCFRecommender,
    SemanticWebRecommender,
)
from ..core.stereotypes import StereotypeRecommender, cluster_profiles
from ..datasets.amazon import book_taxonomy_config
from ..datasets.generators import CommunityConfig, SyntheticCommunity, generate_community
from ..trust.appleseed import Appleseed
from ..trust.engine import rank_many
from ..trust.graph import TrustGraph
from .metrics import mean
from .protocol import Table, evaluate_recommender, holdout_split

__all__ = [
    "explicit_community",
    "run_ex12_prediction",
    "run_ex13_stereotypes",
    "run_ex14_ablations",
    "run_ex15_weblog_mining",
    "run_ex16_diversification",
    "run_ex17_distrust",
]


def explicit_community(seed: int = 42, n_agents: int = 300) -> SyntheticCommunity:
    """A community with explicit graded ratings (for the MAE task)."""
    config = CommunityConfig(
        n_agents=n_agents,
        n_products=n_agents * 2,
        n_clusters=8,
        seed=seed,
        explicit_ratings=True,
        taxonomy=book_taxonomy_config(target_topics=600, seed=seed),
    )
    return generate_community(config)


# ---------------------------------------------------------------------------
# EX12 — rating prediction MAE
# ---------------------------------------------------------------------------


def _withhold_values(
    dataset: Dataset, per_user: int, min_ratings: int, max_users: int, seed: int
) -> tuple[Dataset, dict[str, dict[str, float]]]:
    """Withhold rating *values* (any sign) for the MAE protocol."""
    rng = random.Random(seed)
    by_agent: dict[str, list[str]] = {}
    for rating in dataset.iter_ratings():
        by_agent.setdefault(rating.agent, []).append(rating.product)
    qualifying = sorted(
        agent for agent, items in by_agent.items() if len(items) >= min_ratings
    )
    rng.shuffle(qualifying)
    qualifying = qualifying[:max_users]
    train = dataset.copy()
    held: dict[str, dict[str, float]] = {}
    for agent in qualifying:
        items = sorted(by_agent[agent])
        rng.shuffle(items)
        held[agent] = {}
        for product in items[:per_user]:
            held[agent][product] = train.remove_rating(agent, product).value
    return train, held


def run_ex12_prediction(
    community: SyntheticCommunity | None = None,
    per_user: int = 5,
    max_users: int = 40,
    seed: int = 37,
) -> Table:
    """MAE of predicted vs withheld explicit ratings, per weight source."""
    community = community or explicit_community()
    train, held = _withhold_values(
        community.dataset, per_user=per_user, min_ratings=12,
        max_users=max_users, seed=seed,
    )
    store = ProfileStore(train, TaxonomyProfileBuilder(community.taxonomy))
    graph = TrustGraph.from_dataset(train)
    hybrid = SemanticWebRecommender(dataset=train, graph=graph, profiles=store)
    pure = PureCFRecommender(dataset=train, profiles=store, neighbors=40)

    global_mean = mean([r.value for r in train.iter_ratings()])
    predictors = [
        ("hybrid weights", RatingPredictor(train, hybrid.peer_weights)),
        ("pure CF weights", RatingPredictor(train, pure.peer_weights)),
    ]

    table = Table(
        title=f"EX12 — rating prediction (leave-{per_user}-values-out)",
        headers=["predictor", "users", "MAE", "coverage"],
    )
    for name, predictor in predictors:
        errors: list[float] = []
        asked = 0
        answered = 0
        for agent, withheld in held.items():
            predictions = predictor.predict_many(agent, sorted(withheld))
            asked += len(withheld)
            answered += len(predictions)
            errors.extend(
                abs(predictions[p] - withheld[p]) for p in predictions
            )
        table.add_row(
            name,
            len(held),
            f"{mean(errors):.4f}" if errors else "n/a",
            f"{answered / asked:.3f}" if asked else "n/a",
        )
    baseline_errors = [
        abs(global_mean - value)
        for withheld in held.values()
        for value in withheld.values()
    ]
    table.add_row("global mean", len(held), f"{mean(baseline_errors):.4f}", "1.000")
    table.add_note(
        "expected shape: both personalized predictors beat the global-mean "
        "baseline; the hybrid's uncapped Appleseed neighborhood covers more "
        "pairs than pure CF's 40 nearest neighbors."
    )
    return table


# ---------------------------------------------------------------------------
# EX13 — stereotype generation (§6)
# ---------------------------------------------------------------------------


def _cluster_agreement(
    predicted: dict[str, int], planted: dict[str, int]
) -> float:
    """Mean per-cluster purity of *predicted* against *planted* labels."""
    groups: dict[int, list[str]] = {}
    for agent, label in predicted.items():
        groups.setdefault(label, []).append(agent)
    total = 0
    weighted_purity = 0.0
    for members in groups.values():
        counts: dict[int, int] = {}
        for agent in members:
            truth = planted[agent]
            counts[truth] = counts.get(truth, 0) + 1
        weighted_purity += max(counts.values())
        total += len(members)
    return weighted_purity / total if total else 0.0


def run_ex13_stereotypes(
    community: SyntheticCommunity | None = None,
    top_n: int = 10,
    max_users: int = 30,
    seed: int = 41,
) -> Table:
    """Stereotype recovery (purity vs planted clusters) and rec quality."""
    from .experiments import default_community

    community = community or default_community()
    dataset = community.dataset
    store = ProfileStore(dataset, TaxonomyProfileBuilder(community.taxonomy))
    profiles = {agent: store.profile(agent) for agent in dataset.agents}
    k = community.config.n_clusters

    model = cluster_profiles(profiles, k=k, seed=seed)
    purity = _cluster_agreement(model.membership(), community.membership)
    chance = 1.0 / k

    split = holdout_split(dataset, per_user=5, min_ratings=12, max_users=max_users, seed=seed)
    train_store = ProfileStore(split.train, TaxonomyProfileBuilder(community.taxonomy))
    stereotype_rec = StereotypeRecommender.fit(split.train, train_store, k=k, seed=seed)
    hybrid = SemanticWebRecommender(
        dataset=split.train,
        graph=TrustGraph.from_dataset(split.train),
        profiles=train_store,
    )
    table = Table(
        title=f"EX13 — stereotype generation (k={k})",
        headers=["measure", "value"],
    )
    table.add_row("k-means iterations", model.iterations)
    table.add_row("converged", model.converged)
    table.add_row("cluster purity vs planted", f"{purity:.3f}")
    table.add_row("chance purity", f"{chance:.3f}")
    for name, recommender in (
        ("stereotype rec F1@10", stereotype_rec),
        ("hybrid rec F1@10", hybrid),
    ):
        report = evaluate_recommender(name, recommender, split, top_n=top_n)
        table.add_row(name, f"{report.f1:.4f}")
    table.add_note(
        "§6: taxonomy profiles support 'automated stereotype generation'. "
        "expected shape: purity well above chance; the k-comparison "
        "stereotype recommender is a usable cheap approximation of the "
        "full pipeline."
    )
    return table


# ---------------------------------------------------------------------------
# EX14 — design-decision ablations
# ---------------------------------------------------------------------------


def run_ex14_ablations(
    community: SyntheticCommunity | None = None,
    max_users: int = 30,
    seed: int = 43,
) -> Table:
    """Ablate the ♦-marked design decisions of DESIGN.md §4."""
    from .experiments import default_community

    community = community or default_community()
    dataset = community.dataset
    taxonomy = community.taxonomy
    graph = TrustGraph.from_dataset(dataset)
    source = sorted(dataset.agents)[0]

    table = Table(
        title="EX14 — ablations of ♦ design decisions",
        headers=["ablation", "metric", "with", "without"],
    )

    # (a) Appleseed backward propagation: the virtual edges continuously
    # pull energy back toward the source, penalizing long chains — so the
    # rank-weighted mean hop distance of ranked peers must be smaller
    # with them than without.
    injected = 200.0
    with_back = Appleseed().compute(graph, source, injected)
    without_back = Appleseed(backward_propagation=False).compute(
        graph, source, injected
    )
    levels = graph.bfs_levels(source)

    def rank_weighted_distance(ranks: dict[str, float]) -> float:
        total = sum(ranks.values())
        if total <= 0:
            return 0.0
        return sum(r * levels.get(a, 0) for a, r in ranks.items()) / total

    table.add_row(
        "appleseed backward edges",
        "rank-weighted hop distance",
        f"{rank_weighted_distance(with_back.ranks):.3f}",
        f"{rank_weighted_distance(without_back.ranks):.3f}",
    )
    table.add_row(
        "appleseed backward edges",
        "rank mass / injected",
        f"{sum(with_back.ranks.values()) / injected:.3f}",
        f"{sum(without_back.ranks.values()) / injected:.3f}",
    )

    # (b) Nonlinear edge normalization: rank share of strong vs weak edges.
    nonlinear = Appleseed(normalization="nonlinear").compute(
        graph, source, injected
    )
    table.add_row(
        "nonlinear normalization",
        "top-10 rank share",
        f"{sum(r for _, r in nonlinear.top(10)) / max(sum(nonlinear.ranks.values()), 1e-9):.3f}",
        f"{sum(r for _, r in with_back.top(10)) / max(sum(with_back.ranks.values()), 1e-9):.3f}",
    )

    # (c) Eq. 3 propagation vs flat categories, measured on rec quality.
    split = holdout_split(dataset, per_user=5, min_ratings=12, max_users=max_users, seed=seed)
    train = split.train

    def hybrid_with(builder: TaxonomyProfileBuilder) -> SemanticWebRecommender:
        return SemanticWebRecommender(
            dataset=train,
            graph=TrustGraph.from_dataset(train),
            profiles=ProfileStore(train, builder),
            formation=NeighborhoodFormation(),
        )

    eq3 = evaluate_recommender(
        "eq3", hybrid_with(TaxonomyProfileBuilder(taxonomy)), split
    )
    # Flat ablation: propagate nothing by using a taxonomy-less builder
    # approximation — rating-weighted flat categories via similarity on
    # descriptor-only profiles is closest to Sollenborn/Funk.
    from ..core.profiles import flat_category_profile

    class _FlatBuilder(TaxonomyProfileBuilder):
        def build(
            self,
            ratings: Mapping[str, float],
            products: Mapping[str, Product],
        ) -> Profile:
            return flat_category_profile(ratings, products, known_topics=self.taxonomy)

    flat = evaluate_recommender("flat", hybrid_with(_FlatBuilder(taxonomy)), split)
    table.add_row("Eq.3 propagation", "F1@10", f"{eq3.f1:.4f}", f"{flat.f1:.4f}")

    # (d) Uniform vs rating-weighted product split (identical on implicit
    # data by construction; shown for protocol completeness).
    weighted = evaluate_recommender(
        "weighted",
        hybrid_with(TaxonomyProfileBuilder(taxonomy, product_weighting="rating")),
        split,
    )
    table.add_row(
        "uniform product split", "F1@10", f"{eq3.f1:.4f}", f"{weighted.f1:.4f}"
    )
    table.add_note(
        "expected shapes: backward edges pull rank toward the source "
        "(smaller rank-weighted hop distance; part of the mass is "
        "recaptured by the excluded source rank); nonlinear normalization "
        "concentrates rank on strong edges; Eq. 3's decisive advantage "
        "over flat categories is profile overlap (EX5) — top-N quality is "
        "comparable at this scale because the synthetic clusters are "
        "recoverable from leaf descriptors alone; uniform vs "
        "rating-weighted split is identical on implicit data by "
        "construction."
    )
    return table


# ---------------------------------------------------------------------------
# EX16 — topic diversification trade-off (§3.4)
# ---------------------------------------------------------------------------


def run_ex16_diversification(
    community: SyntheticCommunity | None = None,
    thetas: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 0.9),
    top_n: int = 10,
    max_users: int = 30,
    seed: int = 47,
) -> Table:
    """Accuracy vs intra-list similarity across diversification factors."""
    from ..core.diversify import TopicDiversifier
    from .experiments import default_community
    from .metrics import precision_at, recall_at

    community = community or default_community()
    taxonomy = community.taxonomy
    split = holdout_split(
        community.dataset, per_user=5, min_ratings=12, max_users=max_users, seed=seed
    )
    train = split.train
    store = ProfileStore(train, TaxonomyProfileBuilder(taxonomy))
    hybrid = SemanticWebRecommender(
        dataset=train,
        graph=TrustGraph.from_dataset(train),
        profiles=store,
    )
    # One candidate list per user, reranked under every theta.
    candidates = {
        agent: hybrid.recommend(agent, limit=top_n * 5)
        for agent in split.test_users
    }

    table = Table(
        title=f"EX16 — topic diversification (top-{top_n})",
        headers=["theta", "precision", "recall", "mean ILS"],
    )
    for theta in thetas:
        diversifier = TopicDiversifier(taxonomy, train.products, theta=theta)
        precisions: list[float] = []
        recalls: list[float] = []
        ils_values: list[float] = []
        for agent in split.test_users:
            reranked = diversifier.rerank(list(candidates[agent]), limit=top_n)
            items = [r.product for r in reranked]
            relevant = set(split.held_out[agent])
            precisions.append(precision_at(items, relevant))
            recalls.append(recall_at(items, relevant))
            ils_values.append(diversifier.ils(reranked))
        table.add_row(
            theta,
            f"{mean(precisions):.4f}",
            f"{mean(recalls):.4f}",
            f"{mean(ils_values):.4f}",
        )
    table.add_note(
        "§3.4: 'incentive for trying new product groups becomes created'. "
        "expected shape: intra-list similarity falls monotonically with "
        "theta while accuracy degrades only gradually — the published "
        "diversification trade-off curve."
    )
    return table


# ---------------------------------------------------------------------------
# EX17 — explicit distrust (§3.1's negative trust values)
# ---------------------------------------------------------------------------


def run_ex17_distrust(
    community: SyntheticCommunity | None = None,
    n_rogues: int = 10,
    accuser_fraction: float = 0.5,
    seed: int = 53,
) -> Table:
    """Effect of distrust statements on rogue agents' Appleseed rank.

    Plants ``n_rogues`` well-connected "rogue" agents (they *receive*
    normal positive trust — they fooled part of the community), then has
    a fraction of the community publish explicit distrust statements
    about them (§3.1's negative values).  Measures the rogues' mean
    Appleseed rank share and top-50 membership with distrust ignored vs
    one-step distrust discounting.
    """
    import random as random_module

    from ..core.models import Agent, TrustStatement
    from .experiments import default_community

    community = community or default_community()
    rng = random_module.Random(seed)
    dataset = community.dataset.copy()
    honest = sorted(community.dataset.agents)

    rogues = [f"http://rogue.example.org/r{i:03d}" for i in range(n_rogues)]
    for i, uri in enumerate(rogues):
        dataset.add_agent(Agent(uri=uri, name=f"Rogue {i}"))
        # Each rogue fooled several honest agents into trusting it.
        for _ in range(6):
            victim = honest[rng.randrange(len(honest))]
            dataset.add_trust(TrustStatement(source=victim, target=uri, value=0.8))
    # A fraction of the community has caught on and publishes distrust.
    accusers = rng.sample(honest, int(len(honest) * accuser_fraction))
    for accuser in accusers:
        for uri in rogues:
            if rng.random() < 0.4:
                dataset.add_trust(
                    TrustStatement(source=accuser, target=uri, value=-0.9)
                )

    graph = TrustGraph.from_dataset(dataset)
    sources = honest[:10]
    table = Table(
        title=f"EX17 — explicit distrust ({n_rogues} rogues, mean over sources)",
        headers=["distrust handling", "rogue rank share", "rogues in top-50"],
    )
    for label, metric in (
        ("ignored", Appleseed()),
        ("one-step discount", Appleseed(distrust_mode="one_step")),
    ):
        shares: list[float] = []
        admissions: list[float] = []
        for result in rank_many(graph, sources, metric=metric):
            total = sum(result.ranks.values())
            rogue_mass = sum(result.ranks.get(r, 0.0) for r in rogues)
            shares.append(rogue_mass / total if total else 0.0)
            top = {agent for agent, _ in result.top(50)}
            admissions.append(sum(1 for r in rogues if r in top))
        table.add_row(label, f"{mean(shares):.4f}", f"{mean(admissions):.1f}")
    table.add_note(
        "§3.1 allows negative trust values; §3.2 cites Appleseed's "
        "non-transitive distrust handling.  expected shape: one-step "
        "discounting strictly reduces the rogues' rank share and top-50 "
        "presence relative to ignoring distrust."
    )
    return table


# ---------------------------------------------------------------------------
# EX15 — weblog mining round trip (§4)
# ---------------------------------------------------------------------------


def run_ex15_weblog_mining(
    community: SyntheticCommunity | None = None,
    top_n: int = 10,
) -> Table:
    """Publish ratings as weblogs, mine them back, compare recommendations."""
    from ..web.network import SimulatedWeb
    from ..web.weblog import LinkMiner, publish_weblogs, weblog_uri
    from .experiments import default_community

    community = community or default_community(n_agents=200, n_products=400)
    dataset = community.dataset
    web = SimulatedWeb()
    publish_weblogs(web, dataset)

    # Mine every weblog back into a fresh dataset.
    mined = Dataset(
        agents=dict(dataset.agents), products=dict(dataset.products), trust=dataset.trust
    )
    miner = LinkMiner(known_products=frozenset(dataset.products))
    exact = 0
    for agent_uri in dataset.agents:
        document = web.fetch(weblog_uri(agent_uri)).body
        recovered = miner.mine(agent_uri, document)
        for rating in recovered:
            mined.add_rating(rating)
        if {(r.product, r.value) for r in recovered} == {
            (p, v) for p, v in dataset.ratings_of(agent_uri).items()
        }:
            exact += 1

    principal = sorted(dataset.agents)[0]
    taxonomy = community.taxonomy
    reference = SemanticWebRecommender.from_dataset(dataset, taxonomy)
    mined_rec = SemanticWebRecommender.from_dataset(mined, taxonomy)
    ref_list = [r.product for r in reference.recommend(principal, top_n)]
    mined_list = [r.product for r in mined_rec.recommend(principal, top_n)]
    overlap = (
        len(set(ref_list) & set(mined_list)) / len(ref_list) if ref_list else 0.0
    )

    table = Table(
        title="EX15 — weblog mining round trip",
        headers=["measure", "value"],
    )
    table.add_row("agents mined exactly", f"{exact}/{len(dataset.agents)}")
    table.add_row(
        "ratings recovered",
        f"{len(mined.ratings)}/{len(dataset.ratings)}",
    )
    table.add_row("unmapped links", len(miner.unmapped))
    table.add_row(f"rec overlap@{top_n} vs reference", f"{overlap:.2f}")
    table.add_note(
        "§4: hyperlinks to catalog product pages 'count as implicit votes'. "
        "expected shape: the weblog channel is lossless for implicit votes, "
        "so mined recommendations equal the reference."
    )
    return table
