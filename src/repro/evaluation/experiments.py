"""The EX1–EX11 experiment suite (see DESIGN.md §5).

The paper prints no numeric tables — its single worked artifact is
Example 1 — so each experiment here operationalizes one of its claims as
a measurable table.  Every function is deterministic given its seed,
returns a :class:`~repro.evaluation.protocol.Table`, and is listed in
:mod:`repro.evaluation.registry`, which ``repro experiment`` and
``scripts/generate_experiments_md.py`` read; assertions on each table's
shape live under ``tests/``.

All experiments accept an optional pre-generated community so callers can
share the (comparatively expensive) generation step; defaults are sized
to finish in seconds.
"""

from __future__ import annotations

import random

from ..core.models import Dataset
from ..core.neighborhood import NeighborhoodFormation
from ..core.profiles import (
    Profile,
    TaxonomyProfileBuilder,
    descriptor_score_path,
    flat_category_profile,
    product_profile,
)
from ..core.recommender import (
    PopularityRecommender,
    ProfileStore,
    PureCFRecommender,
    RandomRecommender,
    Recommender,
    SemanticWebRecommender,
    TrustOnlyRecommender,
)
from ..core.similarity import pearson, profile_overlap
from ..core.synthesis import BordaCount, LinearBlend, Multiplicative, TrustFilter
from ..core.taxonomy import Taxonomy, figure1_fragment
from ..datasets.amazon import book_taxonomy_config, dvd_taxonomy_config
from ..datasets.generators import CommunityConfig, SyntheticCommunity, generate_community
from ..obs import Stopwatch, get_tracer
from ..trust.advogato import Advogato
from ..trust.appleseed import Appleseed
from ..trust.engine import rank_many
from ..trust.graph import TrustGraph
from ..trust.scalar import multiplicative_path_trust, scalar_neighborhood
from .attacks import inject_profile_copy_attack, inject_sybil_region
from .metrics import mean, standard_error
from .protocol import Table, evaluate_recommender, holdout_split

__all__ = [
    "default_community",
    "run_ex01_example1",
    "run_ex02_trust_similarity",
    "run_ex03_appleseed_convergence",
    "run_ex04_attack_resistance",
    "run_ex05_profile_overlap",
    "run_ex06_recommendation_quality",
    "run_ex07_manipulation",
    "run_ex08_scalability",
    "run_ex09_taxonomy_structure",
    "run_ex10_synthesis",
    "run_ex11_crawler",
]

#: Paper-printed Example 1 values (for side-by-side display).
PAPER_EXAMPLE1 = {
    "Algebra": 29.087,
    "Pure": 14.543,
    "Mathematics": 4.848,
    "Science": 1.212,
    "Books": 0.303,
}


def default_community(
    seed: int = 42,
    n_agents: int = 400,
    n_products: int = 800,
) -> SyntheticCommunity:
    """The shared default community for the experiment suite."""
    config = CommunityConfig(
        n_agents=n_agents,
        n_products=n_products,
        n_clusters=8,
        seed=seed,
        taxonomy=book_taxonomy_config(target_topics=800, seed=seed),
    )
    with get_tracer().span(
        "community.generate", agents=n_agents, products=n_products, seed=seed
    ):
        return generate_community(config)


# ---------------------------------------------------------------------------
# EX1 — Figure 1 / Example 1: topic score assignment
# ---------------------------------------------------------------------------


def run_ex01_example1() -> Table:
    """Reproduce Example 1's score assignment on the Figure 1 fragment."""
    taxonomy = figure1_fragment()
    # s = 1000, 4 books, Matrix Analysis carries 5 descriptors:
    budget = 1000.0 / (4 * 5)
    scores = descriptor_score_path(taxonomy, "Algebra", budget)
    table = Table(
        title="EX1 — Example 1 topic score assignment (s=1000, 4 books, 5 descriptors)",
        headers=["topic", "paper", "reproduced", "abs diff"],
    )
    for topic in ("Algebra", "Pure", "Mathematics", "Science", "Books"):
        reproduced = scores[topic]
        paper = PAPER_EXAMPLE1[topic]
        table.add_row(topic, f"{paper:.3f}", f"{reproduced:.3f}", f"{abs(reproduced - paper):.4f}")
    table.add_note(
        "per-descriptor budget s/(4*5) = 50; reproduced values are the exact "
        "Eq. 3 solution; the paper's figures differ only in the final digit "
        "(rounding)."
    )
    table.add_note(f"path total re-sums to budget: {sum(scores.values()):.6f} = 50")
    return table


# ---------------------------------------------------------------------------
# EX2 — trust and interest profiles correlate
# ---------------------------------------------------------------------------


def run_ex02_trust_similarity(
    community: SyntheticCommunity | None = None,
    n_samples: int = 400,
    seed: int = 7,
) -> Table:
    """Mean profile similarity of trusted pairs vs 2-hop pairs vs random.

    Besides the raw statement classes, a fourth class correlates the
    *metric-formed* neighborhoods the §3.2 pipeline actually uses: each
    sampled source paired with its top-ranked Appleseed peer, computed
    as one :func:`~repro.trust.engine.rank_many` sweep over the packed
    trust matrix.
    """
    community = community or default_community()
    dataset = community.dataset
    rng = random.Random(seed)
    store = ProfileStore(dataset, TaxonomyProfileBuilder(community.taxonomy))
    graph = TrustGraph.from_dataset(dataset)
    agents = sorted(dataset.agents)

    direct_pairs = [
        (s.source, s.target) for s in dataset.iter_trust() if s.value > 0
    ]
    rng.shuffle(direct_pairs)
    direct_pairs = direct_pairs[:n_samples]

    two_hop_pairs: list[tuple[str, str]] = []
    attempts = 0
    while len(two_hop_pairs) < n_samples and attempts < n_samples * 40:
        attempts += 1
        source = agents[rng.randrange(len(agents))]
        mids = list(graph.positive_successors(source))
        if not mids:
            continue
        mid = mids[rng.randrange(len(mids))]
        far = list(graph.positive_successors(mid))
        candidates = [
            f for f in far if f != source and graph.weight(source, f) is None
        ]
        if candidates:
            two_hop_pairs.append((source, candidates[rng.randrange(len(candidates))]))

    random_pairs: list[tuple[str, str]] = []
    while len(random_pairs) < n_samples:
        a = agents[rng.randrange(len(agents))]
        b = agents[rng.randrange(len(agents))]
        if a != b:
            random_pairs.append((a, b))

    # Appleseed-formed pairs: one multi-source sweep over the shared
    # packed matrix; capped so the python fallback stays test-sized.
    sweep_sources = sorted(
        {agents[rng.randrange(len(agents))] for _ in range(min(n_samples, 60))}
    )
    neighborhood_pairs = [
        (result.source, result.top(1)[0][0])
        for result in rank_many(graph, sweep_sources)
        if result.ranks
    ]

    from ..core.similarity import cosine

    table = Table(
        title="EX2 — trust/similarity correlation (taxonomy profiles)",
        headers=["pair class", "pairs", "pearson", "pearson se", "cosine"],
    )
    for label, pairs in (
        ("direct trust (1 hop)", direct_pairs),
        ("appleseed top peer", neighborhood_pairs),
        ("2-hop trust", two_hop_pairs),
        ("random", random_pairs),
    ):
        pearsons = [pearson(store.profile(a), store.profile(b)) for a, b in pairs]
        cosines = [cosine(store.profile(a), store.profile(b)) for a, b in pairs]
        table.add_row(
            label,
            len(pairs),
            f"{mean(pearsons):.4f}",
            f"{standard_error(pearsons):.4f}",
            f"{mean(cosines):.4f}",
        )
    table.add_note(
        "paper claim (§3.2, ref [5]): trusted peers are more similar than "
        "random peers, with attenuation over trust distance.  Union-domain "
        "Pearson over sparse non-negative profiles is negatively offset; "
        "the *ordering* is the reproduced result."
    )
    return table


# ---------------------------------------------------------------------------
# EX3 — Appleseed convergence and neighborhood size
# ---------------------------------------------------------------------------


def run_ex03_appleseed_convergence(
    community: SyntheticCommunity | None = None,
    n_sources: int = 10,
    seed: int = 3,
) -> Table:
    """Iterations and neighborhood size across d, T_c and injection.

    Each ``(d, T_c, injection)`` configuration runs as one
    :func:`~repro.trust.engine.rank_many` sweep.
    """
    community = community or default_community()
    graph = TrustGraph.from_dataset(community.dataset)
    rng = random.Random(seed)
    agents = sorted(community.dataset.agents)
    sources = [agents[rng.randrange(len(agents))] for _ in range(n_sources)]

    table = Table(
        title="EX3 — Appleseed convergence (mean over sources)",
        headers=["d", "T_c", "injection", "iterations", "ranked>0.1", "top rank"],
    )
    for d in (0.5, 0.65, 0.85, 0.95):
        for threshold in (0.1, 0.01):
            for injection in (200.0,):
                iterations: list[float] = []
                sizes: list[float] = []
                peaks: list[float] = []
                metric = Appleseed(
                    spreading_factor=d, convergence_threshold=threshold
                )
                with get_tracer().span(
                    "ex03.config", d=d, T_c=threshold, injection=injection
                ) as span:
                    for result in rank_many(
                        graph, sources, metric=metric, injection=injection
                    ):
                        iterations.append(result.iterations)
                        sizes.append(len(result.neighborhood(0.1)))
                        peaks.append(max(result.ranks.values(), default=0.0))
                    span.set("sources", len(sources))
                    span.set("total_iterations", int(sum(iterations)))
                table.add_row(
                    d,
                    threshold,
                    int(injection),
                    f"{mean(iterations):.1f}",
                    f"{mean(sizes):.1f}",
                    f"{mean(peaks):.2f}",
                )
    table.add_note(
        "expected shape: higher d and lower T_c -> more iterations and larger "
        "neighborhoods; rank mass concentrates near the source for low d."
    )
    return table


# ---------------------------------------------------------------------------
# EX4 — attack resistance: Appleseed vs Advogato vs scalar path metric
# ---------------------------------------------------------------------------


def run_ex04_attack_resistance(
    community: SyntheticCommunity | None = None,
    n_sybils: int = 50,
    bridge_counts: tuple[int, ...] = (0, 1, 2, 5, 10, 20),
    top_k: int = 50,
    seed: int = 11,
) -> Table:
    """Fraction of sybils admitted into the neighborhood vs #attack edges."""
    community = community or default_community()
    dataset = community.dataset
    agents = sorted(dataset.agents)
    source = agents[0]

    from ..trust.pagerank import PersonalizedPageRank

    table = Table(
        title=f"EX4 — sybil admission ({n_sybils} sybils, top-{top_k} / accepted set)",
        headers=[
            "bridges",
            "appleseed sybils@topK",
            "pagerank sybils@topK",
            "advogato sybils/accepted",
            "scalar-path sybils/admitted",
        ],
    )
    for n_bridges in bridge_counts:
        region = inject_sybil_region(
            dataset, n_sybils=n_sybils, n_bridges=n_bridges, seed=seed
        )
        graph = TrustGraph.from_dataset(region.dataset)

        apple = Appleseed().compute(graph, source)
        top = [agent for agent, _ in apple.top(top_k)]
        apple_frac = sum(1 for a in top if a in region.sybils) / max(len(top), 1)

        ppr = PersonalizedPageRank().compute(graph, source)
        ppr_top = [agent for agent, _ in ppr.top(top_k)]
        ppr_frac = sum(1 for a in ppr_top if a in region.sybils) / max(len(ppr_top), 1)

        advogato = Advogato(target_size=top_k).compute(graph, source)
        accepted = advogato.accepted - {source}
        adv_frac = (
            sum(1 for a in accepted if a in region.sybils) / len(accepted)
            if accepted
            else 0.0
        )

        scalar = multiplicative_path_trust(graph, source, max_depth=6)
        admitted = scalar_neighborhood(scalar, threshold=0.2)
        scalar_frac = (
            sum(1 for a in admitted if a in region.sybils) / len(admitted)
            if admitted
            else 0.0
        )
        table.add_row(
            n_bridges,
            f"{apple_frac:.3f}",
            f"{ppr_frac:.3f}",
            f"{adv_frac:.3f} ({len(accepted)})",
            f"{scalar_frac:.3f} ({len(admitted)})",
        )
    table.add_note(
        "expected shape: with 0 bridges no metric admits sybils. As bridges "
        "grow, the scalar path metric, which no cut bounds, admits sybils "
        "first and the largest share (most of the sybil region at the "
        "largest count); Advogato admits none, and Appleseed and PageRank "
        "admit sybils only at the largest count."
    )
    return table


# ---------------------------------------------------------------------------
# EX5 — profile overlap: product vs flat category vs taxonomy vectors
# ---------------------------------------------------------------------------


def run_ex05_profile_overlap(
    community: SyntheticCommunity | None = None,
    n_pairs: int = 500,
    seed: int = 5,
) -> Table:
    """Fraction of agent pairs with any overlap, per representation."""
    community = community or default_community()
    dataset = community.dataset
    taxonomy = community.taxonomy
    rng = random.Random(seed)
    agents = sorted(dataset.agents)

    builder = TaxonomyProfileBuilder(taxonomy)
    taxonomy_profiles: dict[str, Profile] = {}
    flat_profiles: dict[str, Profile] = {}
    product_profiles: dict[str, Profile] = {}
    for agent in agents:
        ratings = dataset.ratings_of(agent)
        taxonomy_profiles[agent] = builder.build(ratings, dataset.products)
        flat_profiles[agent] = flat_category_profile(
            ratings, dataset.products, known_topics=taxonomy
        )
        product_profiles[agent] = product_profile(ratings)

    pairs = []
    while len(pairs) < n_pairs:
        a = agents[rng.randrange(len(agents))]
        b = agents[rng.randrange(len(agents))]
        if a != b:
            pairs.append((a, b))

    table = Table(
        title="EX5 — profile overlap across representations",
        headers=[
            "representation",
            "pairs w/ overlap",
            "mean jaccard",
            "mean support",
        ],
    )
    for label, profiles in (
        ("product vectors", product_profiles),
        ("flat categories", flat_profiles),
        ("taxonomy (Eq. 3)", taxonomy_profiles),
    ):
        overlaps = [profile_overlap(profiles[a], profiles[b]) for a, b in pairs]
        nonzero = sum(1 for o in overlaps if o > 0) / len(overlaps)
        support = mean([float(len(p)) for p in profiles.values()])
        table.add_row(label, f"{nonzero:.3f}", f"{mean(overlaps):.3f}", f"{support:.1f}")
    table.add_note(
        "paper claim (§2/§3.3): raw product vectors barely overlap; taxonomy "
        "propagation makes similarity meaningful even with zero co-rated items."
    )
    return table


# ---------------------------------------------------------------------------
# EX6 — recommendation quality across methods
# ---------------------------------------------------------------------------


def _build_methods(
    train: Dataset, taxonomy: Taxonomy
) -> list[tuple[str, Recommender]]:
    """All competing recommenders over one training dataset."""
    store = ProfileStore(train, TaxonomyProfileBuilder(taxonomy))
    graph = TrustGraph.from_dataset(train)
    hybrid = SemanticWebRecommender(
        dataset=train,
        graph=graph,
        profiles=store,
        formation=NeighborhoodFormation(),
        synthesis=LinearBlend(gamma=0.5),
    )
    return [
        ("hybrid (trust+taxonomy)", hybrid),
        (
            "pure CF (taxonomy)",
            PureCFRecommender(dataset=train, profiles=store, representation="taxonomy"),
        ),
        (
            "pure CF (product)",
            PureCFRecommender(dataset=train, representation="product"),
        ),
        (
            "trust only",
            TrustOnlyRecommender(dataset=train, graph=graph),
        ),
        ("popularity", PopularityRecommender(dataset=train)),
        ("random", RandomRecommender(dataset=train, seed=1)),
    ]


def run_ex06_recommendation_quality(
    community: SyntheticCommunity | None = None,
    top_n: int = 10,
    per_user: int = 5,
    max_users: int = 40,
    seed: int = 13,
) -> Table:
    """Leave-``per_user``-out precision/recall/F1@N across methods."""
    community = community or default_community()
    split = holdout_split(
        community.dataset,
        per_user=per_user,
        min_ratings=per_user * 2 + 2,
        max_users=max_users,
        seed=seed,
    )
    table = Table(
        title=f"EX6 — recommendation quality (top-{top_n}, leave-{per_user}-out)",
        headers=["method", "users", "precision", "recall", "F1", "hit-rate"],
    )
    for name, recommender in _build_methods(split.train, community.taxonomy):
        report = evaluate_recommender(name, recommender, split, top_n=top_n)
        table.add_row(*report.as_row())
    table.add_note(
        "expected shape: personalized methods beat popularity and random; "
        "the hybrid is competitive with pure CF while using bounded "
        "neighborhoods only."
    )
    return table


# ---------------------------------------------------------------------------
# EX7 — robustness to profile-copy manipulation
# ---------------------------------------------------------------------------


def run_ex07_manipulation(
    community: SyntheticCommunity | None = None,
    sybil_counts: tuple[int, ...] = (5, 25, 50),
    n_victims: int = 8,
    top_n: int = 10,
    seed: int = 17,
) -> Table:
    """Attacker-item contamination of top-N lists, with/without trust."""
    community = community or default_community()
    dataset = community.dataset
    taxonomy = community.taxonomy
    rng = random.Random(seed)
    candidates = sorted(
        agent
        for agent in dataset.agents
        if len([v for v in dataset.ratings_of(agent).values() if v > 0]) >= 8
    )
    rng.shuffle(candidates)
    victims = candidates[:n_victims]

    table = Table(
        title=f"EX7 — profile-copy attack contamination (top-{top_n}, mean over victims)",
        headers=["sybils", "hybrid (trust-filtered)", "pure CF (trust-blind)"],
    )
    for n_sybils in sybil_counts:
        hybrid_rates: list[float] = []
        cf_rates: list[float] = []
        for victim in victims:
            attack = inject_profile_copy_attack(
                dataset, victim=victim, n_sybils=n_sybils, n_pushed=3, seed=seed
            )
            train = attack.dataset
            store = ProfileStore(train, TaxonomyProfileBuilder(taxonomy))
            hybrid = SemanticWebRecommender(
                dataset=train,
                graph=TrustGraph.from_dataset(train),
                profiles=store,
            )
            cf = PureCFRecommender(
                dataset=train, profiles=store, representation="taxonomy"
            )
            for recommender, bucket in ((hybrid, hybrid_rates), (cf, cf_rates)):
                recs = [r.product for r in recommender.recommend(victim, limit=top_n)]
                contamination = (
                    sum(1 for p in recs if p in attack.pushed_products) / top_n
                )
                bucket.append(contamination)
        table.add_row(n_sybils, f"{mean(hybrid_rates):.3f}", f"{mean(cf_rates):.3f}")
    table.add_note(
        "paper claim (§3.2): CF is 'highly susceptive to manipulation' by "
        "profile copying; trust filtering shields the neighborhood because "
        "sybils receive no trust edges from honest agents."
    )
    return table


# ---------------------------------------------------------------------------
# EX8 — scalability: bounded neighborhoods vs global CF
# ---------------------------------------------------------------------------


def run_ex08_scalability(
    sizes: tuple[int, ...] = (200, 400, 800),
    queries: int = 5,
    seed: int = 19,
) -> Table:
    """Wall-clock per recommendation as the community grows.

    Pins ``engine="python"``: this table measures the *algorithmic*
    claim of §2 (global CF scales with |A|, the trust-bounded pipeline
    with the neighborhood), so the vectorized engine — which flattens
    the constant factor — would obscure exactly the shape under test.
    EX19 measures the engine speedup itself.
    """
    table = Table(
        title="EX8 — per-recommendation latency vs community size",
        headers=["agents", "hybrid ms", "global CF ms", "ratio CF/hybrid"],
    )
    for size in sizes:
        config = CommunityConfig(
            n_agents=size,
            n_products=size * 2,
            n_clusters=8,
            seed=seed,
            taxonomy=book_taxonomy_config(target_topics=600, seed=seed),
        )
        community = generate_community(config)
        dataset = community.dataset
        store = ProfileStore(dataset, TaxonomyProfileBuilder(community.taxonomy))
        graph = TrustGraph.from_dataset(dataset)
        hybrid = SemanticWebRecommender(
            dataset=dataset,
            graph=graph,
            profiles=store,
            formation=NeighborhoodFormation(
                metric=Appleseed(max_depth=4, engine="python"), max_peers=30
            ),
            engine="python",
        )
        cf = PureCFRecommender(dataset=dataset, profiles=store, engine="python")
        agents = sorted(dataset.agents)[:queries]
        for agent in agents:  # warm profile caches outside the timed region
            store.profile(agent)

        def time_per_query(recommender: Recommender) -> float:
            watch = Stopwatch()
            with watch:
                for agent in agents:
                    recommender.recommend(agent, limit=10)
            return watch.elapsed_ms / len(agents)

        hybrid_ms = time_per_query(hybrid)
        cf_ms = time_per_query(cf)
        table.add_row(
            size,
            f"{hybrid_ms:.1f}",
            f"{cf_ms:.1f}",
            f"{cf_ms / hybrid_ms:.2f}" if hybrid_ms > 0 else "inf",
        )
    table.add_note(
        "expected shape (§2): global CF cost grows with community size; the "
        "trust-bounded pipeline depends on neighborhood size, not |A|."
    )
    return table


# ---------------------------------------------------------------------------
# EX9 — taxonomy structure impact (books vs DVDs)
# ---------------------------------------------------------------------------


def run_ex09_taxonomy_structure(
    n_agents: int = 300,
    n_products: int = 600,
    seed: int = 23,
) -> Table:
    """EX5/EX6 summary metrics under deep-narrow vs broad-shallow taxonomies."""
    table = Table(
        title="EX9 — taxonomy structure impact (book-like vs DVD-like)",
        headers=[
            "taxonomy",
            "topics",
            "max depth",
            "mean branching",
            "pairs w/ overlap",
            "hybrid F1@10",
        ],
    )
    for label, tax_config in (
        ("book-like (deep)", book_taxonomy_config(target_topics=800, seed=seed)),
        ("dvd-like (broad)", dvd_taxonomy_config(target_topics=800, seed=seed)),
    ):
        config = CommunityConfig(
            n_agents=n_agents,
            n_products=n_products,
            n_clusters=8,
            seed=seed,
            taxonomy=tax_config,
        )
        community = generate_community(config)
        stats = community.taxonomy.branching_stats()

        overlap_table = run_ex05_profile_overlap(community, n_pairs=300, seed=seed)
        taxonomy_row = overlap_table.rows[-1]  # taxonomy representation row
        split = holdout_split(
            community.dataset, per_user=5, min_ratings=12, max_users=25, seed=seed
        )
        store = ProfileStore(split.train, TaxonomyProfileBuilder(community.taxonomy))
        hybrid = SemanticWebRecommender(
            dataset=split.train,
            graph=TrustGraph.from_dataset(split.train),
            profiles=store,
        )
        report = evaluate_recommender("hybrid", hybrid, split, top_n=10)
        table.add_row(
            label,
            stats["topics"],
            stats["max_depth"],
            f"{stats['mean_branching']:.1f}",
            taxonomy_row[1],
            f"{report.f1:.4f}",
        )
    table.add_note(
        "paper §6: 'we would like to better understand the impact that "
        "taxonomy structure may have upon profile generation and similarity "
        "computation' — this table is that study at small scale."
    )
    return table


# ---------------------------------------------------------------------------
# EX10 — rank synthesization strategies
# ---------------------------------------------------------------------------


def run_ex10_synthesis(
    community: SyntheticCommunity | None = None,
    top_n: int = 10,
    max_users: int = 40,
    seed: int = 29,
) -> Table:
    """EX6 metrics per §3.4 synthesis strategy."""
    community = community or default_community()
    split = holdout_split(
        community.dataset, per_user=5, min_ratings=12, max_users=max_users, seed=seed
    )
    train = split.train
    store = ProfileStore(train, TaxonomyProfileBuilder(community.taxonomy))
    graph = TrustGraph.from_dataset(train)

    strategies = [
        ("linear γ=0.25", LinearBlend(gamma=0.25)),
        ("linear γ=0.50", LinearBlend(gamma=0.5)),
        ("linear γ=0.75", LinearBlend(gamma=0.75)),
        ("multiplicative", Multiplicative()),
        ("borda", BordaCount()),
        ("trust filter", TrustFilter()),
    ]
    table = Table(
        title=f"EX10 — rank synthesis strategies (top-{top_n})",
        headers=["strategy", "users", "precision", "recall", "F1", "hit-rate"],
    )
    for name, strategy in strategies:
        recommender = SemanticWebRecommender(
            dataset=train,
            graph=graph,
            profiles=store,
            synthesis=strategy,
        )
        report = evaluate_recommender(name, recommender, split, top_n=top_n)
        table.add_row(*report.as_row())
    table.add_note(
        "§3.4 leaves synthesis as future work; this table compares the "
        "alternatives the paper proposes."
    )
    return table


# ---------------------------------------------------------------------------
# EX11 — crawler coverage and staleness
# ---------------------------------------------------------------------------


def run_ex11_crawler(
    community: SyntheticCommunity | None = None,
    budgets: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0),
    top_n: int = 10,
    seed: int = 31,
) -> Table:
    """Replica coverage and recommendation agreement vs crawl budget."""
    from ..web.crawler import Crawler, publish_community
    from ..web.network import SimulatedWeb

    community = community or default_community(n_agents=200, n_products=400)
    dataset = community.dataset
    taxonomy = community.taxonomy
    web = SimulatedWeb()
    taxonomy_uri, catalog_uri = publish_community(web, dataset, taxonomy)
    principal = sorted(dataset.agents)[0]

    # Reference recommendations from the complete data.
    full_store = ProfileStore(dataset, TaxonomyProfileBuilder(taxonomy))
    reference = SemanticWebRecommender(
        dataset=dataset,
        graph=TrustGraph.from_dataset(dataset),
        profiles=full_store,
    )
    reference_list = [r.product for r in reference.recommend(principal, limit=top_n)]

    table = Table(
        title=f"EX11 — crawl budget vs replica coverage and rec agreement (top-{top_n})",
        headers=[
            "budget (fraction)",
            "fetches",
            "agents replicated",
            "rec overlap (BFS)",
            "rec overlap (trust-first)",
        ],
    )
    n_agents = len(dataset.agents)

    def overlap_for(prioritize: bool, budget: int) -> tuple[int, int, str]:
        crawler = Crawler(web=web)
        crawler.fetch_global_documents(taxonomy_uri, catalog_uri)
        report = crawler.crawl(
            [principal], budget=budget, prioritize_by_trust=prioritize
        )
        partial, _ = crawler.store.assemble_dataset()
        partial_taxonomy = crawler.store.assemble_taxonomy()
        assert partial_taxonomy is not None
        if principal not in partial.agents or not reference_list:
            return report.fetched, len(partial.agents), "n/a"
        store = ProfileStore(partial, TaxonomyProfileBuilder(partial_taxonomy))
        recommender = SemanticWebRecommender(
            dataset=partial,
            graph=TrustGraph.from_dataset(partial),
            profiles=store,
        )
        recs = [r.product for r in recommender.recommend(principal, limit=top_n)]
        overlap = len(set(recs) & set(reference_list)) / len(reference_list)
        return report.fetched, len(partial.agents), f"{overlap:.2f}"

    for fraction in budgets:
        budget = max(1, int(n_agents * fraction))
        fetched, replicated, bfs_overlap = overlap_for(False, budget)
        _, _, prioritized_overlap = overlap_for(True, budget)
        table.add_row(fraction, fetched, replicated, bfs_overlap, prioritized_overlap)
    table.add_note(
        "expected shape: recommendation agreement with the full-knowledge "
        "reference rises with crawl budget and saturates well below 100% "
        "coverage — the trust neighborhood is local."
    )
    table.add_note(
        "measured insight: plain BFS tracks the Appleseed neighborhood "
        "better than path-trust-first ordering — Appleseed's backward "
        "edges make rank decay primarily with hop distance, which BFS "
        "matches, while best-first dives down high-trust chains that "
        "Appleseed has already attenuated."
    )
    return table
