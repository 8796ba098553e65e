"""EX20–EX23 — population-dynamics scenarios over evolving communities.

The EX1–EX19 suite scores frozen snapshots; these four experiments run
the :mod:`~repro.evaluation.dynamics` timelines and sweep one event
intensity each, scoring :class:`~repro.core.recommender
.SemanticWebRecommender` (hybrid trust + taxonomy) against
:class:`~repro.core.recommender.PureCFRecommender` per epoch:

* **EX20 churn** — members leave and join at rising rates; accuracy
  must degrade smoothly, not collapse (EX18's acceptance style).
* **EX21 cold start** — growing newcomer waves (Pitsilis & Knapskog's
  sparsity regime); established-user accuracy must hold while newcomer
  coverage is reported per method.
* **EX22 evolving sybil attack** — a ring accretes identities, forged
  profiles, and attack edges epoch over epoch (§2's "spoofing and
  identity forging"); Appleseed admission and pushed-product
  contamination must stay bounded by the bridge count.
* **EX23 interest drift** — cluster migration erodes the taxonomy
  homophily the similarity measure leans on.

Per-epoch hybrid-vs-CF comparisons feed
:func:`~repro.evaluation.significance.compare_epoch_series`
(bootstrap + permutation per epoch, Holm–Bonferroni across epochs), so
"trust degrades gracefully" is a tested statistical claim.  Everything
is deterministic given the seed, and per-user scoring is
:func:`~repro.evaluation.protocol.evaluate_recommender`'s own
:func:`~repro.evaluation.protocol.per_user_scores`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..core.models import Dataset
from ..core.neighborhood import NeighborhoodFormation
from ..core.profiles import TaxonomyProfileBuilder
from ..core.recommender import (
    ProfileStore,
    PureCFRecommender,
    Recommender,
    SemanticWebRecommender,
)
from ..core.taxonomy import Taxonomy
from ..datasets.generators import SyntheticCommunity
from ..obs import get_metrics, get_tracer
from ..trust.appleseed import Appleseed
from ..trust.graph import TrustGraph
from .dynamics import (
    AgentChurn,
    ColdStartWave,
    EpochSnapshot,
    InterestDrift,
    PopulationEvent,
    SybilRingGrowth,
    Timeline,
    TrustSpamCampaign,
)
from .experiments import default_community
from .metrics import mean
from .protocol import HoldoutSplit, Table, holdout_split, per_user_scores
from .significance import SeriesComparison, compare_epoch_series, derive_seed

__all__ = [
    "run_ex20_churn",
    "run_ex21_coldstart",
    "run_ex22_evolving_sybil",
    "run_ex23_drift",
    "smooth_degradation",
]


def smooth_degradation(values: Sequence[float], tolerance: float = 0.02) -> bool:
    """True when *values* never rise by more than *tolerance* per step.

    The EX18-style acceptance shape for an accuracy column swept over
    rising adversity: monotone decline within a noise tolerance.  (The
    check is on increases — genuine decline of any size is fine.)
    """
    return all(b <= a + tolerance for a, b in zip(values, values[1:]))


def _scenario_community(seed: int) -> SyntheticCommunity:
    """The default community for a scenario."""
    return default_community(seed=seed, n_agents=120, n_products=240)


def _build_methods(
    train: Dataset, taxonomy: Taxonomy
) -> tuple[SemanticWebRecommender, PureCFRecommender]:
    """The hybrid-vs-CF pair every scenario scores, over one train set."""
    store = ProfileStore(train, TaxonomyProfileBuilder(taxonomy))
    hybrid = SemanticWebRecommender(
        dataset=train,
        graph=TrustGraph.from_dataset(train),
        profiles=store,
        formation=NeighborhoodFormation(),
    )
    cf = PureCFRecommender(dataset=train, profiles=store, representation="taxonomy")
    return hybrid, cf


def _honest_split(
    dataset: Dataset,
    exclude: frozenset[str],
    per_user: int,
    min_ratings: int,
    max_users: int | None,
    seed: int,
) -> HoldoutSplit:
    """A holdout split whose test users avoid *exclude* (e.g. sybils).

    The underlying split withholds ratings from every qualifying user;
    test users are then filtered to honest agents and capped by a
    seeded shuffle, so sybil accounts can neither occupy the test-user
    budget nor pollute the accuracy average.
    """
    split = holdout_split(
        dataset, per_user=per_user, min_ratings=min_ratings, max_users=None, seed=seed
    )
    honest = [u for u in split.test_users if u not in exclude]
    rng = random.Random(f"{seed}:select")
    rng.shuffle(honest)
    if max_users is not None:
        honest = honest[:max_users]
    return HoldoutSplit(
        train=split.train,
        held_out={u: split.held_out[u] for u in sorted(honest)},
    )


def _per_user_precision(
    recommender: Recommender, split: HoldoutSplit, top_n: int
) -> list[float]:
    """Per-user precision@N in ``split.test_users`` order."""
    return [t[0] for t in per_user_scores(recommender, split, top_n)]


def _epoch_series(
    snapshots: Sequence[EpochSnapshot],
    taxonomy: Taxonomy,
    per_user: int,
    min_ratings: int,
    max_users: int | None,
    top_n: int,
    seed: int,
) -> tuple[list[list[float]], list[list[float]]]:
    """Per-epoch (hybrid, CF) per-user precision sequences."""
    hybrid_series: list[list[float]] = []
    cf_series: list[list[float]] = []
    tracer = get_tracer()
    for snapshot in snapshots:
        with tracer.span("scenario.score_epoch", epoch=snapshot.epoch):
            split = _honest_split(
                snapshot.dataset,
                exclude=snapshot.truth.sybils,
                per_user=per_user,
                min_ratings=min_ratings,
                max_users=max_users,
                seed=derive_seed(seed, snapshot.epoch),
            )
            hybrid, cf = _build_methods(split.train, taxonomy)
            hybrid_series.append(_per_user_precision(hybrid, split, top_n))
            cf_series.append(_per_user_precision(cf, split, top_n))
    return hybrid_series, cf_series


def _series_cells(comparison: SeriesComparison) -> tuple[str, str, str]:
    """The shared significance columns: Δ, pooled p, Holm-significant."""
    return (
        f"{comparison.pooled.mean_difference:+.4f}",
        f"{comparison.pooled.p_value:.4f}",
        f"{comparison.n_significant}/{len(comparison.epochs)}",
    )


# ---------------------------------------------------------------------------
# EX20 — churn
# ---------------------------------------------------------------------------


def run_ex20_churn(
    community: SyntheticCommunity | None = None,
    churn_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    n_epochs: int = 4,
    seed: int = 60,
    top_n: int = 10,
    per_user: int = 3,
    min_ratings: int = 8,
    max_users: int | None = 14,
    rounds: int = 1000,
) -> Table:
    """Hybrid vs CF accuracy as membership churn intensifies."""
    community = community or _scenario_community(seed)

    table = Table(
        title=f"EX20 — membership churn vs recommendation accuracy (top-{top_n})",
        headers=[
            "churn rate",
            "epochs",
            "final agents",
            "hybrid p@N",
            "CF p@N",
            "Δ pooled",
            "p pooled",
            "sig epochs",
        ],
    )
    for rate in churn_rates:
        events: list[PopulationEvent] = [
            AgentChurn(leave_rate=rate, join_rate=rate)
        ]
        snapshots = Timeline(
            community=community, events=events, n_epochs=n_epochs, seed=seed
        ).run()
        hybrid_series, cf_series = _epoch_series(
            snapshots, community.taxonomy, per_user, min_ratings, max_users,
            top_n, seed,
        )
        comparison = compare_epoch_series(
            hybrid_series, cf_series, rounds=rounds, seed=seed
        )
        delta, pooled_p, significant = _series_cells(comparison)
        table.add_row(
            f"{rate:.2f}",
            n_epochs,
            len(snapshots[-1].dataset.agents),
            f"{mean([mean(s) for s in hybrid_series]):.4f}",
            f"{mean([mean(s) for s in cf_series]):.4f}",
            delta,
            pooled_p,
            significant,
        )
    table.add_note(
        "acceptance: hybrid p@N declines monotonically within tolerance as "
        "the churn rate rises (smooth degradation, no collapse)"
    )
    table.add_note(
        "Δ/p pooled: hybrid − CF over all per-user differences of the run; "
        "sig epochs: Holm–Bonferroni-significant epochs at 0.05"
    )
    return table


# ---------------------------------------------------------------------------
# EX21 — cold-start waves
# ---------------------------------------------------------------------------


def _newcomer_coverage(
    recommender: Recommender, newcomers: Sequence[str], top_n: int
) -> float:
    """Fraction of *newcomers* that receive a non-empty top-N list."""
    if not newcomers:
        return 0.0
    served = sum(
        1 for uri in newcomers if recommender.recommend(uri, limit=top_n)
    )
    return served / len(newcomers)


def run_ex21_coldstart(
    community: SyntheticCommunity | None = None,
    wave_sizes: Sequence[int] = (0, 5, 10, 20),
    n_epochs: int = 4,
    seed: int = 61,
    top_n: int = 10,
    per_user: int = 3,
    min_ratings: int = 8,
    max_users: int | None = 14,
    rounds: int = 1000,
) -> Table:
    """Established-user accuracy and newcomer coverage under influx."""
    community = community or _scenario_community(seed)

    table = Table(
        title=f"EX21 — cold-start waves vs accuracy and coverage (top-{top_n})",
        headers=[
            "wave size",
            "epochs",
            "newcomers",
            "hybrid p@N",
            "CF p@N",
            "hybrid coverage",
            "CF coverage",
            "p pooled",
        ],
    )
    for wave in wave_sizes:
        events: list[PopulationEvent] = [ColdStartWave(wave_size=wave)]
        snapshots = Timeline(
            community=community, events=events, n_epochs=n_epochs, seed=seed
        ).run()
        hybrid_series, cf_series = _epoch_series(
            snapshots, community.taxonomy, per_user, min_ratings, max_users,
            top_n, seed,
        )
        comparison = compare_epoch_series(
            hybrid_series, cf_series, rounds=rounds, seed=seed
        )
        # Coverage over every newcomer alive at the final epoch.
        final = snapshots[-1]
        newcomers = sorted(
            uri
            for snapshot in snapshots
            for uri in snapshot.truth.newcomers
            if uri in final.dataset.agents
        )
        hybrid, cf = _build_methods(final.dataset, community.taxonomy)
        table.add_row(
            wave,
            n_epochs,
            len(newcomers),
            f"{mean([mean(s) for s in hybrid_series]):.4f}",
            f"{mean([mean(s) for s in cf_series]):.4f}",
            f"{_newcomer_coverage(hybrid, newcomers, top_n):.2f}",
            f"{_newcomer_coverage(cf, newcomers, top_n):.2f}",
            f"{comparison.pooled.p_value:.4f}",
        )
    table.add_note(
        "acceptance: established-user hybrid p@N holds within tolerance as "
        "waves grow; coverage = fraction of newcomers with a non-empty "
        "top-N list at the final epoch"
    )
    return table


# ---------------------------------------------------------------------------
# EX22 — evolving sybil attack
# ---------------------------------------------------------------------------


def run_ex22_evolving_sybil(
    community: SyntheticCommunity | None = None,
    bridge_rates: Sequence[int] = (0, 1, 2, 4),
    n_epochs: int = 4,
    ring_growth: int = 6,
    seed: int = 62,
    top_n: int = 10,
    top_k: int = 20,
    per_user: int = 3,
    min_ratings: int = 8,
    max_users: int | None = 14,
) -> Table:
    """A sybil ring accreting identities, forged profiles and bridges.

    For each bridge intensity the ring grows every epoch (plus a trust
    spam campaign compromising honest vouchers when bridges flow at
    all); the table reports final-epoch Appleseed admission, pushed-
    product contamination of the victim's top-N for hybrid vs CF, and
    honest-user accuracy.
    """
    community = community or _scenario_community(seed)
    victim = sorted(community.dataset.agents)[0]
    metrics = get_metrics()

    table = Table(
        title=(
            f"EX22 — evolving sybil attack: admission and contamination "
            f"(top-{top_n}, K={top_k})"
        ),
        headers=[
            "bridges/epoch",
            "sybils",
            "bridges",
            "appleseed sybils@topK",
            "hybrid contamination",
            "CF contamination",
            "hybrid p@N",
        ],
    )
    for bridges in bridge_rates:
        events: list[PopulationEvent] = [
            SybilRingGrowth(
                ring_growth=ring_growth,
                bridges_per_epoch=bridges,
                victim=victim,
            ),
            TrustSpamCampaign(
                compromised_per_epoch=1 if bridges > 0 else 0
            ),
        ]
        snapshots = Timeline(
            community=community, events=events, n_epochs=n_epochs, seed=seed
        ).run()
        hybrid_series, _ = _epoch_series(
            snapshots, community.taxonomy, per_user, min_ratings, max_users,
            top_n, seed,
        )

        hybrid_contamination: list[float] = []
        cf_contamination: list[float] = []
        for snapshot in snapshots:
            pushed = snapshot.truth.pushed_products
            hybrid, cf = _build_methods(snapshot.dataset, community.taxonomy)
            metrics.histogram("dynamics.neighborhood_size").observe(
                len(hybrid.peer_weights(victim))
            )
            for recommender, bucket in (
                (hybrid, hybrid_contamination),
                (cf, cf_contamination),
            ):
                recs = [
                    r.product for r in recommender.recommend(victim, limit=top_n)
                ]
                bucket.append(
                    len(set(recs) & pushed) / top_n if top_n else 0.0
                )

        final = snapshots[-1]
        graph = TrustGraph.from_dataset(final.dataset)
        top = [agent for agent, _ in Appleseed().compute(graph, victim).top(top_k)]
        admitted = sum(1 for a in top if a in final.truth.sybils) / max(len(top), 1)
        table.add_row(
            bridges,
            len(final.truth.sybils),
            final.truth.bridges,
            f"{admitted:.3f}",
            f"{mean(hybrid_contamination):.3f}",
            f"{mean(cf_contamination):.3f}",
            f"{mean([mean(s) for s in hybrid_series]):.4f}",
        )
    table.add_note(
        "acceptance: with 0 bridges the hybrid admits no sybils and pushes "
        "nothing, while trust-blind CF is contaminated by profile copying "
        "alone; hybrid admission grows smoothly with the bridge budget and "
        "hybrid contamination stays at or below CF's"
    )
    table.add_note(
        "contamination = pushed products in the victim's top-N, averaged "
        "over epochs; admission measured at the final epoch"
    )
    return table


# ---------------------------------------------------------------------------
# EX23 — interest drift
# ---------------------------------------------------------------------------


def run_ex23_drift(
    community: SyntheticCommunity | None = None,
    drift_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
    n_epochs: int = 4,
    seed: int = 63,
    top_n: int = 10,
    per_user: int = 3,
    min_ratings: int = 8,
    max_users: int | None = 14,
    rounds: int = 1000,
) -> Table:
    """Hybrid vs CF accuracy as interest clusters erode."""
    community = community or _scenario_community(seed)

    table = Table(
        title=f"EX23 — interest drift vs recommendation accuracy (top-{top_n})",
        headers=[
            "drift rate",
            "epochs",
            "drifted",
            "hybrid p@N",
            "CF p@N",
            "Δ pooled",
            "p pooled",
            "sig epochs",
        ],
    )
    for rate in drift_rates:
        events: list[PopulationEvent] = [InterestDrift(drift_rate=rate)]
        snapshots = Timeline(
            community=community, events=events, n_epochs=n_epochs, seed=seed
        ).run()
        hybrid_series, cf_series = _epoch_series(
            snapshots, community.taxonomy, per_user, min_ratings, max_users,
            top_n, seed,
        )
        comparison = compare_epoch_series(
            hybrid_series, cf_series, rounds=rounds, seed=seed
        )
        delta, pooled_p, significant = _series_cells(comparison)
        drifted = len(
            {uri for snapshot in snapshots for uri in snapshot.truth.drifted}
        )
        table.add_row(
            f"{rate:.2f}",
            n_epochs,
            drifted,
            f"{mean([mean(s) for s in hybrid_series]):.4f}",
            f"{mean([mean(s) for s in cf_series]):.4f}",
            delta,
            pooled_p,
            significant,
        )
    table.add_note(
        "acceptance: hybrid p@N declines monotonically within tolerance as "
        "the drift rate rises — taxonomy profiles absorb migration "
        "gradually rather than collapsing"
    )
    return table
