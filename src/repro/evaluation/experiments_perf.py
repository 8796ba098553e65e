"""EX19 — similarity engine comparison (python oracle vs numpy kernels).

EX8 measures the *algorithmic* claim of §2 (global CF scales with the
community, the trust-bounded pipeline with the neighborhood) and
therefore pins the python engine.  This experiment measures the other
axis: how much the vectorized engine of :mod:`repro.perf` buys on the
identical workload, and that it buys it without changing any number.

For each community size the principal's community ranking is computed
twice — once per candidate pair through the dict oracle, once through a
:class:`~repro.perf.matrix.ProfileMatrix` shared by all principals — and
the table reports per-principal wall clock, speedup, and the largest
absolute score disagreement (must stay below 1e-9).
"""

from __future__ import annotations

from ..core.profiles import TaxonomyProfileBuilder
from ..core.recommender import ProfileStore
from ..core.similarity import top_similar
from ..datasets.amazon import book_taxonomy_config
from ..datasets.generators import CommunityConfig, generate_community
from ..obs import Stopwatch, get_tracer
from ..perf.kernels import community_scores
from ..perf.matrix import ProfileMatrix
from .protocol import Table

__all__ = ["run_ex19_engine"]


def run_ex19_engine(
    sizes: tuple[int, ...] = (100, 200, 400),
    principals: int = 20,
    measure: str = "pearson",
    domain: str = "union",
    seed: int = 29,
) -> Table:
    """Per-principal community-ranking latency, python vs numpy engine.

    The numpy column includes the one-time matrix pack, amortized over
    *principals* — the same accounting a recommender session sees, where
    :meth:`~repro.core.recommender.ProfileStore.matrix` is built once
    and reused for every query.
    """
    table = Table(
        title=f"EX19 — similarity engine comparison ({measure}/{domain})",
        headers=["agents", "topics", "python ms", "numpy ms", "speedup", "max|delta|"],
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
        agents = sorted(dataset.agents)
        profiles = {agent: store.profile(agent) for agent in agents}
        targets = agents[:principals]

        with get_tracer().span("ex19.size", agents=size) as span:
            python_watch = Stopwatch()
            with python_watch:
                python_rankings = [
                    top_similar(
                        profiles[agent],
                        profiles,
                        measure=measure,
                        domain=domain,
                        engine="python",
                    )
                    for agent in targets
                ]
            python_ms = python_watch.elapsed_ms / len(targets)

            numpy_watch = Stopwatch()
            with numpy_watch:
                matrix = ProfileMatrix.from_profiles(profiles)
                numpy_scores = [
                    community_scores(
                        profiles[agent], matrix, measure=measure, domain=domain
                    )
                    for agent in targets
                ]
            numpy_ms = numpy_watch.elapsed_ms / len(targets)
            # Wall-clock numbers stay out of span attrs: same-seed traces
            # must be identical modulo the duration_ms field alone.
            span.set("principals", len(targets))

        max_delta = 0.0
        for ranking, scores in zip(python_rankings, numpy_scores):
            lookup = dict(zip(matrix.ids, scores.tolist()))
            for identifier, value in ranking:
                max_delta = max(max_delta, abs(value - lookup[identifier]))

        table.add_row(
            size,
            matrix.width,
            f"{python_ms:.2f}",
            f"{numpy_ms:.2f}",
            f"{python_ms / numpy_ms:.1f}x" if numpy_ms > 0 else "inf",
            f"{max_delta:.1e}",
        )
    table.add_note(
        "numpy ms includes the one-time matrix pack amortized over "
        f"{principals} principals; max|delta| is the largest absolute "
        "score disagreement between engines (acceptance bound 1e-9)."
    )
    return table
