"""Setup and the benchmark's calls into the program.

Setup takes records to a state that can serve queries: a ``Dataset``
built through its ``add_*`` methods (what ``datasets.io.load_dataset``
does, minus JSON parsing), the ``TrustGraph`` and the packed profile
matrix.  The same function builds the cold-rebuild oracles the answer
check compares against, so serving state and oracle differ only in
what happened to the serving state since.

The benchmark opens its own spans around the calls it makes; with the
default null tracer each costs one no-op call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.core.models import Agent, Dataset, Product, Rating, TrustStatement
from repro.core.neighborhood import NeighborhoodFormation
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import ProfileStore, Recommendation, SemanticWebRecommender
from repro.core.taxonomy import Taxonomy
from repro.obs import Stopwatch, get_tracer
from repro.trust.appleseed import Appleseed, AppleseedResult
from repro.trust.engine import rank_many
from repro.trust.graph import TrustGraph

from .inputs import Community, Edge, Write

#: Recommendations per answer.
LIMIT = 10


def taxonomy_from(community: Community) -> Taxonomy:
    """The shared taxonomy, rebuilt from its topic records."""
    root, _, label = community.topics[0]
    taxonomy = Taxonomy(root, label)
    for topic, parent, label in community.topics[1:]:
        assert parent is not None
        taxonomy.add_topic(topic, parent, label)
    return taxonomy


def formation(bounded: bool) -> NeighborhoodFormation:
    """The paper's bounded neighborhood, or the default open one.

    Bounded is Appleseed with a three-hop horizon and the top 50 peers
    (``examples/full_scale.py``); open is what ``repro recommend`` and
    ``repro bench`` build.  Both use the ``auto`` trust engine, which
    packs every graph of 64 nodes or more.
    """
    if bounded:
        return NeighborhoodFormation(
            metric=Appleseed(max_depth=3, engine="auto"), max_peers=50
        )
    return NeighborhoodFormation(engine="auto")


def apply_write(dataset: Dataset, graph: TrustGraph | None, write: Write) -> None:
    """One write through the public mutators, each in its own span."""
    kind, agent, target, value = write
    tracer = get_tracer()
    if kind == "rating":
        rating = Rating(agent=agent, product=target, value=value)
        with tracer.span("dataset.add_rating"):
            dataset.add_rating(rating)
        return
    statement = TrustStatement(source=agent, target=target, value=value)
    with tracer.span("dataset.add_trust"):
        dataset.add_trust(statement)
    if graph is not None:
        with tracer.span("graph.add_edge"):
            graph.add_edge(agent, target, value)


def ingest(community: Community, writes: Iterable[Write] = ()) -> Dataset:
    """The records (and then *writes*) replayed through ``add_*``."""
    dataset = Dataset()
    for uri, name in community.agents:
        dataset.add_agent(Agent(uri=uri, name=name))
    for identifier, title, descriptors in community.products:
        dataset.add_product(
            Product(identifier=identifier, title=title, descriptors=frozenset(descriptors))
        )
    for source, target, value in community.trust:
        dataset.add_trust(TrustStatement(source=source, target=target, value=value))
    for agent, product, value in community.ratings:
        dataset.add_rating(Rating(agent=agent, product=product, value=value))
    for write in writes:
        apply_write(dataset, None, write)
    return dataset


def setup_community(
    community: Community,
    taxonomy: Taxonomy,
    bounded: bool,
    writes: Sequence[Write] = (),
    instrument: Callable[[SemanticWebRecommender], None] | None = None,
) -> tuple[SemanticWebRecommender, float]:
    """Records to a serving recommender, timed; *instrument* runs before the pack."""
    tracer = get_tracer()
    watch = Stopwatch()
    with watch, tracer.span("setup"):
        with tracer.span("setup.ingest"):
            dataset = ingest(community, writes)
        with tracer.span("setup.graph"):
            graph = TrustGraph.from_dataset(dataset)
        store = ProfileStore(dataset, TaxonomyProfileBuilder(taxonomy))
        recommender = SemanticWebRecommender(
            dataset=dataset,
            graph=graph,
            profiles=store,
            formation=formation(bounded),
            engine="auto",
        )
        if instrument is not None:
            instrument(recommender)
        recommender.profiles.matrix()
    return recommender, watch.elapsed


def setup_graph(edges: Sequence[Edge], writes: Sequence[Write] = ()) -> tuple[TrustGraph, float]:
    """Edge records (and then trust *writes*) to a graph, timed."""
    tracer = get_tracer()
    watch = Stopwatch()
    with watch, tracer.span("setup"):
        with tracer.span("setup.graph"):
            graph = TrustGraph.from_edges(edges)
            for _, source, target, value in writes:
                graph.add_edge(source, target, value)
    return graph, watch.elapsed


def recommend(recommender: SemanticWebRecommender, principal: str) -> list[Recommendation]:
    """One answer, as a user asks for it."""
    with get_tracer().span("recommender.recommend"):
        return recommender.recommend(principal, limit=LIMIT)


def update(recommender: SemanticWebRecommender, write: Write) -> list[Recommendation]:
    """A write, the writer's cache invalidation, and the writer's new answer."""
    apply_write(recommender.dataset, recommender.graph, write)
    with get_tracer().span("recommender.invalidate_cache"):
        recommender.invalidate_cache(write[1])
    return recommend(recommender, write[1])


def rank(graph: TrustGraph, sources: Sequence[str]) -> list[AppleseedResult]:
    """One serial ``rank_many`` call: one pack, then every source."""
    return rank_many(graph, sources, engine="auto")


def update_graph(graph: TrustGraph, write: Write) -> list[AppleseedResult]:
    """A trust write and the writer's re-ranked trust neighbourhood."""
    _, source, target, value = write
    with get_tracer().span("graph.add_edge"):
        graph.add_edge(source, target, value)
    return rank(graph, [source])
