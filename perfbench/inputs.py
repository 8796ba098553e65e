"""Seeded inputs: community records, request sequences and writes.

Everything a run hands the program is generated here before any timing,
as plain tuples.  The community and the trust graph are the library's
presets (``allconsuming_config`` and ``stream_trust_edges`` with their
default seed), so every run measures the same community; ``--seed``
draws the principals, sources and writes.  Setup replays the records through
the program's public ``add_*`` methods, so a later index inside
``Dataset`` is built and kept coherent by the same calls a loader makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.allconsuming import allconsuming_config
from repro.datasets.generators import generate_community, stream_trust_edges

#: One write in this many is a trust statement; the others add ratings.
TRUST_WRITE_EVERY = 4

#: ``(kind, agent, target, value)``: kind ``"rating"`` names a product
#: as target, kind ``"trust"`` another agent.
Write = tuple[str, str, str, float]
Edge = tuple[str, str, float]


@dataclass(frozen=True)
class Community:
    """A community snapshot as records, in generation order."""

    agents: tuple[tuple[str, str], ...]
    products: tuple[tuple[str, str, tuple[str, ...]], ...]
    trust: tuple[Edge, ...]
    ratings: tuple[Edge, ...]
    #: ``(topic, parent, label)``, parents first; the root has parent None.
    topics: tuple[tuple[str, str | None, str], ...]


def community_records(scale: float) -> Community:
    """The All Consuming stand-in, ``allconsuming_config`` as preset, as records."""
    generated = generate_community(allconsuming_config(scale=scale))
    dataset, taxonomy = generated.dataset, generated.taxonomy
    topics = []
    stack = [taxonomy.root]
    while stack:
        topic = stack.pop()
        topics.append((topic, taxonomy.parent(topic), taxonomy.label(topic)))
        stack.extend(reversed(taxonomy.children(topic)))
    return Community(
        agents=tuple((agent.uri, agent.name) for agent in dataset.agents.values()),
        products=tuple(
            (product.identifier, product.title, tuple(sorted(product.descriptors)))
            for product in dataset.products.values()
        ),
        trust=tuple((s.source, s.target, s.value) for s in dataset.iter_trust()),
        ratings=tuple((r.agent, r.product, r.value) for r in dataset.iter_ratings()),
        topics=tuple(topics),
    )


def trust_edges(nodes: int) -> tuple[Edge, ...]:
    """A ``stream_trust_edges`` web of trust, as preset, as records."""
    return tuple(stream_trust_edges(nodes))


def draws(population: list[str], count: int, rng: random.Random) -> list[str]:
    """*count* uniform draws with replacement."""
    return [population[rng.randrange(len(population))] for _ in range(count)]


def trust_value(rng: random.Random) -> float:
    """A positive trust weight on the generators' scale."""
    return round(rng.uniform(0.4, 1.0), 3)


def community_writes(
    community: Community, count: int, rng: random.Random
) -> list[Write]:
    """*count* writes by uniformly drawn writers.

    Every :data:`TRUST_WRITE_EVERY`-th write is a trust statement toward
    another uniformly drawn agent; the others rate a product the writer
    has not rated yet, so each of them adds a rating.
    """
    agents = [uri for uri, _ in community.agents]
    products = [identifier for identifier, _, _ in community.products]
    rated: dict[str, set[str]] = {}
    for agent, product, _ in community.ratings:
        rated.setdefault(agent, set()).add(product)
    out: list[Write] = []
    while len(out) < count:
        writer = agents[rng.randrange(len(agents))]
        if len(out) % TRUST_WRITE_EVERY == TRUST_WRITE_EVERY - 1:
            target = agents[rng.randrange(len(agents))]
            if target != writer:
                out.append(("trust", writer, target, trust_value(rng)))
            continue
        seen = rated.setdefault(writer, set())
        if len(seen) == len(products):
            continue
        product = products[rng.randrange(len(products))]
        while product in seen:
            product = products[rng.randrange(len(products))]
        seen.add(product)
        out.append(("rating", writer, product, 1.0))
    return out


def edge_writes(nodes: list[str], count: int, rng: random.Random) -> list[Write]:
    """*count* trust statements between uniformly drawn distinct nodes."""
    out: list[Write] = []
    while len(out) < count:
        source = nodes[rng.randrange(len(nodes))]
        target = nodes[rng.randrange(len(nodes))]
        if source != target:
            out.append(("trust", source, target, trust_value(rng)))
    return out
