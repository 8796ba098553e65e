"""Population dynamics: seeded timelines of epochs over a community.

The paper's setting (§2) is an *open* decentralized community: "agents
may decide to publish or update documents" and "spoofing and identity
forging … become facile to achieve."  The EX1–EX19 suite evaluates a
frozen snapshot of such a community; this module makes the population
itself move.  A :class:`Timeline` advances a
:class:`~repro.datasets.generators.SyntheticCommunity` through discrete
epochs, applying composable :class:`PopulationEvent`\\ s:

* :class:`AgentChurn` — honest members leave (trust edges torn down on
  both sides) and join (small profiles, homophilous trust edges);
* :class:`ColdStartWave` — bursts of newcomers with one or two ratings
  and a single outbound trust edge, the sparsity regime of §3.2;
* :class:`SybilRingGrowth` — a phased sybil attack: every epoch the ring
  accretes identities (via :func:`~repro.evaluation.attacks
  .inject_sybil_region` with a per-epoch ``wave``), interlinks with the
  previous waves, copies a victim's profile, and gains fresh attack
  edges from honest agents;
* :class:`TrustSpamCampaign` — compromised honest accounts start
  vouching for the sybil region, the social-engineering channel;
* :class:`InterestDrift` — agents migrate to another interest cluster
  and rate from its product pool, eroding the planted homophily.

Every event mutates the timeline's *working copy* of the dataset —
the input community is never touched — and records ground truth into
the shared :class:`EpochState`.  After each epoch the timeline emits an
:class:`EpochSnapshot` holding an independent dataset copy plus the
frozen :class:`EpochTruth`, so downstream scoring can never corrupt
history.  All randomness flows from string-derived
:class:`random.Random` streams keyed by ``(seed, epoch, event index,
event name)``: runs are byte-reproducible and insertion-order free.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import ClassVar

from ..core.models import Agent, Dataset, Product, Rating, TrustStatement
from ..datasets.generators import SyntheticCommunity
from ..obs import get_metrics, get_tracer
from .attacks import inject_sybil_region

__all__ = [
    "AgentChurn",
    "ColdStartWave",
    "EpochSnapshot",
    "EpochState",
    "EpochTruth",
    "InterestDrift",
    "PopulationEvent",
    "SybilRingGrowth",
    "Timeline",
    "TrustSpamCampaign",
]

#: URI namespaces for minted identities; epoch-qualified so repeated
#: events never collide (the same invariant attacks.py enforces for
#: sybil waves).
JOINER_PREFIX = "http://agents.example.org/join-"
NEWCOMER_PREFIX = "http://agents.example.org/cold-"

#: Minimum honest population a churn event must leave behind — below
#: this the evaluation protocol has nothing left to split.
MIN_POPULATION = 10


@dataclass(frozen=True, slots=True)
class EpochTruth:
    """Ground truth emitted for one epoch.

    Per-epoch sets (``joined``, ``departed``, ``newcomers``,
    ``drifted``) describe what happened *during* the epoch; cumulative
    fields (``sybils``, ``bridges``, ``compromised``,
    ``pushed_products``) describe the attack surface present *at the
    end* of it.
    """

    epoch: int
    joined: frozenset[str]
    departed: frozenset[str]
    newcomers: frozenset[str]
    drifted: frozenset[str]
    sybils: frozenset[str]
    bridges: int
    compromised: frozenset[str]
    pushed_products: frozenset[str]


@dataclass(frozen=True, slots=True)
class EpochSnapshot:
    """One epoch's independent dataset copy plus its ground truth."""

    epoch: int
    dataset: Dataset
    truth: EpochTruth


@dataclass
class EpochState:
    """Mutable working state threaded through the events of a timeline.

    Events mutate :attr:`dataset` (or replace it with an attacked copy)
    and record what they did; :meth:`begin_epoch` resets the per-epoch
    bookkeeping while cumulative attack state persists.
    """

    dataset: Dataset
    community: SyntheticCommunity
    epoch: int = 0
    membership: dict[str, int] = field(default_factory=dict)
    # -- cumulative attack surface -----------------------------------------
    sybils: set[str] = field(default_factory=set)
    bridges: int = 0
    compromised: set[str] = field(default_factory=set)
    pushed_products: set[str] = field(default_factory=set)
    # -- per-epoch bookkeeping ---------------------------------------------
    joined: set[str] = field(default_factory=set)
    departed: set[str] = field(default_factory=set)
    newcomers: set[str] = field(default_factory=set)
    drifted: set[str] = field(default_factory=set)
    sybils_added: int = 0
    bridges_added: int = 0
    spam_edges: int = 0

    def begin_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        self.joined = set()
        self.departed = set()
        self.newcomers = set()
        self.drifted = set()
        self.sybils_added = 0
        self.bridges_added = 0
        self.spam_edges = 0

    def honest_agents(self) -> list[str]:
        """Sorted URIs of live agents outside the sybil region."""
        return sorted(set(self.dataset.agents) - self.sybils)

    def remove_agent(self, uri: str) -> None:
        """Tear *uri* out of the community: edges on both sides go too."""
        self.dataset.remove_agent(uri)
        self.membership.pop(uri, None)
        self.compromised.discard(uri)
        self.departed.add(uri)

    def add_member(
        self,
        uri: str,
        name: str,
        cluster: int,
        rng: random.Random,
        n_ratings: int,
        trust_out: int,
        vouched: bool,
    ) -> None:
        """Mint one honest joiner: profile from its cluster's pool.

        *vouched* adds a single inbound trust edge from a cluster
        member, integrating the joiner into the web of trust; cold-start
        newcomers stay unvouched (nobody knows them yet).
        """
        if uri in self.dataset.agents:
            raise ValueError(f"joiner identity collision: {uri!r}")
        self.dataset.add_agent(Agent(uri=uri, name=name))
        self.membership[uri] = cluster
        pool = list(
            self.community.cluster_products.get(cluster)
            or sorted(self.dataset.products)
        )
        for product in sorted(rng.sample(pool, min(n_ratings, len(pool)))):
            self.dataset.add_rating(Rating(agent=uri, product=product, value=1.0))
        peers = sorted(
            a
            for a in self.honest_agents()
            if a != uri and self.membership.get(a) == cluster
        ) or [a for a in self.honest_agents() if a != uri]
        for target in sorted(rng.sample(peers, min(trust_out, len(peers)))):
            self.dataset.add_trust(
                TrustStatement(
                    source=uri, target=target, value=round(rng.uniform(0.4, 1.0), 3)
                )
            )
        if vouched and peers:
            voucher = peers[rng.randrange(len(peers))]
            self.dataset.add_trust(
                TrustStatement(source=voucher, target=uri, value=0.5)
            )
        self.joined.add(uri)

    def truth(self) -> EpochTruth:
        return EpochTruth(
            epoch=self.epoch,
            joined=frozenset(self.joined),
            departed=frozenset(self.departed),
            newcomers=frozenset(self.newcomers),
            drifted=frozenset(self.drifted),
            sybils=frozenset(self.sybils),
            bridges=self.bridges,
            compromised=frozenset(self.compromised),
            pushed_products=frozenset(self.pushed_products),
        )


class PopulationEvent(ABC):
    """One composable population change, applied once per epoch.

    Implementations draw randomness only from the *rng* handed to
    :meth:`apply` — it is keyed by (timeline seed, epoch, event index,
    event name), which is what makes timelines reproducible regardless
    of how events are combined.
    """

    name: ClassVar[str] = "event"

    @abstractmethod
    def apply(self, state: EpochState, rng: random.Random) -> None:
        """Mutate *state* for the current epoch."""


@dataclass(frozen=True, slots=True)
class AgentChurn(PopulationEvent):
    """Honest members leave and join at per-epoch rates."""

    leave_rate: float = 0.05
    join_rate: float = 0.05
    ratings_per_joiner: int = 4
    trust_out: int = 3

    name: ClassVar[str] = "churn"

    def __post_init__(self) -> None:
        if not 0.0 <= self.leave_rate <= 1.0 or not 0.0 <= self.join_rate <= 1.0:
            raise ValueError("churn rates must lie in [0, 1]")

    def apply(self, state: EpochState, rng: random.Random) -> None:
        honest = state.honest_agents()
        n_leave = min(
            int(self.leave_rate * len(honest)),
            max(0, len(honest) - MIN_POPULATION),
        )
        for uri in sorted(rng.sample(honest, n_leave)):
            state.remove_agent(uri)
        n_join = int(self.join_rate * len(honest))
        n_clusters = state.community.config.n_clusters
        for i in range(n_join):
            uri = f"{JOINER_PREFIX}e{state.epoch:02d}-{i:04d}"
            state.add_member(
                uri,
                name=f"Joiner {state.epoch}/{i}",
                cluster=rng.randrange(n_clusters),
                rng=rng,
                n_ratings=self.ratings_per_joiner,
                trust_out=self.trust_out,
                vouched=True,
            )


@dataclass(frozen=True, slots=True)
class ColdStartWave(PopulationEvent):
    """A burst of barely-profiled, unvouched newcomers per epoch."""

    wave_size: int = 10
    ratings_per_newcomer: int = 2
    trust_out: int = 1

    name: ClassVar[str] = "coldstart"

    def __post_init__(self) -> None:
        if self.wave_size < 0:
            raise ValueError("wave_size must be non-negative")

    def apply(self, state: EpochState, rng: random.Random) -> None:
        n_clusters = state.community.config.n_clusters
        for i in range(self.wave_size):
            uri = f"{NEWCOMER_PREFIX}e{state.epoch:02d}-{i:04d}"
            state.add_member(
                uri,
                name=f"Newcomer {state.epoch}/{i}",
                cluster=rng.randrange(n_clusters),
                rng=rng,
                n_ratings=self.ratings_per_newcomer,
                trust_out=self.trust_out,
                vouched=False,
            )
            state.newcomers.add(uri)


@dataclass(frozen=True, slots=True)
class SybilRingGrowth(PopulationEvent):
    """A phased sybil attack: the ring accretes identities and bridges.

    Each epoch mints ``ring_growth`` fresh sybils in their own ``wave``
    namespace (epoch + 1, so wave 0's legacy URIs stay reserved for the
    one-shot attacks), wires them densely, interlinks them with earlier
    waves (adversary-internal edges are free), copies the victim's
    rating profile onto them (§3.2's similarity forging), rates the
    campaign's pushed products, and finally acquires
    ``bridges_per_epoch`` attack edges from honest agents — the only
    resource the adversary cannot forge.
    """

    ring_growth: int = 6
    bridges_per_epoch: int = 1
    internal_degree: int = 4
    n_pushed: int = 2
    victim: str | None = None
    bridge_weight: float = 0.9

    name: ClassVar[str] = "sybilring"

    def __post_init__(self) -> None:
        if self.ring_growth < 1:
            raise ValueError("ring_growth must be at least 1")
        if self.bridges_per_epoch < 0:
            raise ValueError("bridges_per_epoch must be non-negative")

    def _victim(self, state: EpochState, honest: list[str]) -> str | None:
        if self.victim is not None and self.victim in state.dataset.agents:
            return self.victim
        return honest[0] if honest else None

    def apply(self, state: EpochState, rng: random.Random) -> None:
        honest = state.honest_agents()
        previous = sorted(state.sybils)
        region = inject_sybil_region(
            state.dataset,
            n_sybils=self.ring_growth,
            n_bridges=0,
            seed=rng.randrange(2**31),
            internal_degree=self.internal_degree,
            wave=state.epoch + 1,
        )
        state.dataset = region.dataset
        fresh = sorted(region.sybils)

        # Accretion: each fresh sybil vouches for (and is vouched by) a
        # couple of earlier-wave sybils, so the ring stays one region.
        for uri in fresh:
            for other in rng.sample(previous, min(2, len(previous))):
                state.dataset.add_trust(
                    TrustStatement(source=uri, target=other, value=1.0)
                )
                state.dataset.add_trust(
                    TrustStatement(source=other, target=uri, value=1.0)
                )

        # Profile forging: mint the campaign's pushed products once,
        # then have every fresh sybil copy the victim and push them.
        if not state.pushed_products:
            for i in range(self.n_pushed):
                identifier = f"isbn:push{i:02d}"
                state.dataset.add_product(
                    Product(identifier=identifier, title=f"Pushed {identifier}")
                )
                state.pushed_products.add(identifier)
        victim = self._victim(state, honest)
        victim_positives = (
            [
                product
                for product, value in state.dataset.ratings_of(victim).items()
                if value > 0 and product not in state.pushed_products
            ]
            if victim is not None
            else []
        )
        for uri in fresh:
            for product in victim_positives:
                state.dataset.add_rating(
                    Rating(agent=uri, product=product, value=1.0)
                )
            for product in sorted(state.pushed_products):
                state.dataset.add_rating(
                    Rating(agent=uri, product=product, value=1.0)
                )

        # Attack edges: honest sources only — these are the bottleneck
        # a good group trust metric bounds admission by.
        for _ in range(self.bridges_per_epoch):
            if not honest:
                break
            source = honest[rng.randrange(len(honest))]
            target = fresh[rng.randrange(len(fresh))]
            state.dataset.add_trust(
                TrustStatement(source=source, target=target, value=self.bridge_weight)
            )
            state.bridges += 1
            state.bridges_added += 1

        state.sybils.update(fresh)
        state.sybils_added += len(fresh)


@dataclass(frozen=True, slots=True)
class TrustSpamCampaign(PopulationEvent):
    """Compromised honest accounts vouch for the sybil region.

    Models the social-engineering channel: each epoch a few more honest
    agents fall and start emitting trust edges into the ring.  A no-op
    until some sybils exist (compose it after :class:`SybilRingGrowth`).
    """

    compromised_per_epoch: int = 2
    edges_per_agent: int = 3
    weight: float = 0.9

    name: ClassVar[str] = "trustspam"

    def __post_init__(self) -> None:
        if self.compromised_per_epoch < 0:
            raise ValueError("compromised_per_epoch must be non-negative")
        if self.edges_per_agent < 1:
            raise ValueError("edges_per_agent must be at least 1")

    def apply(self, state: EpochState, rng: random.Random) -> None:
        targets = sorted(state.sybils & set(state.dataset.agents))
        if not targets:
            return
        candidates = [
            a for a in state.honest_agents() if a not in state.compromised
        ]
        picked = sorted(
            rng.sample(candidates, min(self.compromised_per_epoch, len(candidates)))
        )
        for source in picked:
            chosen = rng.sample(targets, min(self.edges_per_agent, len(targets)))
            for target in sorted(chosen):
                state.dataset.add_trust(
                    TrustStatement(source=source, target=target, value=self.weight)
                )
                state.bridges += 1
                state.bridges_added += 1
                state.spam_edges += 1
            state.compromised.add(source)


@dataclass(frozen=True, slots=True)
class InterestDrift(PopulationEvent):
    """A fraction of honest agents migrate to another interest cluster.

    Drifters keep their history but start rating from the new cluster's
    product pool, eroding the taxonomy-homophily signal the generator
    planted (§3.2's premise under stress).
    """

    drift_rate: float = 0.1
    ratings_per_drift: int = 3

    name: ClassVar[str] = "drift"

    def __post_init__(self) -> None:
        if not 0.0 <= self.drift_rate <= 1.0:
            raise ValueError("drift_rate must lie in [0, 1]")

    def apply(self, state: EpochState, rng: random.Random) -> None:
        n_clusters = state.community.config.n_clusters
        if n_clusters < 2:
            return
        candidates = [a for a in state.honest_agents() if a in state.membership]
        n_drift = int(self.drift_rate * len(candidates))
        for uri in sorted(rng.sample(candidates, n_drift)):
            old = state.membership[uri]
            new = (old + 1 + rng.randrange(n_clusters - 1)) % n_clusters
            state.membership[uri] = new
            pool = [
                p
                for p in state.community.cluster_products.get(new, ())
                if (uri, p) not in state.dataset.ratings
            ]
            for product in sorted(
                rng.sample(pool, min(self.ratings_per_drift, len(pool)))
            ):
                state.dataset.add_rating(
                    Rating(agent=uri, product=product, value=1.0)
                )
            state.drifted.add(uri)


@dataclass
class Timeline:
    """A seeded sequence of epochs applying *events* in order.

    :meth:`run` never touches ``community.dataset``; it works on a copy
    and returns one :class:`EpochSnapshot` per epoch, each holding its
    own independent dataset copy.  Identical (community, events,
    n_epochs, seed) yield byte-identical snapshots.
    """

    community: SyntheticCommunity
    events: Sequence[PopulationEvent]
    n_epochs: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be at least 1")
        if not self.events:
            raise ValueError("a timeline needs at least one event")

    def run(self) -> list[EpochSnapshot]:
        tracer = get_tracer()
        metrics = get_metrics()
        state = EpochState(
            dataset=self.community.dataset.copy(),
            community=self.community,
            membership=dict(self.community.membership),
        )
        snapshots: list[EpochSnapshot] = []
        for epoch in range(self.n_epochs):
            state.begin_epoch(epoch)
            with tracer.span(
                "dynamics.epoch", epoch=epoch, events=len(self.events)
            ) as span:
                for index, event in enumerate(self.events):
                    rng = random.Random(
                        f"{self.seed}:{epoch}:{index}:{event.name}"
                    )
                    with tracer.span(f"dynamics.event.{event.name}", epoch=epoch):
                        event.apply(state, rng)
                state.dataset.validate()
                span.set("agents", len(state.dataset.agents))
                span.set("sybils", len(state.sybils))
            metrics.counter("dynamics.agents_joined").inc(len(state.joined))
            metrics.counter("dynamics.agents_left").inc(len(state.departed))
            metrics.counter("dynamics.agents_drifted").inc(len(state.drifted))
            metrics.counter("dynamics.sybils_added").inc(state.sybils_added)
            metrics.counter("dynamics.bridges_added").inc(state.bridges_added)
            metrics.counter("dynamics.spam_edges").inc(state.spam_edges)
            metrics.histogram("dynamics.epoch_population").observe(
                len(state.dataset.agents)
            )
            snapshots.append(
                EpochSnapshot(
                    epoch=epoch,
                    dataset=state.dataset.copy(),
                    truth=state.truth(),
                )
            )
        return snapshots
