"""Attack models for the security experiments (EX4, EX7).

§2 of the paper: "Decentralized systems … cannot prevent deception and
insincerity.  Spoofing and identity forging thus become facile to
achieve."  §3.2: "malicious agents a_j can accomplish high similarity with
a_i by simply copying its profile."  Two attack models operationalize
those threats:

* :func:`inject_sybil_region` — the canonical trust-metric attack from
  Levien's analysis: the adversary mints ``n_sybils`` fake identities and
  wires them into a dense sub-network.  The only thing the adversary
  cannot forge is *edges from honest agents into the region*; those
  ``n_bridges`` "attack edges" are the security bottleneck a good group
  metric exploits.
* :func:`inject_profile_copy_attack` — the CF-manipulation attack: sybils
  copy the victim's rating profile verbatim (maximizing similarity) and
  append the products the adversary wants pushed.

Both mutate a *copy* of the input dataset and return ground truth for
scoring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.models import Agent, Dataset, Product, Rating, TrustStatement

__all__ = [
    "ProfileCopyAttack",
    "SybilRegion",
    "inject_profile_copy_attack",
    "inject_sybil_region",
]

SYBIL_PREFIX = "http://sybil.example.org/s"


@dataclass(frozen=True, slots=True)
class SybilRegion:
    """Ground truth of an injected sybil region."""

    dataset: Dataset
    sybils: frozenset[str]
    bridges: tuple[TrustStatement, ...]


@dataclass(frozen=True, slots=True)
class ProfileCopyAttack:
    """Ground truth of an injected profile-copy attack."""

    dataset: Dataset
    sybils: frozenset[str]
    pushed_products: frozenset[str]
    victim: str


def _sybil_uri(index: int, wave: int) -> str:
    """URI for the *index*-th sybil of injection *wave*.

    Wave 0 keeps the historical flat namespace so existing experiment
    tables stay byte-identical; later waves embed the wave number so
    repeated injections on one dataset mint disjoint identities.
    """
    if wave == 0:
        return f"{SYBIL_PREFIX}{index:04d}"
    return f"{SYBIL_PREFIX}w{wave:02d}-{index:04d}"


def _mint_sybils(dataset: Dataset, n_sybils: int, wave: int = 0) -> list[str]:
    sybils = [_sybil_uri(i, wave) for i in range(n_sybils)]
    for i, uri in enumerate(sybils):
        if uri in dataset.agents:
            raise ValueError(
                f"sybil identity collision: {uri!r} already exists; "
                "use a distinct `wave` for repeated injections"
            )
        name = f"Sybil {i}" if wave == 0 else f"Sybil {wave}/{i}"
        dataset.add_agent(Agent(uri=uri, name=name))
    return sybils


def _wire_region(
    dataset: Dataset,
    sybils: list[str],
    rng: random.Random,
    internal_degree: int,
) -> None:
    """Densely interconnect the sybil region with full-trust edges."""
    for uri in sybils:
        others = [s for s in sybils if s != uri]
        rng.shuffle(others)
        for target in others[:internal_degree]:
            dataset.add_trust(TrustStatement(source=uri, target=target, value=1.0))


def inject_sybil_region(
    dataset: Dataset,
    n_sybils: int,
    n_bridges: int,
    seed: int = 0,
    internal_degree: int = 5,
    bridge_weight: float = 0.9,
    wave: int = 0,
) -> SybilRegion:
    """Inject a dense sybil region reached by *n_bridges* attack edges.

    Bridge sources are honest agents drawn uniformly; each bridge targets
    a uniformly drawn sybil with weight *bridge_weight* (a compromised or
    careless honest agent vouching for a fake).  Returns the attacked
    dataset copy plus the ground truth.

    *wave* namespaces the minted identities: repeated injections on one
    dataset must pass distinct waves, otherwise the second call would
    collide with the first ring's URIs (a :class:`ValueError`, not a
    silent merge).
    """
    if n_sybils < 1:
        raise ValueError("n_sybils must be at least 1")
    if n_bridges < 0:
        raise ValueError("n_bridges must be non-negative")
    if wave < 0:
        raise ValueError("wave must be non-negative")
    rng = random.Random(seed)
    attacked = dataset.copy()
    honest = sorted(dataset.agents)
    sybils = _mint_sybils(attacked, n_sybils, wave=wave)
    _wire_region(attacked, sybils, rng, min(internal_degree, n_sybils - 1))

    bridges: list[TrustStatement] = []
    for _ in range(n_bridges):
        source = honest[rng.randrange(len(honest))]
        target = sybils[rng.randrange(len(sybils))]
        statement = TrustStatement(source=source, target=target, value=bridge_weight)
        attacked.add_trust(statement)
        bridges.append(statement)
    return SybilRegion(
        dataset=attacked,
        sybils=frozenset(sybils),
        bridges=tuple(bridges),
    )


def inject_profile_copy_attack(
    dataset: Dataset,
    victim: str,
    n_sybils: int,
    n_pushed: int = 3,
    n_bridges: int = 0,
    seed: int = 0,
    wave: int = 0,
) -> ProfileCopyAttack:
    """Inject sybils that copy *victim*'s profile and push attacker items.

    Each sybil replicates every positive rating of the victim (the §3.2
    similarity-forging move) and additionally rates ``n_pushed`` freshly
    minted attacker products with +1.0.  Sybils interconnect with full
    trust; *n_bridges* optional attack edges from honest agents model
    partially successful social engineering.
    """
    if victim not in dataset.agents:
        raise KeyError(f"unknown victim agent {victim!r}")
    if n_sybils < 1:
        raise ValueError("n_sybils must be at least 1")
    if wave < 0:
        raise ValueError("wave must be non-negative")
    rng = random.Random(seed)
    attacked = dataset.copy()
    sybils = _mint_sybils(attacked, n_sybils, wave=wave)
    _wire_region(attacked, sybils, rng, min(5, n_sybils - 1))

    pushed = (
        [f"isbn:attack{i:04d}" for i in range(n_pushed)]
        if wave == 0
        else [f"isbn:attack-w{wave:02d}-{i:04d}" for i in range(n_pushed)]
    )
    for identifier in pushed:
        attacked.add_product(
            Product(identifier=identifier, title=f"Pushed {identifier}")
        )

    victim_positives = [
        product
        for product, value in dataset.ratings_of(victim).items()
        if value > 0
    ]
    for uri in sybils:
        for product in victim_positives:
            attacked.add_rating(Rating(agent=uri, product=product, value=1.0))
        for product in pushed:
            attacked.add_rating(Rating(agent=uri, product=product, value=1.0))

    honest = sorted(dataset.agents)
    for _ in range(n_bridges):
        source = honest[rng.randrange(len(honest))]
        target = sybils[rng.randrange(len(sybils))]
        attacked.add_trust(TrustStatement(source=source, target=target, value=0.9))

    return ProfileCopyAttack(
        dataset=attacked,
        sybils=frozenset(sybils),
        pushed_products=frozenset(pushed),
        victim=victim,
    )
