"""The standing perf trajectory: ``repro bench`` and ``BENCH_scale.json``.

The ROADMAP demands every PR make a hot path measurably faster — which
only means something against a *standing* trajectory with a stable
schema.  This module is that schema's single owner:

* :func:`run_bench` drives the three phases every scale-out PR cares
  about — **build** (community generation + profile packing), **query**
  (hybrid recommendations) and **trust** (a multi-source
  :func:`~repro.trust.engine.rank_many` sweep) — across declared
  community sizes, *with tracing always on*, so every wall time in the
  output carries the name of its dominant span (the span name with the
  most self time inside that phase's subtree, computed by
  :func:`repro.obs.profile.profile_trace`).
* :func:`write_bench` / :func:`validate_bench` own the versioned
  on-disk document (schema id :data:`BENCH_SCHEMA`, ``repro-bench/1``).
  One legacy writer, ``benchmarks/bench_trust_scale.py``, still keeps
  its own frozen schema (``BENCH_trust_scale.json``); every new
  trajectory goes through this helper.
* ``scripts/check_bench_regression.py`` compares a fresh document
  against the committed baseline with noise-aware thresholds and, on
  failure, prints the dominant-span attribution — the regression names
  a span, the span names a line of code.

Determinism: the driver's span tree is a function of (sizes, seed,
queries, trust_sources) alone — two same-seed runs agree exactly modulo
``duration_ms`` (pinned by the benchtrack tests).  Every timing-derived
field of the document is listed in :data:`MEASUREMENT_FIELDS` and can be
stripped with :func:`strip_bench_measurements` for identity checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..core.profiles import TaxonomyProfileBuilder
from ..core.recommender import ProfileStore, SemanticWebRecommender
from ..datasets.amazon import book_taxonomy_config
from ..datasets.generators import CommunityConfig, generate_community
from ..obs import Tracer, tracing
from ..obs.profile import SpanNode, aggregate_nodes, build_tree, walk_tree
from ..trust.engine import rank_many
from ..trust.graph import TrustGraph

if TYPE_CHECKING:  # pragma: no cover
    from ..datasets.generators import SyntheticCommunity

__all__ = [
    "BENCH_SCHEMA",
    "PHASES",
    "default_sizes",
    "run_bench",
    "strip_bench_measurements",
    "validate_bench",
    "write_bench",
]

#: The versioned schema id stamped into every document this module writes.
BENCH_SCHEMA = "repro-bench/1"

#: The three phases of one size's measurement, in execution order.
PHASES = ("build", "query", "trust")

#: Document fields that carry measurement (clock-derived, run-to-run
#: noisy) rather than identity; :func:`strip_bench_measurements` removes
#: exactly these.
MEASUREMENT_FIELDS = ("wall_ms", "dominant_self_ms")

#: Span names of the driver's own scaffolding, per phase.
_PHASE_SPAN = {phase: f"bench.{phase}" for phase in PHASES}


def default_sizes() -> tuple[int, ...]:
    """The declared size ladder."""
    return (100, 200, 400)


def _dominant(phase_node: SpanNode) -> tuple[str, float, int]:
    """``(span name, self ms, span count)`` of the hottest name in a subtree.

    The phase's own span competes too: its self time is the
    un-instrumented remainder of the phase, and when *that* dominates,
    the attribution honestly says so instead of blaming the largest
    instrumented child.
    """
    subtree = walk_tree([phase_node])
    top = aggregate_nodes(subtree)[0]
    return top.name, round(top.self_ms, 3), len(subtree)


def run_bench(
    sizes: tuple[int, ...] | None = None,
    seed: int = 42,
    queries: int = 5,
    trust_sources: int = 8,
    memory: bool = False,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Run the build/query/trust ladder; returns ``(document, trace records)``.

    Tracing is not optional here: the document's attribution fields are
    computed *from* the span tree, so the driver always binds its own
    :class:`~repro.obs.Tracer` (``memory=True`` adds per-span
    ``mem_delta_kb`` attribution at a small tracemalloc cost).
    """
    if sizes is None:
        sizes = default_sizes()
    if not sizes or list(sizes) != sorted(set(sizes)):
        raise ValueError(f"sizes must be strictly ascending and non-empty: {sizes!r}")
    tracer = Tracer(memory=memory)
    with tracing(tracer), tracer.span(
        "bench.run", seed=seed, sizes=list(sizes), queries=queries,
        trust_sources=trust_sources,
    ):
        for n_agents in sizes:
            with tracer.span("bench.size", agents=n_agents):
                _run_one_size(tracer, n_agents, seed, queries, trust_sources)
    records = tracer.records()
    document = _document_from_trace(
        records, seed=seed, queries=queries, trust_sources=trust_sources
    )
    return document, records


def _run_one_size(
    tracer: Tracer, n_agents: int, seed: int, queries: int, trust_sources: int
) -> None:
    """One rung of the ladder: the three phases on one community size."""
    community: SyntheticCommunity
    with tracer.span(_PHASE_SPAN["build"], agents=n_agents):
        config = CommunityConfig(
            n_agents=n_agents,
            n_products=n_agents * 2,
            n_clusters=8,
            seed=seed,
            taxonomy=book_taxonomy_config(target_topics=600, seed=seed),
        )
        with tracer.span("community.generate", agents=n_agents, seed=seed):
            community = generate_community(config)
        store = ProfileStore(
            community.dataset, TaxonomyProfileBuilder(community.taxonomy)
        )
        with tracer.span("profiles.pack", agents=n_agents):
            store.matrix()  # pack the profile matrix inside the timed phase
        with tracer.span("trust.graph_build", agents=n_agents):
            graph = TrustGraph.from_dataset(community.dataset)

    recommender = SemanticWebRecommender(
        dataset=community.dataset, graph=graph, profiles=store
    )
    agents = sorted(community.dataset.agents)
    with tracer.span(_PHASE_SPAN["query"], agents=n_agents, queries=queries):
        for agent in agents[:queries]:
            recommender.recommend(agent, limit=10)

    step = max(1, len(agents) // trust_sources)
    sources = [agents[i * step] for i in range(min(trust_sources, len(agents)))]
    with tracer.span(_PHASE_SPAN["trust"], agents=n_agents, sources=len(sources)):
        rank_many(graph, sources)


def _document_from_trace(
    records: list[dict[str, Any]],
    *,
    seed: int,
    queries: int,
    trust_sources: int,
) -> dict[str, Any]:
    """Fold the driver's span tree into one ``repro-bench/1`` document."""
    roots = build_tree(records)
    size_nodes = [
        node for node in walk_tree(roots) if node.name == "bench.size"
    ]
    size_records: list[dict[str, Any]] = []
    phase_names = {span: phase for phase, span in _PHASE_SPAN.items()}
    for size_node in size_nodes:
        phases: dict[str, Any] = {}
        for child in size_node.children:
            phase = phase_names.get(child.name)
            if phase is None:
                continue
            name, self_ms, span_count = _dominant(child)
            phases[phase] = {
                "wall_ms": round(child.duration_ms, 3),
                "dominant_span": name,
                "dominant_self_ms": self_ms,
                "spans": span_count,
            }
        size_records.append(
            {"agents": int(size_node.record["attrs"]["agents"]), "phases": phases}
        )
    return {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "queries": queries,
        "trust_sources": trust_sources,
        "sizes": size_records,
    }


def validate_bench(document: Any) -> list[str]:
    """Check a ``repro-bench/1`` document; returns error strings.

    Like :func:`repro.obs.trace.validate_trace`, every finding is
    collected — the regression gate and the CI smoke job print them all.
    """
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("schema") != BENCH_SCHEMA:
        errors.append(
            f"schema {document.get('schema')!r} != expected {BENCH_SCHEMA!r}"
        )
    for key in ("seed", "queries", "trust_sources"):
        value = document.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{key} must be an integer, got {value!r}")
    sizes = document.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        errors.append("sizes must be a non-empty array")
        return errors
    previous = 0
    for index, entry in enumerate(sizes, start=1):
        where = f"sizes[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        agents = entry.get("agents")
        if not isinstance(agents, int) or isinstance(agents, bool) or agents < 1:
            errors.append(f"{where}: agents {agents!r} is not a positive integer")
        elif agents <= previous:
            errors.append(f"{where}: agents {agents} out of ascending order")
        else:
            previous = agents
        phases = entry.get("phases")
        if not isinstance(phases, dict):
            errors.append(f"{where}: phases must be an object")
            continue
        if sorted(phases) != sorted(PHASES):
            errors.append(
                f"{where}: phases {sorted(phases)} != expected {sorted(PHASES)}"
            )
        for phase, timing in sorted(phases.items()):
            spot = f"{where}.{phase}"
            if not isinstance(timing, dict):
                errors.append(f"{spot}: not an object")
                continue
            for key in ("wall_ms", "dominant_self_ms"):
                value = timing.get(key)
                if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{spot}: {key} {value!r} must be a non-negative number")
            name = timing.get("dominant_span")
            if not isinstance(name, str) or not name:
                errors.append(f"{spot}: dominant_span must be a non-empty string")
            count = timing.get("spans")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                errors.append(f"{spot}: spans {count!r} must be a positive integer")
    return errors


def write_bench(document: dict[str, Any], path: str | Path) -> Path:
    """Write a validated ``repro-bench/1`` document — the one sanctioned
    ``BENCH_*.json`` writer for new trajectories."""
    errors = validate_bench(document)
    if errors:
        raise ValueError(
            "refusing to write an invalid bench document:\n  " + "\n  ".join(errors)
        )
    target = Path(path)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def strip_bench_measurements(document: dict[str, Any]) -> dict[str, Any]:
    """The document minus clock-derived fields — the deterministic remainder.

    Removes :data:`MEASUREMENT_FIELDS` from every phase timing; what
    stays (sizes, phases, span counts, dominant span *names* on a quiet
    machine) is what two same-seed runs are expected to agree on.
    ``dominant_span`` is kept: it is timing-derived in principle, but
    the phases are designed so one span dominates by a wide margin —
    a *changed* dominant span is signal, not noise.
    """
    projected = json.loads(json.dumps(document))
    for entry in projected.get("sizes", []):
        for timing in entry.get("phases", {}).values():
            for key in MEASUREMENT_FIELDS:
                timing.pop(key, None)
    return dict(projected)
