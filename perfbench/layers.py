"""The traced run: spans around the benchmark's own instances, and the
per-layer metrics folded out of the span tree.

:class:`Layers` wraps public methods of one serving state's instances
(not their classes) in spans and binds a :class:`repro.obs.Tracer`
only while a traced operation runs, so the untraced operations it is
compared against pay nothing.  The program's own spans
(``appleseed.compute``, ``trustmatrix.pack``, ``trust.rank_many``) land
in the same tree.  Self time comes from :mod:`repro.obs.profile`.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.core.recommender import SemanticWebRecommender
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    SpanNode,
    Stopwatch,
    Tracer,
    build_tree,
    get_metrics,
    set_tracer,
)
from repro.obs.profile import walk_tree

#: ``(unit, better)`` of every per-layer metric, in print order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "models.ratings_of_calls": ("count", "lower"),
    "models.ratings_of_ms": ("ms", "lower"),
    "models.ratings_of_setup_calls": ("count", "lower"),
    "models.ratings_of_setup_ms": ("ms", "lower"),
    "models.ingest_ms": ("ms", "lower"),
    "models.write_us": ("us", "lower"),
    "graph.build_ms": ("ms", "lower"),
    "graph.horizon_ms": ("ms", "lower"),
    "graph.add_edge_us": ("us", "lower"),
    "appleseed.compute_ms": ("ms", "lower"),
    "appleseed.sweeps": ("count", "lower"),
    "appleseed.ranked_nodes": ("count", "lower"),
    "trustmatrix.packs": ("count", "lower"),
    "trustmatrix.pack_ms": ("ms", "lower"),
    "neighborhood.form_ms": ("ms", "lower"),
    "neighborhood.peers": ("count", "lower"),
    "neighborhood.kept_share": ("ratio", "higher"),
    "similarity.ms": ("ms", "lower"),
    "similarity.rows": ("count", "lower"),
    "synthesis.merge_ms": ("ms", "lower"),
    "vote.self_ms": ("ms", "lower"),
    "profiles.matrix_builds": ("count", "lower"),
    "profiles.matrix_build_ms": ("ms", "lower"),
    "profiles.matrix_hit_ratio": ("ratio", "higher"),
    "profiles.rows_packed_per_write": ("count", "lower"),
    "profiles.builds": ("count", "lower"),
    "profiles.build_ms": ("ms", "lower"),
    "engine.numpy_share": ("ratio", "higher"),
    "query.unattributed_ms": ("ms", "lower"),
    "tracing.overhead_pct": ("%", "lower"),
}


class Layers:
    """Span wrappers on one state's instances, switched on per operation."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._wrappers: list[tuple[object, str, Callable[..., Any]]] = []

    def wrap(
        self,
        owner: object,
        method: str,
        name: str,
        annotate: Callable[[Any, tuple[Any, ...], Any], dict[str, Any]] | None = None,
    ) -> None:
        """Time ``owner.method`` as span *name* while the layers are on."""
        bound = getattr(owner, method)
        tracer = self.tracer

        def traced(*args: Any) -> Any:
            with tracer.span(name) as span:
                result = bound(*args)
                if annotate is not None:
                    for key, value in annotate(owner, args, result).items():
                        span.set(key, value)
            return result

        self._add(owner, method, traced)

    def instrument(self, recommender: SemanticWebRecommender) -> None:
        """Wrap the pipeline's public methods on *recommender*'s instances.

        Called inside a traced setup, so the rest of that setup is traced too.
        """
        store = recommender.profiles
        self.wrap(recommender.dataset, "ratings_of", "dataset.ratings_of")
        self.wrap(recommender, "neighborhood", "recommender.neighborhood", _hood_attrs)
        self.wrap(recommender, "similarities", "recommender.similarities", _rows_attr)
        self.wrap(recommender.synthesis, "merge", "synthesis.merge")
        self._wrap_matrix(store)
        self.wrap(store.builder, "build", "builder.build")
        self.wrap(recommender.graph, "within_horizon", "graph.within_horizon")

    def _wrap_matrix(self, store: Any) -> None:
        """``store.matrix`` as a span marked with whether the call missed."""
        bound = store.matrix
        tracer = self.tracer

        def traced() -> Any:
            misses = get_metrics().counter("similarity.matrix_cache.miss")
            before = misses.value
            with tracer.span("store.matrix") as span:
                matrix = bound()
                span.set("built", misses.value > before)
                span.set("rows", len(matrix))
            return matrix

        self._add(store, "matrix", traced)

    def _add(self, owner: object, method: str, traced: Callable[..., Any]) -> None:
        """Register a wrapper and put it in place at once: :meth:`instrument`
        runs inside :meth:`active`, which takes every wrapper out on exit."""
        self._wrappers.append((owner, method, traced))
        setattr(owner, method, traced)

    def release(self) -> None:
        """Forget the wrapped instances, so a dropped state can be collected."""
        self._wrappers = []

    @contextmanager
    def active(self) -> Iterator[None]:
        """The tracer bound and the wrappers in place for the block."""
        set_tracer(self.tracer)
        for owner, method, traced in self._wrappers:
            setattr(owner, method, traced)
        try:
            yield
        finally:
            set_tracer(NULL_TRACER)
            for owner, method, _ in self._wrappers:
                delattr(owner, method)

    def run(self, root: str, func: Callable[..., Any], *args: Any) -> tuple[Any, float]:
        """``func(*args)`` traced under a root span; returns (result, seconds)."""
        watch = Stopwatch()
        with self.active(), watch, self.tracer.span(root):
            result = func(*args)
        return result, watch.elapsed


def _hood_attrs(owner: Any, args: tuple[Any, ...], hood: Any) -> dict[str, Any]:
    ranked = len(hood.metric_result.ranks) if hood.metric_result is not None else 0
    return {"peers": len(hood), "ranked": ranked}


def _rows_attr(owner: Any, args: tuple[Any, ...], result: Any) -> dict[str, Any]:
    return {"rows": len(args[1])}


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _within(node: SpanNode, name: str) -> list[SpanNode]:
    return [n for n in walk_tree(node.children) if n.name == name]


def _sum_ms(node: SpanNode, name: str) -> float:
    return sum(n.duration_ms for n in _within(node, name))


def per_layer(
    records: list[dict[str, Any]],
    registry: MetricsRegistry,
    traced_read_ms: list[float],
    read_ms: list[float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    Per-query figures are medians (times) or means (counts) over the
    traced reads; a layer a workload never reaches reads 0.  Tracing
    overhead compares the traced reads with the untraced ones.
    """
    roots = build_tree(records)
    reads = [r for r in roots if r.name == "bench.read"]
    writes = [r for r in roots if r.name == "bench.update"]
    setups = [r for r in roots if r.name == "setup"]
    counters = registry.snapshot()["counters"]
    assert isinstance(counters, dict)

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    hoods = [n for r in reads for n in _within(r, "recommender.neighborhood")]
    computes = [n for r in reads for n in _within(r, "appleseed.compute")]
    served = reads + writes
    built = [
        n for r in roots for n in _within(r, "store.matrix") if n.record["attrs"].get("built")
    ]
    rebuilt = [
        n for r in served for n in _within(r, "store.matrix") if n.record["attrs"].get("built")
    ]
    ranked = sum(n.record["attrs"].get("ranked", 0) for n in hoods)
    hits = count("similarity.matrix_cache.hit")
    misses = count("similarity.matrix_cache.miss")
    selected = {
        key: value
        for key, value in counters.items()
        if key.startswith(("engine.selected.", "trust.engine.selected."))
    }
    total_selected = sum(selected.values())
    numpy_selected = sum(v for k, v in selected.items() if k.endswith(".numpy"))
    recommends = [n for r in reads for n in _within(r, "recommender.recommend")]
    untraced_p50 = _median(read_ms)
    metrics = {
        "models.ratings_of_calls": _mean(len(_within(r, "dataset.ratings_of")) for r in reads),
        "models.ratings_of_ms": _median(_sum_ms(r, "dataset.ratings_of") for r in reads),
        "models.ratings_of_setup_calls": _mean(
            len(_within(s, "dataset.ratings_of")) for s in setups
        ),
        "models.ratings_of_setup_ms": _median(_sum_ms(s, "dataset.ratings_of") for s in setups),
        "models.ingest_ms": _median(_sum_ms(s, "setup.ingest") for s in setups),
        "models.write_us": 1000.0
        * _median(
            n.duration_ms
            for r in writes
            for n in _within(r, "dataset.add_rating") + _within(r, "dataset.add_trust")
        ),
        "graph.build_ms": _median(_sum_ms(s, "setup.graph") for s in setups),
        "graph.horizon_ms": _median(_sum_ms(r, "graph.within_horizon") for r in reads),
        "graph.add_edge_us": 1000.0
        * _median(n.duration_ms for r in writes for n in _within(r, "graph.add_edge")),
        "appleseed.compute_ms": _median(n.duration_ms for n in computes),
        "appleseed.sweeps": count("appleseed.sweeps") / max(count("appleseed.computations"), 1.0),
        "appleseed.ranked_nodes": _mean(n.record["attrs"].get("network_size", 0) for n in computes),
        "trustmatrix.packs": _mean(len(_within(r, "trustmatrix.pack")) for r in reads),
        "trustmatrix.pack_ms": _median(_sum_ms(r, "trustmatrix.pack") for r in reads),
        "neighborhood.form_ms": _median(_sum_ms(r, "recommender.neighborhood") for r in reads),
        "neighborhood.peers": _mean(n.record["attrs"].get("peers", 0) for n in hoods),
        "neighborhood.kept_share": (
            sum(n.record["attrs"].get("peers", 0) for n in hoods) / ranked if ranked else 0.0
        ),
        "similarity.ms": _median(_sum_ms(r, "recommender.similarities") for r in reads),
        "similarity.rows": _mean(
            n.record["attrs"].get("rows", 0)
            for r in reads
            for n in _within(r, "recommender.similarities")
        ),
        "synthesis.merge_ms": _median(_sum_ms(r, "synthesis.merge") for r in reads),
        "vote.self_ms": _median(n.self_ms for n in recommends),
        "profiles.matrix_builds": len(rebuilt) / len(writes) if writes else 0.0,
        "profiles.matrix_build_ms": _median(n.duration_ms for n in built),
        "profiles.matrix_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "profiles.rows_packed_per_write": (
            sum(n.record["attrs"].get("rows", 0) for n in rebuilt) / len(writes) if writes else 0.0
        ),
        "profiles.builds": (
            sum(len(_within(r, "builder.build")) for r in served) / len(writes) if writes else 0.0
        ),
        "profiles.build_ms": _median(_sum_ms(s, "builder.build") for s in setups),
        "engine.numpy_share": numpy_selected / total_selected if total_selected else 0.0,
        "query.unattributed_ms": _median(r.self_ms for r in reads),
        "tracing.overhead_pct": (
            100.0 * (_median(traced_read_ms) / untraced_p50 - 1.0) if untraced_p50 else 0.0
        ),
    }
    return metrics
