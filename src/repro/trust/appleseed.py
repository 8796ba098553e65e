"""Appleseed: local group trust computation by spreading activation.

Reimplementation of the metric the paper adopts for trust neighborhood
formation (§3.2, reference [12]: Ziegler & Lausen, *Spreading Activation
Models for Trust Propagation*, IEEE EEE 2004).  The algorithm injects
energy ``in_0`` at the source agent and repeatedly distributes it along
positive trust edges:

* a node keeps the fraction ``(1 - d)`` of its incoming energy as *trust
  rank* and forwards the fraction ``d`` (the spreading factor) to its
  successors, split proportionally to edge weights;
* every discovered node is given a *virtual backward edge* to the source
  with full weight 1.  This is Appleseed's signature trick: it eliminates
  energy sinks (dead-end nodes would otherwise swallow rank), penalizes
  long chains, and makes the computation independent of whether nodes
  happen to have successors;
* iteration stops when no node's rank changed by more than the
  convergence threshold ``T_c`` during the last step.

Unlike Advogato's boolean cut, Appleseed yields a *continuous* rank for
every reached node — exactly what the rank-synthesis stage (§3.4) needs.

Parameters follow the published defaults: ``in_0 = 200``, ``d = 0.85``,
``T_c = 0.01``.  Edge-weight normalization can be linear (proportional to
``w``) or nonlinear (proportional to ``w²``, favoring high-trust edges; the
Appleseed paper recommends it to discourage trust dilution over many weak
edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from ..core.similarity import check_engine, engine_path
from ..obs import NullSpan, Span, get_metrics, get_tracer
from .graph import TrustGraph

__all__ = ["Appleseed", "AppleseedResult"]

Normalization = Literal["linear", "nonlinear"]
DistrustMode = Literal["ignore", "one_step"]


@dataclass(frozen=True, slots=True)
class AppleseedResult:
    """Outcome of one Appleseed computation.

    ``ranks`` excludes the source itself (its rank is an artifact of the
    backward edges and carries no information).  ``iterations`` counts
    full energy-distribution sweeps; ``converged`` is False only when the
    iteration cap was hit first.
    """

    source: str
    ranks: dict[str, float]
    iterations: int
    converged: bool
    injected: float
    history: list[float] = field(default_factory=list)

    def top(self, limit: int | None = None) -> list[tuple[str, float]]:
        """Ranked agents, highest trust first, ties broken by identifier."""
        ordered = sorted(self.ranks.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered if limit is None else ordered[:limit]

    def neighborhood(self, threshold: float = 0.0) -> set[str]:
        """Agents whose rank strictly exceeds *threshold*."""
        return {agent for agent, rank in self.ranks.items() if rank > threshold}


class Appleseed:
    """Configured Appleseed metric; call :meth:`compute` per source agent.

    Parameters
    ----------
    spreading_factor:
        ``d`` — share of incoming energy forwarded to successors.  Must
        lie strictly between 0 and 1; 0.85 is the published default.
        Low ``d`` concentrates rank near the source; high ``d`` explores
        deeper but converges more slowly.
    convergence_threshold:
        ``T_c`` — iteration stops when every rank changed by at most this
        much in one sweep.
    max_iterations:
        Safety cap; hitting it sets ``converged=False`` on the result.
    normalization:
        ``"linear"`` splits forwarded energy proportionally to edge
        weights; ``"nonlinear"`` proportionally to squared weights.
    max_depth:
        Optional exploration horizon (hops from the source).  Mirrors the
        paper's "exploring the social network within predefined ranges
        only"; ``None`` explores the full reachable component.  The
        ``"auto"`` engine slices the horizon out of the graph's cached
        pack; the ``"python"`` oracle copies it out with
        :meth:`TrustGraph.within_horizon`.
    backward_propagation:
        When ``True`` (the published algorithm), every discovered node
        carries the virtual weight-1 edge back to the source.  ``False``
        disables it — an ablation switch: without backward edges,
        dead-end nodes swallow energy, long chains are not penalized,
        and ranks inflate toward sinks (measured by the ablation bench).
    distrust_mode:
        ``"ignore"`` discards negative edges entirely (default).
        ``"one_step"`` additionally applies one post-convergence round of
        distrust: each ranked agent subtracts rank from agents it
        distrusts, proportional to its own rank, the edge magnitude and
        the spreading factor.  Resulting ranks are floored at zero.  This
        approximates the single-step distrust propagation sketched in the
        Appleseed paper (distrust must not propagate transitively —
        "the enemy of my enemy" is *not* my friend).
    engine:
        ``"auto"`` (default) runs each sweep as one gather and one
        ``np.bincount`` over the edges of the graph's packed
        :class:`~repro.perf.trustmatrix.TrustMatrix`, or of the
        ``max_depth`` horizon sliced out of it, and marks the neighbourhood
        once after the loop; the graph keeps that pack until its next
        mutation.  ``"python"`` runs the dict loops below,
        the oracle.  Engines agree within 1e-9 (see
        :mod:`repro.trust.engine`).
    """

    def __init__(
        self,
        spreading_factor: float = 0.85,
        convergence_threshold: float = 0.01,
        max_iterations: int = 1000,
        normalization: Normalization = "linear",
        max_depth: int | None = None,
        distrust_mode: DistrustMode = "ignore",
        backward_propagation: bool = True,
        engine: str = "auto",
    ) -> None:
        if not 0.0 < spreading_factor < 1.0:
            raise ValueError("spreading_factor must lie strictly in (0, 1)")
        if convergence_threshold <= 0.0:
            raise ValueError("convergence_threshold must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if normalization not in ("linear", "nonlinear"):
            raise ValueError(f"unknown normalization {normalization!r}")
        if distrust_mode not in ("ignore", "one_step"):
            raise ValueError(f"unknown distrust_mode {distrust_mode!r}")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1 when given")
        self.spreading_factor = spreading_factor
        self.convergence_threshold = convergence_threshold
        self.max_iterations = max_iterations
        self.normalization = normalization
        self.max_depth = max_depth
        self.distrust_mode = distrust_mode
        self.backward_propagation = backward_propagation
        self.engine = check_engine(engine)

    # -- main algorithm -----------------------------------------------------

    def compute(
        self, graph: TrustGraph, source: str, injection: float = 200.0
    ) -> AppleseedResult:
        """Run Appleseed from *source* with *injection* units of energy."""
        if injection <= 0.0:
            raise ValueError("injection energy must be positive")
        if source not in graph:
            raise KeyError(f"unknown source agent {source!r}")
        resolved = engine_path(self.engine, "trust.engine")
        with self._span(source, resolved) as span:
            if resolved == "numpy":
                from .engine import appleseed_on_matrix, pack_graph  # deferred: sibling cycle

                result = appleseed_on_matrix(
                    pack_graph(graph), source, injection, self
                )
            else:
                if self.max_depth is not None:
                    graph = graph.within_horizon(source, self.max_depth)
                result = self._compute_python(graph, source, injection)
            self._record(span, result)
        return result

    def _span(self, source: str, path: str) -> Span | NullSpan:
        """The ``appleseed.compute`` span of one computation on *path*."""
        return get_tracer().span(
            "appleseed.compute",
            source=source,
            spreading_factor=self.spreading_factor,
            convergence_threshold=self.convergence_threshold,
            engine=path,
        )

    def _record(self, span: Span | NullSpan, result: AppleseedResult) -> None:
        """Convergence telemetry (§3.2: neighborhoods are *bounded and
        auditable*): the sweep count and residual-energy series mirror
        the result's own fields exactly, so a trace is evidence, not a
        parallel bookkeeping that can drift.  Shared by both engines —
        the vectorized path is held to the same evidence contract.
        """
        span.set("iterations", result.iterations)
        span.set("converged", result.converged)
        span.set("network_size", len(result.ranks))
        span.set("residual_energy", result.history)
        metrics = get_metrics()
        metrics.counter("appleseed.computations").inc()
        metrics.counter("appleseed.sweeps").inc(result.iterations)
        if not result.converged:
            metrics.counter("appleseed.iteration_cap_hits").inc()
        metrics.histogram("trust.neighborhood_size").observe(len(result.ranks))

    def _compute_python(
        self,
        graph: TrustGraph,
        source: str,
        injection: float,
    ) -> AppleseedResult:
        """The dict spreading-activation loop — the oracle."""
        d = self.spreading_factor
        rank: dict[str, float] = {source: 0.0}
        incoming: dict[str, float] = {source: injection}
        history: list[float] = []
        # Quotas depend only on the (static) graph, so compute each
        # node's distribution once per call instead of once per sweep —
        # the computation runs for dozens of sweeps.
        quota_cache: dict[str, list[tuple[str, float]]] = {}

        iterations = 0
        converged = False
        while iterations < self.max_iterations:
            iterations += 1
            outgoing: dict[str, float] = {}
            max_delta = 0.0
            for node, energy in incoming.items():
                if energy <= 0.0:
                    continue
                kept = (1.0 - d) * energy
                if node != source:  # source rank is a backward-edge artifact
                    rank[node] = rank.get(node, 0.0) + kept
                    max_delta = max(max_delta, kept)
                quota = quota_cache.get(node)
                if quota is None:
                    quota = self._quota(graph, node, source)
                    quota_cache[node] = quota
                forwarded = d * energy
                for target, share in quota:
                    outgoing[target] = outgoing.get(target, 0.0) + forwarded * share
                    rank.setdefault(target, 0.0)
            incoming = outgoing
            history.append(max_delta)
            # Convergence requires TWO consecutive sub-threshold sweeps:
            # single sweeps can show a zero delta while energy is merely
            # parked at the source (whose rank is excluded) — e.g. the
            # very first sweep, or every other sweep in a star topology —
            # and would otherwise terminate the computation prematurely.
            if (
                iterations > 1
                and max_delta <= self.convergence_threshold
                and history[-2] <= self.convergence_threshold
            ):
                converged = True
                break
            if not incoming:  # energy fully dissipated (dead ends only)
                converged = True
                break

        ranks = {node: value for node, value in rank.items() if node != source}
        if self.distrust_mode == "one_step":
            ranks = self._apply_distrust(graph, source, ranks)
        return AppleseedResult(
            source=source,
            ranks=ranks,
            iterations=iterations,
            converged=converged,
            injected=injection,
            history=history,
        )

    # -- internals ---------------------------------------------------------------

    def _quota(
        self, graph: TrustGraph, node: str, source: str
    ) -> list[tuple[str, float]]:
        """Energy shares for *node*'s successors, backward edge included.

        The virtual backward edge (node -> source, weight 1) takes part in
        normalization like any real edge; it is added for every node
        except the source itself (whose real edges alone receive its
        outgoing energy — re-injecting at the source would be a no-op that
        only slows convergence).
        """
        edges = dict(graph.positive_successors(node))
        if node != source and self.backward_propagation:
            edges[source] = 1.0
        if not edges:
            # Dead end: with backward propagation disabled (or for an
            # isolated source) the energy simply vanishes here.
            return []
        if self.normalization == "nonlinear":
            weighted = {t: w * w for t, w in edges.items()}
        else:
            weighted = edges
        total = sum(weighted.values())
        if total <= 0.0:
            return []
        return [(target, w / total) for target, w in weighted.items()]

    def _apply_distrust(
        self, graph: TrustGraph, source: str, ranks: dict[str, float]
    ) -> dict[str, float]:
        """One round of non-transitive distrust discounting."""
        adjusted = dict(ranks)
        accusers: dict[str, float] = dict(ranks)
        accusers[source] = max(ranks.values(), default=0.0) or 1.0
        for accuser, accuser_rank in accusers.items():
            if accuser_rank <= 0.0:
                continue
            for target, weight in graph.successors(accuser).items():
                if weight >= 0.0 or target not in adjusted:
                    continue
                penalty = self.spreading_factor * (-weight) * accuser_rank
                adjusted[target] = max(0.0, adjusted[target] - penalty)
        return adjusted
